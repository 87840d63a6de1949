package seedgen

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/difftest"
	"repro/internal/jimple"
	"repro/internal/jvm"
)

func TestGenerateCountAndDeterminism(t *testing.T) {
	a := Generate(DefaultOptions(50, 7))
	b := Generate(DefaultOptions(50, 7))
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("counts: %d, %d", len(a), len(b))
	}
	for i := range a {
		fa, err := jimple.Lower(a[i])
		if err != nil {
			t.Fatalf("lower a[%d]: %v", i, err)
		}
		fb, err := jimple.Lower(b[i])
		if err != nil {
			t.Fatalf("lower b[%d]: %v", i, err)
		}
		da, _ := fa.Bytes()
		db, _ := fb.Bytes()
		if !bytes.Equal(da, db) {
			t.Fatalf("class %d differs across identical seeds", i)
		}
	}
	c := Generate(DefaultOptions(50, 8))
	fa, _ := jimple.Lower(a[0])
	fc, _ := jimple.Lower(c[0])
	da, _ := fa.Bytes()
	dc, _ := fc.Bytes()
	if bytes.Equal(da, dc) {
		t.Error("different seeds should differ (first class identical)")
	}
}

func TestSeedsAreMostlyValidOnReferenceVM(t *testing.T) {
	files, err := GenerateFiles(DefaultOptions(120, 3))
	if err != nil {
		t.Fatal(err)
	}
	vm := jvm.New(jvm.HotSpot9())
	bad := 0
	for _, data := range files {
		o := vm.Run(data)
		// Interfaces have no main: rejected at invocation, not at
		// load/link. Structural failures before the runtime phase mean
		// the seed itself is broken.
		if o.Phase == jvm.PhaseLoading || o.Phase == jvm.PhaseLinking {
			bad++
		}
	}
	// Only the deliberately skewed classes (≈2 %) may fail early.
	if bad > 12 {
		t.Errorf("%d of 120 seeds rejected before initialization", bad)
	}
}

func TestShapeDiversity(t *testing.T) {
	classes := Generate(DefaultOptions(300, 11))
	interfaces, abstracts, withClinit, withThrows, subThreads := 0, 0, 0, 0, 0
	for _, c := range classes {
		if c.IsInterface() {
			interfaces++
		}
		if c.Modifiers.Has(0x0400) && !c.IsInterface() {
			abstracts++
		}
		if c.FindMethod("<clinit>") != nil {
			withClinit++
		}
		if c.Super == "java/lang/Thread" {
			subThreads++
		}
		for _, m := range c.Methods {
			if len(m.Throws) > 0 {
				withThrows++
				break
			}
		}
	}
	for what, n := range map[string]int{
		"interfaces": interfaces, "abstract classes": abstracts,
		"clinit classes": withClinit, "throws classes": withThrows,
		"thread subclasses": subThreads,
	} {
		if n == 0 {
			t.Errorf("corpus contains no %s", what)
		}
	}
}

func TestMainAttachment(t *testing.T) {
	classes := Generate(DefaultOptions(100, 5))
	for _, c := range classes {
		hasMain := c.FindMethod("main") != nil
		if c.IsInterface() && hasMain {
			t.Errorf("interface %s has a main method", c.Name)
		}
		if !c.IsInterface() && !hasMain {
			t.Errorf("class %s lacks the standard main", c.Name)
		}
	}
	noMain := Generate(Options{Count: 20, Seed: 5, SkewFraction: 0})
	for _, c := range noMain {
		if c.FindMethod("main") != nil {
			t.Errorf("AttachMain=false still added main to %s", c.Name)
		}
	}
}

func TestSkewedSeedsReproduceBaselineDiscrepancyRate(t *testing.T) {
	// The preliminary study: ≈1.7 % of library classfiles trigger
	// discrepancies across the five VMs. Our synthetic corpus must land
	// in the same regime (between 0.5 % and 6 % at this sample size).
	files, err := GenerateFiles(DefaultOptions(600, 1))
	if err != nil {
		t.Fatal(err)
	}
	runner := difftest.NewStandardRunner()
	sum := runner.Evaluate(files, difftest.Options{})
	rate := sum.DiffRate()
	if rate < 0.005 || rate > 0.06 {
		t.Errorf("baseline discrepancy rate = %.2f%%, want ≈1.7%%", rate*100)
	}
	t.Logf("baseline: %d/%d (%.2f%%) discrepancy-triggering, %d distinct",
		sum.Count(difftest.Discrepancy), len(sum.Vectors), rate*100, sum.DistinctCount())
}

func TestZeroSkewCorpusHasNoEarlyDiscrepancies(t *testing.T) {
	files, err := GenerateFiles(Options{Count: 150, Seed: 2, SkewFraction: 0, AttachMain: true})
	if err != nil {
		t.Fatal(err)
	}
	runner := difftest.NewStandardRunner()
	sum := runner.Evaluate(files, difftest.Options{})
	if sum.Count(difftest.Discrepancy) != 0 {
		t.Errorf("unskewed corpus triggered %d discrepancies", sum.Count(difftest.Discrepancy))
	}
}

// TestGenerateFilesMatchesGenerateOne pins the parallel corpus build to
// the serial definition: at any GOMAXPROCS, file i is GenerateOne(opts,
// i) lowered by jimple.Lower and written by Bytes, byte for byte.
func TestGenerateFilesMatchesGenerateOne(t *testing.T) {
	opts := DefaultOptions(400, 5)
	want := make([][]byte, opts.Count)
	for i := range want {
		f, err := jimple.Lower(GenerateOne(opts, i))
		if err != nil {
			t.Fatalf("lower %d: %v", i, err)
		}
		if want[i], err = f.Bytes(); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		got, err := GenerateFiles(opts)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		if len(got) != len(want) {
			t.Fatalf("GOMAXPROCS %d: %d files, want %d", procs, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("GOMAXPROCS %d: file %d differs from GenerateOne's", procs, i)
			}
		}
	}
}
