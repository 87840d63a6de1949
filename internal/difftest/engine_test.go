package difftest

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/classfile"
	"repro/internal/jvm"
	"repro/internal/seedgen"
	"repro/internal/telemetry"
)

// mixedCorpus builds a deterministic corpus exercising every outcome
// class: normally-invoked hellos, version-skewed rejects (via seedgen's
// skew fraction), the Figure 2 discrepancy, unparseable bytes, and
// exact duplicates.
func mixedCorpus(t testing.TB) [][]byte {
	opts := seedgen.DefaultOptions(40, 11)
	opts.SkewFraction = 0.25
	classes, err := seedgen.GenerateFiles(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		classes = append(classes, hello(fmt.Sprintf("EMix%d", i)))
	}
	f := classfile.New("EMixDiscrepant")
	classfile.AttachDefaultInit(f)
	classfile.AttachStandardMain(f, "ok")
	f.AddMethod(classfile.AccPublic|classfile.AccAbstract, "<clinit>", "()V")
	d, _ := f.Bytes()
	classes = append(classes, d)
	classes = append(classes, []byte{0xCA, 0xFE, 0xBA, 0xBE}, []byte{0x00})
	// Duplicates, interleaved so parallel workers race on them.
	classes = append(classes, classes[:10]...)
	return classes
}

// testWorkerCounts is the sweep the equivalence tests run; the CI race
// matrix widens it via DIFFTEST_TEST_WORKERS.
func testWorkerCounts() []int {
	ws := []int{1, 4, runtime.GOMAXPROCS(0)}
	if env := os.Getenv("DIFFTEST_TEST_WORKERS"); env != "" {
		if n, err := strconv.Atoi(env); err == nil && n > 0 {
			ws = append(ws, n)
		}
	}
	return ws
}

// withoutOracle drops the static-oracle fields, which the per-VM-parse
// reference cannot produce.
func withoutOracle(s *Summary) *Summary {
	c := *s
	c.OracleMismatches, c.VerifierMismatches, c.MismatchSamples = 0, 0, nil
	return &c
}

// perVMParseReference is the retained pre-engine model's Summary: every
// VM parses the class bytes itself.
func perVMParseReference(classes [][]byte) *Summary {
	ref := NewStandardRunner()
	want := newSummary(ref)
	for _, data := range classes {
		want.absorb(ref.runSeparateParses(data))
	}
	return want
}

// TestEngineEquivalence asserts the engine's contract: sequential
// Evaluate and Evaluate at every worker count (0 and 1 are sequential)
// produce Summaries field-identical — DistinctVectors, histogram,
// sample ordering included — to the retained pre-engine per-VM-parse
// reference on a mixed corpus.
func TestEngineEquivalence(t *testing.T) {
	classes := mixedCorpus(t)
	want := perVMParseReference(classes)
	for _, w := range append([]int{0}, testWorkerCounts()...) {
		got := NewStandardRunner().Evaluate(classes, Options{Workers: w})
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: summary differs from per-VM-parse reference:\nwant %+v\ngot  %+v", w, want, got)
		}
	}
}

// TestEvaluateCheckedEquivalence asserts the checked path (static
// oracle sanitizer) is field-identical across worker counts,
// MismatchSamples ordering included, and agrees with the per-VM-parse
// reference once the oracle fields are set aside.
func TestEvaluateCheckedEquivalence(t *testing.T) {
	classes := mixedCorpus(t)
	want := NewStandardRunner().Evaluate(classes, Options{Checked: true})
	if ref := perVMParseReference(classes); !reflect.DeepEqual(ref, withoutOracle(want)) {
		t.Errorf("checked summary differs from per-VM-parse reference:\nwant %+v\ngot  %+v", ref, withoutOracle(want))
	}
	for _, w := range append([]int{0}, testWorkerCounts()...) {
		got := NewStandardRunner().Evaluate(classes, Options{Workers: w, Checked: true})
		if !reflect.DeepEqual(want, got) {
			t.Errorf("checked workers=%d differs:\nwant %+v\ngot  %+v", w, want, got)
		}
	}
}

// TestEvaluateCheckedMatchesParallel asserts the sanitizer-enabled
// parallel evaluation reports the same aggregate as the plain parallel
// one and no oracle mismatch on a corpus of normally-invoked classes,
// version-skewed rejects and the Figure 2 discrepancy.
func TestEvaluateCheckedMatchesParallel(t *testing.T) {
	classes := mixedCorpus(t)
	r := NewStandardRunner()
	plain := r.Evaluate(classes, Options{Workers: 4})
	checked := r.Evaluate(classes, Options{Workers: 4, Checked: true})
	if checked.OracleMismatches != 0 {
		t.Errorf("static oracle disagreed with the interpreter %d time(s): %v",
			checked.OracleMismatches, checked.MismatchSamples)
	}
	if !reflect.DeepEqual(plain, withoutOracle(checked)) {
		t.Errorf("aggregates diverged:\nplain   %+v\nchecked %+v", plain, checked)
	}
}

// TestEvaluateParallelMatchesSequential asserts parallel evaluation
// reproduces the sequential Summary, that workers=0 picks a sane
// default, and that more workers than classes still evaluates every
// class.
func TestEvaluateParallelMatchesSequential(t *testing.T) {
	classes := mixedCorpus(t)
	r := NewStandardRunner()
	seq := r.Evaluate(classes, Options{})
	for _, w := range []int{0, 4} {
		if got := r.Evaluate(classes, Options{Workers: w}); !reflect.DeepEqual(seq, got) {
			t.Errorf("workers=%d disagrees with sequential:\nseq %+v\npar %+v", w, seq, got)
		}
	}
	if got := r.Evaluate(classes[:1], Options{Workers: 8}); got.Total != 1 {
		t.Errorf("one class over 8 workers: Total = %d, want 1", got.Total)
	}
}

// TestParseOncePerClass asserts the headline accounting: the engine
// parses each evaluated class exactly once (the pre-engine model parsed
// once per VM, 5×).
func TestParseOncePerClass(t *testing.T) {
	classes := mixedCorpus(t)
	n := int64(len(classes))

	plain := NewStandardRunner()
	plain.Evaluate(classes, Options{})
	st := plain.Stats()
	if got := st.Counter(MetricClasses); got != n {
		t.Fatalf("classes = %d, want %d", got, n)
	}
	parses := st.Counter(MetricParses)
	if parses != n {
		t.Errorf("parses = %d, want one per class (%d)", parses, n)
	}
	avoided := st.Counter(MetricClasses)*int64(len(plain.VMs)) - parses
	if want := n * int64(len(plain.VMs)-1); avoided != want {
		t.Errorf("parses avoided = %d, want %d", avoided, want)
	}
}

// TestUseTelemetry asserts the external-registry contract: attaching a
// registry leaves the Summary bit-identical (telemetry is observe-only),
// routes the difftest.* counters there, times evaluations, and switches
// on per-VM phase timing — including on worker clones.
func TestUseTelemetry(t *testing.T) {
	classes := mixedCorpus(t)
	want := NewStandardRunner().Evaluate(classes, Options{})

	reg := telemetry.New()
	r := NewStandardRunner()
	r.UseTelemetry(reg)
	got := r.Evaluate(classes, Options{Workers: 4})
	if !reflect.DeepEqual(want, got) {
		t.Error("telemetry-attached evaluation changed the Summary")
	}

	s := reg.Snapshot()
	if n := s.Counter(MetricClasses); n != int64(len(classes)) {
		t.Errorf("classes counter = %d, want %d", n, len(classes))
	}
	if s.Gauge(MetricLineupSize) != int64(len(r.VMs)) {
		t.Errorf("lineup gauge = %d, want %d", s.Gauge(MetricLineupSize), len(r.VMs))
	}
	if h := s.Hist(MetricEvaluateNs); h.Count != 1 {
		t.Errorf("evaluate_ns count = %d, want 1", h.Count)
	}
	// Worker clones inherit the registry, so per-VM run counters across
	// the lineup must account for every pipeline execution.
	var vmRuns int64
	for _, vm := range r.VMs {
		vmRuns += s.Counter("jvm." + vm.Spec.Name + ".runs")
	}
	if engine := s.Counter(MetricVMRuns); vmRuns != engine {
		t.Errorf("per-VM run counters sum to %d, engine counted %d", vmRuns, engine)
	}
	// Phase timing histograms exist and observed at least the loading
	// stage for the reference VM.
	name := "jvm." + r.VMs[0].Spec.Name + ".phase." + jvm.PhaseLoading.String() + "_ns"
	if h := s.Hist(name); h.Count == 0 {
		t.Errorf("%s recorded no observations", name)
	}
}

// TestRunParsedSharedFilePurity is parse-once sharing's soundness
// condition as a race test: outcomes must be pure, i.e. no VM may
// mutate the shared parsed classfile.File. Many VMs of every policy run
// the same parsed files concurrently; under -race any write to shared
// parsed state is a report, and each run must keep producing its spec's
// outcome.
func TestRunParsedSharedFilePurity(t *testing.T) {
	var files []*classfile.File
	for _, data := range mixedCorpus(t) {
		f, err := classfile.Parse(data)
		if err != nil {
			continue
		}
		files = append(files, f)
	}
	if len(files) < 10 {
		t.Fatalf("corpus too small: %d parsed files", len(files))
	}

	specs := jvm.StandardFive()
	want := make([][]jvm.Outcome, len(specs))
	for si, spec := range specs {
		vm := jvm.New(spec)
		want[si] = make([]jvm.Outcome, len(files))
		for fi, f := range files {
			want[si][fi] = vm.RunParsed(f)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		for si, spec := range specs {
			wg.Add(1)
			go func(si int, spec jvm.Spec) {
				defer wg.Done()
				vm := jvm.New(spec) // private VM, private decode cache
				for fi, f := range files {
					got := vm.RunParsed(f)
					if !reflect.DeepEqual(got, want[si][fi]) {
						t.Errorf("%s: file %d outcome changed under sharing: %v vs %v",
							spec.Name, fi, got, want[si][fi])
						return
					}
				}
			}(si, spec)
		}
	}
	wg.Wait()
}

// TestVectorKeySlowPath pins the fallback rendering for codes outside
// 0–9 to the historical fmt-based behaviour.
func TestVectorKeySlowPath(t *testing.T) {
	v := Vector{Codes: []int{0, -1, 12}}
	if got := v.Key(); got != "0-112" {
		t.Errorf("Key = %q, want %q", got, "0-112")
	}
}
