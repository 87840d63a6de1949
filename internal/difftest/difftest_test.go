package difftest

import (
	"reflect"
	"testing"

	"repro/internal/classfile"
	"repro/internal/jvm"
	"repro/internal/rtlib"
)

func hello(name string) []byte {
	f := classfile.New(name)
	classfile.AttachDefaultInit(f)
	classfile.AttachStandardMain(f, "ok")
	data, _ := f.Bytes()
	return data
}

func TestVectorBasics(t *testing.T) {
	v := Vector{Codes: []int{0, 0, 0, 1, 2}}
	if !v.Discrepant() {
		t.Error("0,0,0,1,2 is the Figure 3 discrepancy")
	}
	if v.Key() != "00012" {
		t.Errorf("Key = %q", v.Key())
	}
	if v.AllInvoked() {
		t.Error("not all invoked")
	}
	same := Vector{Codes: []int{2, 2, 2, 2, 2}}
	if same.Discrepant() || same.AllInvoked() {
		t.Error("constant non-zero vector is neither discrepant nor all-invoked")
	}
	zero := Vector{Codes: []int{0, 0, 0, 0, 0}}
	if zero.Discrepant() || !zero.AllInvoked() {
		t.Error("all-zeros classification")
	}
}

func TestStandardRunnerLineup(t *testing.T) {
	r := NewStandardRunner()
	names := r.Names()
	want := []string{"HotSpot-Java7", "HotSpot-Java8", "HotSpot-Java9", "J9-SDK8", "GIJ-5.1.0"}
	if len(names) != 5 {
		t.Fatalf("lineup size %d", len(names))
	}
	for i := range names {
		if names[i] != want[i] {
			t.Errorf("vm %d = %s, want %s", i, names[i], want[i])
		}
	}
}

func TestRunValidClass(t *testing.T) {
	r := NewStandardRunner()
	v := r.Run(hello("DAll"))
	if !v.AllInvoked() {
		t.Errorf("valid class should run everywhere: %v", v.Codes)
	}
}

func TestRunDiscrepantClass(t *testing.T) {
	// Figure 2's construction: abstract non-static <clinit>.
	f := classfile.New("DFig2")
	classfile.AttachDefaultInit(f)
	classfile.AttachStandardMain(f, "ok")
	f.AddMethod(classfile.AccPublic|classfile.AccAbstract, "<clinit>", "()V")
	data, _ := f.Bytes()
	r := NewStandardRunner()
	v := r.Run(data)
	if !v.Discrepant() {
		t.Fatalf("expected a discrepancy, got %v", v.Codes)
	}
	// HotSpot runs (0), J9 rejects at loading (1), GIJ runs (0).
	if v.Codes[0] != 0 || v.Codes[3] != 1 || v.Codes[4] != 0 {
		t.Errorf("vector = %v, want HotSpot 0 / J9 1 / GIJ 0", v.Codes)
	}
}

func TestEvaluateAggregation(t *testing.T) {
	valid := hello("DV")
	broken := []byte{0xCA, 0xFE, 0xBA, 0xBE} // rejected by all at loading
	f := classfile.New("DD")
	classfile.AttachDefaultInit(f)
	classfile.AttachStandardMain(f, "ok")
	f.AddMethod(classfile.AccPublic|classfile.AccAbstract, "<clinit>", "()V")
	discrepant, _ := f.Bytes()

	r := NewStandardRunner()
	sum := r.Evaluate([][]byte{valid, broken, discrepant, valid}, Options{})
	if len(sum.Vectors) != 4 {
		t.Errorf("%d vectors", len(sum.Vectors))
	}
	if n := sum.Count(Invoked); n != 2 {
		t.Errorf("Count(Invoked) = %d", n)
	}
	if n := sum.Count(RejectedSameStage); n != 1 {
		t.Errorf("Count(RejectedSameStage) = %d", n)
	}
	if n := sum.Count(Discrepancy); n != 1 || sum.DistinctCount() != 1 {
		t.Errorf("Count(Discrepancy) = %d distinct %d", n, sum.DistinctCount())
	}
	if got := sum.DiffRate(); got != 0.25 {
		t.Errorf("DiffRate = %g", got)
	}
	// Histogram: every VM saw 4 classes.
	for i, row := range sum.PhaseHistogram() {
		n := 0
		for _, c := range row {
			n += c
		}
		if n != 4 {
			t.Errorf("vm %d histogram sums to %d", i, n)
		}
	}
	vecs := sum.SortedVectors()
	if len(vecs) != 1 || vecs[0].Count != 1 {
		t.Errorf("SortedVectors = %v", vecs)
	}
}

func TestSharedEnvRemovesCompatibilityDiscrepancy(t *testing.T) {
	// A class extending the release-skewed EnumEditor splits the
	// standard lineup but not a shared-environment lineup restricted to
	// the HotSpot trio (J9 vs HotSpot differences are policy, not
	// environment, so we compare only the same-policy VMs here).
	f := classfile.New("DEnv")
	f.SetSuper("com/sun/beans/editors/EnumEditor")
	classfile.AttachStandardMain(f, "ok")
	data, _ := f.Bytes()

	std := NewStandardRunner()
	vs := std.Run(data)
	if vs.Codes[0] == vs.Codes[1] {
		t.Error("standard runner should split HotSpot7 vs HotSpot8 on EnumEditor")
	}

	shared := NewSharedEnvRunner(rtlib.JRE7)
	vsh := shared.Run(data)
	if vsh.Codes[0] != vsh.Codes[1] || vsh.Codes[1] != vsh.Codes[2] {
		t.Errorf("shared environment should align the HotSpot trio: %v", vsh.Codes)
	}
}

func TestDistinctVectorTheoreticalSpace(t *testing.T) {
	// Figure 3 notes 5^5 theoretical possibilities; sanity-check the
	// encoding covers codes 0-4 per VM.
	r := NewStandardRunner()
	if len(r.VMs) != 5 {
		t.Fatal("need 5 VMs")
	}
	v := Vector{Codes: []int{4, 3, 2, 1, 0}}
	if v.Key() != "43210" {
		t.Errorf("Key = %q", v.Key())
	}
}

func TestEmptySummary(t *testing.T) {
	r := NewStandardRunner()
	sum := r.Evaluate(nil, Options{})
	if sum.DiffRate() != 0 || len(sum.Vectors) != 0 || sum.DistinctCount() != 0 {
		t.Error("empty evaluation should be all zeros")
	}
}

// invoked builds an all-invoked outcome vector printing the given
// lines, one per VM.
func invoked(lines ...string) Vector {
	v := Vector{Codes: make([]int, len(lines)), Outcomes: make([]jvm.Outcome, len(lines))}
	for i, l := range lines {
		v.Outcomes[i] = jvm.Outcome{Phase: jvm.PhaseInvoked, Output: []string{l}}
	}
	return v
}

// TestCategorySplit pins Table 6's split on hand-built vectors: an
// all-invoked vector whose VMs print different output is Discrepant yet
// files as Invoked and adds no distinct key; a constant rejection is
// RejectedSameStage; a mixed-phase vector is a Discrepancy. Count,
// DistinctVectors, DiffRate and PhaseHistogram all follow Category.
func TestCategorySplit(t *testing.T) {
	divergent := invoked("a", "a", "b", "a", "a")
	sameStage := Vector{Codes: []int{2, 2, 2, 2, 2}}
	for range sameStage.Codes {
		sameStage.Outcomes = append(sameStage.Outcomes, jvm.Outcome{Phase: jvm.PhaseLinking, Error: jvm.ErrVerify})
	}
	mixed := Vector{Codes: []int{0, 0, 0, 1, 2}}
	for _, c := range mixed.Codes {
		mixed.Outcomes = append(mixed.Outcomes, jvm.Outcome{Phase: jvm.Phase(c)})
	}
	cases := []struct {
		name       string
		v          Vector
		cat        Category
		discrepant bool
	}{
		{"output-divergent", divergent, Invoked, true},
		{"same-stage", sameStage, RejectedSameStage, false},
		{"mixed-phase", mixed, Discrepancy, true},
		{"agreeing", invoked("a", "a", "a", "a", "a"), Invoked, false},
	}
	sum := &Summary{VMNames: []string{"A", "B", "C", "D", "E"}}
	for _, c := range cases {
		if got := c.v.Category(); got != c.cat {
			t.Errorf("%s: Category = %d, want %d", c.name, got, c.cat)
		}
		if got := c.v.Discrepant(); got != c.discrepant {
			t.Errorf("%s: Discrepant = %v, want %v", c.name, got, c.discrepant)
		}
		sum.Vectors = append(sum.Vectors, c.v)
	}
	if a, b, d := sum.Count(Invoked), sum.Count(RejectedSameStage), sum.Count(Discrepancy); a != 2 || b != 1 || d != 1 {
		t.Errorf("split = %d/%d/%d, want 2/1/1", a, b, d)
	}
	if got := sum.DistinctVectors(); !reflect.DeepEqual(got, map[string]int{"00012": 1}) {
		t.Errorf("DistinctVectors = %v, want only 00012", got)
	}
	if got := sum.DiffRate(); got != 0.25 {
		t.Errorf("DiffRate = %g, want 0.25", got)
	}
	want := [][]int{{3, 0, 1, 0, 0}, {3, 0, 1, 0, 0}, {3, 0, 1, 0, 0}, {2, 1, 1, 0, 0}, {2, 0, 2, 0, 0}}
	if got := sum.PhaseHistogram(); !reflect.DeepEqual(got, want) {
		t.Errorf("PhaseHistogram = %v, want %v", got, want)
	}
}

func TestOutputDivergenceIsADiscrepancy(t *testing.T) {
	// Definition 1: identical phases, diverging output. Synthesize the
	// outcomes directly — the simulated interpreters are shared, so a
	// natural output split requires the kind of resolution skew the
	// vector layer must nevertheless classify correctly.
	v := Vector{
		Codes: []int{0, 0, 0, 0, 0},
		Outcomes: []jvm.Outcome{
			{Phase: jvm.PhaseInvoked, Output: []string{"a"}},
			{Phase: jvm.PhaseInvoked, Output: []string{"a"}},
			{Phase: jvm.PhaseInvoked, Output: []string{"b"}},
			{Phase: jvm.PhaseInvoked, Output: []string{"a"}},
			{Phase: jvm.PhaseInvoked, Output: []string{"a"}},
		},
	}
	if !v.OutputDivergent() || !v.Discrepant() {
		t.Error("diverging output must count as a discrepancy")
	}
	same := Vector{
		Codes: []int{0, 0, 2, 0, 0},
		Outcomes: []jvm.Outcome{
			{Phase: jvm.PhaseInvoked, Output: []string{"a"}},
			{Phase: jvm.PhaseInvoked, Output: []string{"a"}},
			{Phase: jvm.PhaseLinking, Error: jvm.ErrVerify},
			{Phase: jvm.PhaseInvoked, Output: []string{"a"}},
			{Phase: jvm.PhaseInvoked, Output: []string{"a"}},
		},
	}
	if same.OutputDivergent() {
		t.Error("rejecting VMs must not participate in output comparison")
	}
	if !same.Discrepant() {
		t.Error("phase split is still a discrepancy")
	}
	short := Vector{
		Codes: []int{0, 0, 0, 0, 0},
		Outcomes: []jvm.Outcome{
			{Phase: jvm.PhaseInvoked, Output: []string{"a", "b"}},
			{Phase: jvm.PhaseInvoked, Output: []string{"a"}},
			{Phase: jvm.PhaseInvoked, Output: []string{"a", "b"}},
			{Phase: jvm.PhaseInvoked, Output: []string{"a", "b"}},
			{Phase: jvm.PhaseInvoked, Output: []string{"a", "b"}},
		},
	}
	if !short.OutputDivergent() {
		t.Error("differing line counts are divergent output")
	}
}
