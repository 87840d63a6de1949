package difftest

import (
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
	if sum.Total != 4 {
		t.Errorf("Total = %d", sum.Total)
	}
	if sum.AllInvoked != 2 {
		t.Errorf("AllInvoked = %d", sum.AllInvoked)
	}
	if sum.AllRejectedSameStage != 1 {
		t.Errorf("AllRejectedSameStage = %d", sum.AllRejectedSameStage)
	}
	if sum.Discrepancies != 1 || sum.DistinctCount() != 1 {
		t.Errorf("Discrepancies = %d distinct %d", sum.Discrepancies, sum.DistinctCount())
	}
	if got := sum.DiffRate(); got != 0.25 {
		t.Errorf("DiffRate = %g", got)
	}
	// Histogram: every VM saw 4 classes.
	for i, row := range sum.PhaseHistogram {
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
	if sum.DiffRate() != 0 || sum.Total != 0 || sum.DistinctCount() != 0 {
		t.Error("empty evaluation should be all zeros")
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

var _ = jvm.PhaseInvoked // keep the import for documentation-linked constants
