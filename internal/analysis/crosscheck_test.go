package analysis_test

import (
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bytecode"
	"repro/internal/catalog"
	"repro/internal/classfile"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/mutation"
	"repro/internal/rtlib"
	"repro/internal/seedgen"
)

// TestCatalogCrossCheck runs every curated discrepancy entry (the 62
// reported cases) through the static oracle on all five presets. Every
// definite prediction must match the live VM.
func TestCatalogCrossCheck(t *testing.T) {
	specs := jvm.StandardFive()
	definite := 0
	phases := map[jvm.Phase]bool{}
	for _, e := range catalog.Entries() {
		data, err := e.Data()
		if err != nil {
			t.Fatalf("%s: build: %v", e.ID, err)
		}
		f, err := classfile.Parse(data)
		if err != nil {
			t.Fatalf("%s: parse: %v", e.ID, err)
		}
		for _, sp := range specs {
			if p := analysis.StaticVerdict(f, sp, rtlib.Shared(sp.Release)); p.Definite {
				definite++
				phases[p.Outcome.Phase] = true
			}
		}
		for _, m := range analysis.CrossCheck(f, specs) {
			t.Errorf("%s (%s): %s", e.ID, e.Title, m)
		}
	}
	// Guard against the check becoming vacuous: the oracle currently
	// commits on ~200 of the 310 entry×preset combinations, across every
	// startup phase.
	if definite < 150 {
		t.Errorf("oracle made only %d definite predictions over the catalog; cross-check is nearly vacuous", definite)
	}
	if len(phases) < jvm.PhaseCount {
		t.Errorf("definite predictions cover only phases %v", phases)
	}
}

// TestMutationFamilyCrossCheck pushes mutants from every Table 2
// mutation family through the oracle on all five presets. Each family
// must yield checkable mutants, and no definite prediction may
// disagree with the live VM.
func TestMutationFamilyCrossCheck(t *testing.T) {
	specs := jvm.StandardFive()
	seeds := seedgen.Generate(seedgen.DefaultOptions(10, 7))
	rng := rand.New(rand.NewSource(7))

	byFamily := map[mutation.Category][]*mutation.Mutator{}
	for _, m := range mutation.Registry() {
		byFamily[m.Category] = append(byFamily[m.Category], m)
	}
	for fam, muts := range byFamily {
		checked := 0
		for _, mu := range muts {
			for _, s := range seeds {
				c := s.Clone()
				if !mu.Apply(c, rng) {
					continue
				}
				f, err := jimple.Lower(c)
				if err != nil {
					// Soot-style dump failure; the fuzz loop discards these
					// mutants before any VM sees them.
					continue
				}
				for _, m := range analysis.CrossCheck(f, specs) {
					t.Errorf("family %s, mutator %s: %s", fam, mu.Name, m)
				}
				checked++
				break
			}
		}
		if checked == 0 {
			t.Errorf("family %s produced no checkable mutant", fam)
		}
	}
}

// TestStackMapCrossCheck is the regression test for the
// stackmap-undecodable downgrade: an undecodable StackMapTable on a
// version-51 class must split the presets exactly along the
// VerifyTypeChecking knob — a linking-phase ClassFormatError where the
// type-checking verifier runs eagerly (HotSpot), the same error
// surfacing at invocation under the lazy type-checker (J9), and a
// clean run under GIJ's pre-stack-map inference verifier — with the
// oracle's definite predictions agreeing with every live VM.
func TestStackMapCrossCheck(t *testing.T) {
	f := classfile.New("SM")
	classfile.AttachDefaultInit(f)
	m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
	cb := classfile.NewCodeBuilder(f.Pool)
	cb.Op(bytecode.Return).SetMaxStack(1).SetMaxLocals(1)
	m.Attributes = append(m.Attributes, cb.Build())
	code := m.Code()
	// 0xff opens a full_frame whose body is truncated: undecodable.
	code.Attributes = append(code.Attributes, &classfile.StackMapTableAttr{Raw: []byte{0xff, 0x00}})

	want := map[string]jvm.Outcome{
		"HotSpot-Java7": {Phase: jvm.PhaseLinking, Error: jvm.ErrClassFormat},
		"HotSpot-Java8": {Phase: jvm.PhaseLinking, Error: jvm.ErrClassFormat},
		"HotSpot-Java9": {Phase: jvm.PhaseLinking, Error: jvm.ErrClassFormat},
		"J9-SDK8":       {Phase: jvm.PhaseRuntime, Error: jvm.ErrClassFormat},
		"GIJ-5.1.0":     {Phase: jvm.PhaseInvoked},
	}
	for _, sp := range jvm.StandardFive() {
		pred := analysis.StaticVerdict(f, sp, rtlib.Shared(sp.Release))
		if !pred.Definite {
			t.Errorf("%s: oracle made no definite prediction", sp.Name)
			continue
		}
		w := want[sp.Name]
		if pred.Outcome.Phase != w.Phase || pred.Outcome.Error != w.Error {
			t.Errorf("%s: predicted %v, want phase %v error %q", sp.Name, pred.Outcome, w.Phase, w.Error)
		}
	}
	for _, mm := range analysis.CrossCheck(f, jvm.StandardFive()) {
		t.Errorf("oracle/VM disagreement: %s", mm)
	}
}
