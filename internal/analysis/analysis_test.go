package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/classfile"
	"repro/internal/jvm"
)

// okClass builds a minimal well-formed class: public, version 51, one
// static void method with a lone return.
func okClass(name string) *classfile.File {
	f := classfile.New(name)
	m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "go", "()V")
	m.Attributes = append(m.Attributes, &classfile.CodeAttr{
		MaxStack: 1, MaxLocals: 1, Code: []byte{0xb1}, // return
	})
	return f
}

func findDiag(diags []analysis.Diagnostic, rule string) *analysis.Diagnostic {
	for i := range diags {
		if diags[i].Rule == rule {
			return &diags[i]
		}
	}
	return nil
}

func TestCleanClassHasNoErrors(t *testing.T) {
	// Version bounds are emitted unconditionally (the gate decides per
	// policy), so "clean" means: no error any standard preset enforces.
	diags := analysis.Run(okClass("T"), analysis.DefaultAnalyzers())
	for _, d := range diags {
		if d.Severity != analysis.SevError {
			continue
		}
		for _, sp := range jvm.StandardFive() {
			if d.Gate.Enabled(&sp.Policy) {
				t.Errorf("%s enforces unexpected diagnostic: %s", sp.Name, d)
			}
		}
	}
}

func TestDuplicateMethodDiagnostic(t *testing.T) {
	f := okClass("T")
	m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "go", "()V")
	m.Attributes = append(m.Attributes, &classfile.CodeAttr{
		MaxStack: 1, MaxLocals: 1, Code: []byte{0xb1},
	})
	d := findDiag(analysis.Run(f, analysis.DefaultAnalyzers()), "duplicate-method")
	if d == nil {
		t.Fatal("no duplicate-method diagnostic")
	}
	if d.Severity != analysis.SevError || d.Phase != jvm.PhaseLoading {
		t.Errorf("got %s severity, %s phase", d.Severity, d.Phase)
	}
	// Every preset's loader checks duplicates only under its policy gate.
	strict := jvm.HotSpot9().Policy
	if !d.Gate.Enabled(&strict) {
		t.Errorf("duplicate-method gate disabled for HotSpot9")
	}
}

func TestClassFlagDiagnosticGating(t *testing.T) {
	f := okClass("T")
	f.AccessFlags |= classfile.AccFinal | classfile.AccAbstract
	d := findDiag(analysis.Run(f, analysis.DefaultAnalyzers()), "class-final-abstract")
	if d == nil {
		t.Fatal("no class-final-abstract diagnostic")
	}
	hs9, gij := jvm.HotSpot9().Policy, jvm.GIJ().Policy
	if !d.Gate.Enabled(&hs9) {
		t.Errorf("flag check should be enabled for HotSpot9")
	}
	if d.Gate.Enabled(&gij) {
		t.Errorf("flag check should be disabled for GIJ's lenient loader")
	}
}

func TestBadBranchTargetDiagnostic(t *testing.T) {
	f := classfile.New("T")
	m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "go", "()V")
	m.Attributes = append(m.Attributes, &classfile.CodeAttr{
		// goto +200 jumps far past the end of the 4-byte method.
		MaxStack: 1, MaxLocals: 1, Code: []byte{0xa7, 0x00, 0xc8, 0xb1},
	})
	d := findDiag(analysis.Run(f, analysis.DefaultAnalyzers()), "bad-branch-target")
	if d == nil {
		t.Fatal("no bad-branch-target diagnostic")
	}
	if d.Phase != jvm.PhaseLinking || d.Err != jvm.ErrVerify {
		t.Errorf("got phase %s, err %s", d.Phase, d.Err)
	}
}

func TestUnreachableCodeWarning(t *testing.T) {
	f := classfile.New("T")
	m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "go", "()V")
	m.Attributes = append(m.Attributes, &classfile.CodeAttr{
		// return; nop — the nop is unreachable.
		MaxStack: 1, MaxLocals: 1, Code: []byte{0xb1, 0x00},
	})
	d := findDiag(analysis.Run(f, analysis.DefaultAnalyzers()), "unreachable")
	if d == nil {
		t.Fatal("no unreachable diagnostic")
	}
	if d.Severity != analysis.SevWarn {
		t.Errorf("unreachable code must be advisory, got %s", d.Severity)
	}
	p := jvm.HotSpot9().Policy
	if d.Gate.Enabled(&p) {
		t.Errorf("no VM rejects unreachable code; gate must stay closed")
	}
}

func TestFallsOffEndDiagnostic(t *testing.T) {
	f := classfile.New("T")
	m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "go", "()V")
	m.Attributes = append(m.Attributes, &classfile.CodeAttr{
		MaxStack: 1, MaxLocals: 1, Code: []byte{0x00}, // lone nop
	})
	d := findDiag(analysis.Run(f, analysis.DefaultAnalyzers()), "falls-off-end")
	if d == nil {
		t.Fatal("no falls-off-end diagnostic")
	}
	if d.Err != jvm.ErrVerify {
		t.Errorf("got %s", d.Err)
	}
}

func TestDiagnosticOrderingMirrorsLoader(t *testing.T) {
	// A file with both a pool defect and a member defect must report the
	// pool defect first, matching the loader's check sequence.
	f := okClass("T")
	f.AddMethod(classfile.AccPublic|classfile.AccStatic, "bad", "not-a-descriptor")
	f.AccessFlags |= classfile.AccFinal | classfile.AccAbstract
	diags := analysis.Run(f, analysis.DefaultAnalyzers())
	var rules []string
	for _, d := range diags {
		if d.Severity == analysis.SevError {
			rules = append(rules, d.Rule)
		}
	}
	flagAt, descAt := -1, -1
	for i, r := range rules {
		switch r {
		case "class-final-abstract":
			flagAt = i
		case "method-descriptor":
			descAt = i
		}
	}
	if flagAt < 0 || descAt < 0 {
		t.Fatalf("missing expected diagnostics in %v", rules)
	}
	if flagAt > descAt {
		t.Errorf("class-flag check must precede member descriptor checks: %v", rules)
	}
}

func TestDiagnosticStringCitesJVMS(t *testing.T) {
	f := okClass("T")
	f.AccessFlags |= classfile.AccFinal | classfile.AccAbstract
	d := findDiag(analysis.Run(f, analysis.DefaultAnalyzers()), "class-final-abstract")
	if d == nil {
		t.Fatal("no diagnostic")
	}
	if !strings.Contains(d.String(), "JVMS") || d.JVMS == "" {
		t.Errorf("diagnostic must cite its JVMS section: %s", d)
	}
}
