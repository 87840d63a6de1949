package analysis

import (
	"fmt"

	"repro/internal/classfile"
	"repro/internal/jvm"
)

// Mismatch records one disagreement between the static oracle and a
// live VM run — by Definition 2's logic, evidence of a bug in either
// the oracle's reading of JVMS §4 or the VM simulation itself.
type Mismatch struct {
	// Spec names the VM preset.
	Spec string
	// Predicted is the oracle's definite claim.
	Predicted jvm.Outcome
	// Actual is the interpreter's observed outcome.
	Actual jvm.Outcome
}

// String renders the mismatch for sanitizer notes and test failures.
func (m Mismatch) String() string {
	return fmt.Sprintf("%s: oracle predicted %s, VM observed %s", m.Spec, m.Predicted, m.Actual)
}

// CrossCheck runs f on a fresh VM of each spec and returns every
// disagreement with the oracle's definite predictions, in spec order.
// Indefinite predictions are vacuously consistent.
func CrossCheck(f *classfile.File, specs []jvm.Spec) []Mismatch {
	var out []Mismatch
	for _, spec := range specs {
		vm := jvm.New(spec)
		if m := CheckVM(f, vm, vm.RunParsed(f)); m != nil {
			out = append(out, *m)
		}
	}
	return out
}

// CheckVM compares one observed outcome of vm against the oracle's
// prediction for the same file on that VM (using the VM's own
// environment). Phase and error class must agree; messages and output
// are informational. It returns nil when the prediction is indefinite
// or agrees.
func CheckVM(f *classfile.File, vm *jvm.VM, actual jvm.Outcome) *Mismatch {
	pred := StaticVerdict(f, vm.Spec, vm.Env)
	if !pred.Definite || (pred.Outcome.Phase == actual.Phase && pred.Outcome.Error == actual.Error) {
		return nil
	}
	return &Mismatch{Spec: vm.Spec.Name, Predicted: pred.Outcome, Actual: actual}
}
