package analysis

import (
	"fmt"

	"repro/internal/classfile"
	"repro/internal/jvm"
)

// MismatchKind classifies a disagreement for triage and difftest
// reporting.
type MismatchKind string

// Mismatch kinds.
const (
	// MismatchGeneral covers phase/error splits outside verification.
	MismatchGeneral MismatchKind = "general"
	// MismatchVerifier marks a static-verdict-vs-VM-verifier split:
	// either side claims a VerifyError the other does not, the
	// discrepancy class the dataflow oracle introduced.
	MismatchVerifier MismatchKind = "verifier"
)

// Mismatch records one disagreement between the static oracle and a
// live VM run — by Definition 2's logic, evidence of a bug in either
// the oracle's reading of JVMS §4 or the VM simulation itself.
type Mismatch struct {
	// Spec names the VM preset.
	Spec string
	// Kind classifies the disagreement.
	Kind MismatchKind
	// Predicted is the oracle's definite claim.
	Predicted jvm.Outcome
	// Actual is the interpreter's observed outcome.
	Actual jvm.Outcome
	// Waived names the waiver covering this disagreement, "" if none.
	Waived string
}

// mismatchKind classifies a predicted/actual split.
func mismatchKind(pred, act jvm.Outcome) MismatchKind {
	if pred.Error == jvm.ErrVerify || act.Error == jvm.ErrVerify {
		return MismatchVerifier
	}
	return MismatchGeneral
}

// String renders the mismatch for sanitizer notes and test failures.
func (m Mismatch) String() string {
	s := fmt.Sprintf("%s: oracle predicted %s, VM observed %s", m.Spec, m.Predicted, m.Actual)
	if m.Kind == MismatchVerifier {
		s += " [verifier split]"
	}
	if m.Waived != "" {
		s += " (waived: " + m.Waived + ")"
	}
	return s
}

// Hard reports whether the mismatch is unwaived.
func (m Mismatch) Hard() bool { return m.Waived == "" }

// VerifierSplit reports whether this is a static-verdict-vs-VM-verifier
// disagreement.
func (m Mismatch) VerifierSplit() bool { return m.Kind == MismatchVerifier }

// Waiver documents a point where the oracle and the simulation are
// allowed to disagree, with the JVMS citation granting the latitude.
type Waiver struct {
	Name   string
	JVMS   string
	Reason string
	// Applies reports whether the waiver covers this disagreement.
	Applies func(spec jvm.Spec, predicted, actual jvm.Outcome) bool
}

// Waivers is the explicit list of tolerated oracle/VM disagreements.
// An empty list is the goal state: every mirror is exact. Entries must
// cite the JVMS passage that makes both behaviours conforming.
var Waivers = []Waiver{}

// agrees compares phase and error class; messages and output are
// informational.
func agrees(pred, act jvm.Outcome) bool {
	return pred.Phase == act.Phase && pred.Error == act.Error
}

func waiverFor(spec jvm.Spec, pred, act jvm.Outcome) string {
	for _, w := range Waivers {
		if w.Applies(spec, pred, act) {
			return w.Name
		}
	}
	return ""
}

// CrossCheck runs the oracle's definite predictions for f against live
// executions on each spec and returns every disagreement (waived ones
// included, marked). Indefinite predictions are vacuously consistent.
func CrossCheck(f *classfile.File, specs []jvm.Spec) []Mismatch {
	var out []Mismatch
	for _, spec := range specs {
		pred := StaticVerdict(f, spec)
		if !pred.Definite {
			continue
		}
		act := jvm.New(spec).RunFile(f)
		if agrees(pred.Outcome, act) {
			continue
		}
		out = append(out, Mismatch{
			Spec: spec.Name, Kind: mismatchKind(pred.Outcome, act),
			Predicted: pred.Outcome, Actual: act,
			Waived: waiverFor(spec, pred.Outcome, act),
		})
	}
	return out
}

// CheckVM compares one already-observed outcome against the oracle's
// prediction for the same file on the given VM (using the VM's own
// environment), for the differential runner's sanitizer where
// executions already happened. It returns nil when the prediction is
// indefinite or agrees.
func CheckVM(f *classfile.File, vm *jvm.VM, actual jvm.Outcome) *Mismatch {
	pred := StaticVerdictEnv(f, vm.Spec, vm.Env)
	if !pred.Definite || agrees(pred.Outcome, actual) {
		return nil
	}
	return &Mismatch{
		Spec: vm.Spec.Name, Kind: mismatchKind(pred.Outcome, actual),
		Predicted: pred.Outcome, Actual: actual,
		Waived: waiverFor(vm.Spec, pred.Outcome, actual),
	}
}
