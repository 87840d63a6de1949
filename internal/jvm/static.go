package jvm

import (
	"repro/internal/classfile"
	"repro/internal/rtlib"
)

// VerifyMethodStatic runs spec's runtime dataflow verifier over one
// method of f without executing anything. The static oracle now has its
// own independent implementation (internal/analysis/dataflow); this
// entry point remains as the VM-side reference that the differential
// fuzz harness compares the independent analysis against — two
// implementations of the §4.10 rules checking each other, in the same
// spirit as the five-VM lineup. No recorder is attached, so coverage
// probes are no-ops and the call cannot perturb a fuzzing campaign.
// The result is nil when the method verifies, or the linking-phase
// rejection (callers re-phase it for lazy verification points).
func VerifyMethodStatic(spec Spec, env *rtlib.Env, f *classfile.File, m *classfile.Member) *Outcome {
	vm := NewWithEnv(spec, env)
	return vm.verifyMethod(vm.execFor(f), m)
}
