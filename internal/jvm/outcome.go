// Package jvm simulates JVM startup — the load → link → initialize →
// invoke pipeline of Table 1 in the paper — for five differently
// configured virtual machines modelled on HotSpot for Java 7/8/9, IBM
// J9 and GNU GIJ. Each VM applies the same pipeline code under a
// different Policy, so the behavioural discrepancies between them stem
// from exactly the checking-policy differences the paper documents.
//
// The reference VM (HotSpot 9 with a coverage.Recorder attached) emits
// statement and branch probes at every check site, standing in for
// GCOV/LCOV instrumentation over hotspot/src/share/vm/classfile/.
package jvm

import "fmt"

// Phase is the startup phase in which a classfile's run terminated,
// encoded 0–4 exactly as in §2.3 / Figure 3 of the paper.
type Phase int

// Startup phases.
const (
	PhaseInvoked Phase = 0 // main ran normally
	PhaseLoading Phase = 1 // rejected during creation/loading
	PhaseLinking Phase = 2 // rejected during linking (verification/resolution)
	PhaseInit    Phase = 3 // rejected during initialization
	PhaseRuntime Phase = 4 // rejected at runtime (including "main not found")
)

// PhaseCount is the number of phase codes (0–4).
const PhaseCount = 5

// phaseNames is the single source of the phase vocabulary shared by
// jvm, analysis, difftest and triage; nothing should hand-roll these
// strings.
var phaseNames = [PhaseCount]string{
	PhaseInvoked: "invoked",
	PhaseLoading: "loading",
	PhaseLinking: "linking",
	PhaseInit:    "initialization",
	PhaseRuntime: "runtime",
}

// String names the phase.
func (p Phase) String() string {
	if p >= 0 && int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Valid reports whether p is one of the five defined phase codes.
func (p Phase) Valid() bool { return p >= 0 && int(p) < PhaseCount }

// AllPhases returns the five phases in pipeline order.
func AllPhases() []Phase {
	return []Phase{PhaseInvoked, PhaseLoading, PhaseLinking, PhaseInit, PhaseRuntime}
}

// JVM error and exception class names thrown by the pipeline.
const (
	ErrClassFormat            = "java.lang.ClassFormatError"
	ErrUnsupportedVersion     = "java.lang.UnsupportedClassVersionError"
	ErrNoClassDef             = "java.lang.NoClassDefFoundError"
	ErrClassCircularity       = "java.lang.ClassCircularityError"
	ErrVerify                 = "java.lang.VerifyError"
	ErrIncompatibleChange     = "java.lang.IncompatibleClassChangeError"
	ErrIllegalAccess          = "java.lang.IllegalAccessError"
	ErrNoSuchField            = "java.lang.NoSuchFieldError"
	ErrNoSuchMethod           = "java.lang.NoSuchMethodError"
	ErrAbstractMethod         = "java.lang.AbstractMethodError"
	ErrInstantiation          = "java.lang.InstantiationError"
	ErrUnsatisfiedLink        = "java.lang.UnsatisfiedLinkError"
	ErrExceptionInInitializer = "java.lang.ExceptionInInitializerError"
	ErrInternal               = "java.lang.InternalError"
	ErrMainNotFound           = "Error: Main method not found"
	ExcNullPointer            = "java.lang.NullPointerException"
	ExcArithmetic             = "java.lang.ArithmeticException"
	ExcClassCast              = "java.lang.ClassCastException"
	ExcArrayIndex             = "java.lang.ArrayIndexOutOfBoundsException"
	ExcNegativeArraySize      = "java.lang.NegativeArraySizeException"
	ErrStackOverflow          = "java.lang.StackOverflowError"
	ErrTimeout                = "Error: execution budget exhausted"
)

// Outcome is the observable result r of one JVM execution
// r = jvm(e, c, i): either a normal invocation with captured output,
// or a rejection in a specific phase with an error class and message.
type Outcome struct {
	Phase   Phase
	Error   string // "" when Phase == PhaseInvoked
	Message string
	Output  []string // lines printed by the class when invoked
}

// Code returns the 0–4 encoding used in discrepancy vectors (Figure 3).
func (o Outcome) Code() int { return int(o.Phase) }

// OK reports whether the class was invoked normally.
func (o Outcome) OK() bool { return o.Phase == PhaseInvoked }

// String renders the outcome for logs and test failures.
func (o Outcome) String() string {
	if o.OK() {
		return "invoked normally"
	}
	if o.Message != "" {
		return fmt.Sprintf("rejected during %s: %s: %s", o.Phase, o.Error, o.Message)
	}
	return fmt.Sprintf("rejected during %s: %s", o.Phase, o.Error)
}

// reject builds a rejection outcome.
func reject(phase Phase, errName, format string, args ...any) Outcome {
	return Outcome{Phase: phase, Error: errName, Message: fmt.Sprintf(format, args...)}
}
