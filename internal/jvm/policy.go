package jvm

import "repro/internal/rtlib"

// Limits every simulated VM applies alike.
const (
	// MinMajorVersion guards against pre-1.0 files.
	MinMajorVersion = 45
	// StepBudget bounds interpreted bytecode steps per run.
	StepBudget = 100000
	// HeapBudget bounds what one run allocates: array elements (32 MiB
	// of slots) and the bytes of the strings String.concat and
	// StringBuilder.append build, one unit each. An allocation past it
	// throws OutOfMemoryError.
	HeapBudget = 1 << 20
)

// Policy is the set of checking-and-verification knobs that
// differentiate the five VM simulators. Every knob corresponds to a
// behavioural difference documented in the paper (§1 preliminary study,
// §3.3 Problems 1–4) or in the JVM specification's latitude for
// implementations (lazy vs eager verification, §4.10 note).
type Policy struct {
	// --- versions -----------------------------------------------------

	// MaxMajorVersion is the newest classfile version the VM accepts.
	MaxMajorVersion uint16
	// AcceptNewerVersions makes the VM process classfiles beyond its
	// nominal platform version (GIJ conforms to 1.5 yet runs version-51
	// classes — Problem 4).
	AcceptNewerVersions bool

	// --- loading / format checking ------------------------------------

	// StrictConstantPool validates every cross-reference inside the
	// constant pool at load time.
	StrictConstantPool bool
	// ClinitExactness selects how a method named <clinit> is
	// classified (Problem 1). See ClinitRule values.
	ClinitRule ClinitRule
	// CheckInitSignature rejects <init> methods that are static, final,
	// synchronized, native or abstract, or that return a value
	// (HotSpot and J9 do; GIJ does not — Problem 4).
	CheckInitSignature bool
	// CheckMemberFlags enforces the access-flag well-formedness rules of
	// JVMS §4.5/§4.6 (at most one visibility, abstract excludes
	// final/native/..., volatile excludes final).
	CheckMemberFlags bool
	// CheckCodePresence rejects concrete methods without Code and
	// abstract/native methods with Code.
	CheckCodePresence bool
	// CheckDuplicateFields rejects two fields with the same
	// name+descriptor (GIJ accepts them — Problem 4).
	CheckDuplicateFields bool
	// CheckInterfaceMemberRules enforces that interface methods are
	// public abstract and interface fields are public static final
	// (all VMs but GIJ — Problem 4).
	CheckInterfaceMemberRules bool
	// CheckInterfaceSuperObject rejects interfaces whose superclass is
	// not java/lang/Object (all VMs but GIJ — Problem 4).
	CheckInterfaceSuperObject bool
	// CheckClassFlags enforces class-level flag rules (final∧abstract,
	// interface without abstract, annotation without interface).
	CheckClassFlags bool
	// CheckNameValidity rejects malformed binary names for the class,
	// members and descriptors at load time.
	CheckNameValidity bool

	// --- linking -------------------------------------------------------

	// CheckSuperNotFinal throws VerifyError when extending a final class
	// (the EnumEditor case in §1).
	CheckSuperNotFinal bool
	// EagerResolution resolves every symbolic field/method reference of
	// the constant pool during linking; lazily-resolving VMs defer
	// failures to runtime (GIJ).
	EagerResolution bool
	// CheckResolvedAccess rejects resolution of classes the environment
	// marks inaccessible (module-encapsulated sun.* under Java 9).
	CheckResolvedAccess bool
	// CheckThrowsClause resolves Exceptions-attribute entries at link
	// time and requires them accessible (HotSpot reports
	// IllegalAccessError for PiscesRenderingEngine$2 — Problem 3).
	CheckThrowsClause bool
	// EagerVerify verifies every method at linking (HotSpot). When
	// false, methods are verified on first invocation (J9, GIJ) —
	// Problem 2's "J9 only verifies a method when it is invoked".
	EagerVerify bool

	// --- verifier dialect ----------------------------------------------

	// VerifyUninitMerge rejects merges of initialized and uninitialized
	// types (GIJ reports this; HotSpot does not — Problem 2).
	VerifyUninitMerge bool
	// VerifyRefAssignability performs declared-type assignability checks
	// on invocation arguments and field stores (GIJ's strict dialect;
	// HotSpot misses such incompatible casts — Problem 2).
	VerifyRefAssignability bool
	// VerifyStrictStackShape requires reference types to match exactly
	// at control-flow merge points instead of widening to a common
	// supertype (J9's "stack shape inconsistent" — §1).
	VerifyStrictStackShape bool
	// VerifyTypeChecking selects the type-checking verifier of JVMS
	// §4.10.1 for version ≥ 50 classfiles: the StackMapTable attribute
	// drives verification, so an undecodable table is a ClassFormatError
	// reject rather than an ignorable hint (HotSpot and J9; GIJ predates
	// stack maps and always runs the inference verifier).
	VerifyTypeChecking bool
	// ForbidJsrRet rejects jsr/ret in version ≥ 51 classfiles.
	ForbidJsrRet bool

	// --- initialization / invocation ------------------------------------

	// InitStrictAccess re-checks accessibility of classes referenced by
	// <clinit> during initialization (HotSpot 9's module boundary makes
	// extra rejections surface here — Table 7's initialization row).
	InitStrictAccess bool
	// RequireStaticMain demands public static main; lenient VMs invoke
	// whatever main they find.
	RequireStaticMain bool
	// AllowInterfaceMain lets an interface's main method run (GIJ —
	// Problem 4).
	AllowInterfaceMain bool
}

// ClinitRule is the classification rule for methods named <clinit>
// (Problem 1 and the SE 8/9 specification clarification).
type ClinitRule int

const (
	// ClinitOrdinaryIfNonStatic follows the clarified SE 9 rule: in
	// version ≥ 51 files a non-static <clinit> is an ordinary method of
	// no consequence (HotSpot's behaviour).
	ClinitOrdinaryIfNonStatic ClinitRule = iota
	// ClinitAlwaysInitializer treats any method named <clinit> as the
	// class initializer and therefore demands a Code attribute — J9's
	// behaviour, reported by the paper as a J9 bug ("no Code attribute
	// specified ... method=<clinit>()V").
	ClinitAlwaysInitializer
	// ClinitIgnored performs no <clinit>-specific format checks (GIJ).
	ClinitIgnored
)

// Spec describes one simulated JVM implementation: its identity, the
// runtime library release it ships with, and its checking policy.
type Spec struct {
	Name    string
	Release rtlib.Release
	Policy  Policy
}

// hotspotBase is the shared HotSpot policy; release presets adjust it.
func hotspotBase() Policy {
	return Policy{
		MaxMajorVersion:           52,
		StrictConstantPool:        true,
		ClinitRule:                ClinitOrdinaryIfNonStatic,
		CheckInitSignature:        true,
		CheckMemberFlags:          true,
		CheckCodePresence:         true,
		CheckDuplicateFields:      true,
		CheckInterfaceMemberRules: true,
		CheckInterfaceSuperObject: true,
		CheckClassFlags:           true,
		CheckNameValidity:         true,
		CheckSuperNotFinal:        true,
		EagerResolution:           true,
		CheckResolvedAccess:       false,
		CheckThrowsClause:         true,
		EagerVerify:               true,
		VerifyUninitMerge:         false,
		VerifyRefAssignability:    false,
		VerifyStrictStackShape:    false,
		VerifyTypeChecking:        true,
		ForbidJsrRet:              true,
		InitStrictAccess:          false,
		RequireStaticMain:         true,
		AllowInterfaceMain:        false,
	}
}

// HotSpot7 returns the simulator spec for HotSpot for Java 7.
func HotSpot7() Spec {
	p := hotspotBase()
	p.MaxMajorVersion = 51
	return Spec{Name: "HotSpot-Java7", Release: rtlib.JRE7, Policy: p}
}

// HotSpot8 returns the simulator spec for HotSpot for Java 8.
func HotSpot8() Spec {
	p := hotspotBase()
	p.MaxMajorVersion = 52
	return Spec{Name: "HotSpot-Java8", Release: rtlib.JRE8, Policy: p}
}

// HotSpot9 returns the simulator spec for HotSpot for Java 9 — the
// reference implementation used for coverage collection.
func HotSpot9() Spec {
	p := hotspotBase()
	p.MaxMajorVersion = 53
	p.CheckResolvedAccess = true // module encapsulation
	p.InitStrictAccess = true    // extra initialization-phase rejections
	return Spec{Name: "HotSpot-Java9", Release: rtlib.JRE9, Policy: p}
}

// J9 returns the simulator spec for IBM J9 (SDK 8).
func J9() Spec {
	p := hotspotBase()
	p.MaxMajorVersion = 52
	p.ClinitRule = ClinitAlwaysInitializer // Problem 1: J9's format error
	p.EagerVerify = false                  // verifies methods on invocation
	p.VerifyStrictStackShape = true        // "stack shape inconsistent"
	p.CheckThrowsClause = false            // Problem 3: no throws access check
	return Spec{Name: "J9-SDK8", Release: rtlib.JRE8, Policy: p}
}

// GIJ returns the simulator spec for GNU GIJ 5.1.0, the most lenient of
// the five VMs (Problem 4).
func GIJ() Spec {
	return Spec{Name: "GIJ-5.1.0", Release: rtlib.Classpath, Policy: Policy{
		MaxMajorVersion:           49,   // nominally Java 1.5
		AcceptNewerVersions:       true, // yet it processes version 51 files
		StrictConstantPool:        false,
		ClinitRule:                ClinitIgnored,
		CheckInitSignature:        false, // accepts abstract/returning <init>
		CheckMemberFlags:          false,
		CheckCodePresence:         false, // a body is only needed when a method is invoked
		CheckDuplicateFields:      false, // accepts duplicate fields
		CheckInterfaceMemberRules: false, // interface main, non-public members
		CheckInterfaceSuperObject: false, // interface extending Exception loads
		CheckClassFlags:           false,
		CheckNameValidity:         false,
		CheckSuperNotFinal:        false,
		EagerResolution:           false, // lazy: failures surface at runtime
		CheckResolvedAccess:       false,
		CheckThrowsClause:         false,
		EagerVerify:               false,
		VerifyUninitMerge:         true, // the one check GIJ has and HotSpot lacks
		VerifyRefAssignability:    true, // catches the internalTransform cast
		VerifyStrictStackShape:    false,
		VerifyTypeChecking:        false, // pre-stack-map verifier only
		ForbidJsrRet:              false,
		InitStrictAccess:          false,
		RequireStaticMain:         false,
		AllowInterfaceMain:        true,
	}}
}

// StandardFive returns the five specs of Table 3 in evaluation order:
// HotSpot 7, HotSpot 8, HotSpot 9, J9, GIJ.
func StandardFive() []Spec {
	return []Spec{HotSpot7(), HotSpot8(), HotSpot9(), J9(), GIJ()}
}
