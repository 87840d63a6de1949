package analysis

import "repro/internal/jvm"

// GateKind selects which jvm.Policy knob controls a diagnostic.
type GateKind int

// Gate kinds. Each value names the policy condition under which the
// five VM presets enforce the associated rule.
const (
	// GateAlways: every conforming VM enforces the rule.
	GateAlways GateKind = iota
	// GateNever: no simulated VM enforces the rule (advisory lint).
	GateNever
	// GateVersionMin fires when Gate.Major < jvm.MinMajorVersion.
	GateVersionMin
	// GateVersionMax fires when Gate.Major > Policy.MaxMajorVersion and
	// the VM does not tolerate newer versions.
	GateVersionMax
	// GateStrictPool requires Policy.StrictConstantPool.
	GateStrictPool
	// GateStrictPoolNames requires StrictConstantPool and
	// CheckNameValidity (the Class-entry array-name check).
	GateStrictPoolNames
	// GateNameValidity requires Policy.CheckNameValidity.
	GateNameValidity
	// GateClassFlags requires Policy.CheckClassFlags.
	GateClassFlags
	// GateInterfaceSuperObject requires Policy.CheckInterfaceSuperObject.
	GateInterfaceSuperObject
	// GateDuplicateFields requires Policy.CheckDuplicateFields.
	GateDuplicateFields
	// GateMemberFlags requires Policy.CheckMemberFlags.
	GateMemberFlags
	// GateInterfaceMemberRules requires Policy.CheckInterfaceMemberRules.
	GateInterfaceMemberRules
	// GateInitSignature requires Policy.CheckInitSignature.
	GateInitSignature
	// GateCodePresence requires Policy.CheckCodePresence.
	GateCodePresence
	// GateClinitInitializerCode fires when the policy classifies the
	// flagged <clinit> (whose static-()V shape is in Gate.StaticV) as
	// the class initializer, which must then carry a Code attribute.
	GateClinitInitializerCode
	// GateJsrRet fires when Policy.ForbidJsrRet and Gate.Major >= 51.
	GateJsrRet
	// GateVerify fires when the verifier dialect named by Gate.Dialect
	// is enabled and the preset actually verifies the method: eager
	// verifiers check every method, lazy ones only the entry methods
	// marked by Gate.Entry.
	GateVerify
	// GateTypeChecking fires when Policy.VerifyTypeChecking applies to
	// the classfile version (Gate.Major >= 50) and the preset verifies
	// the method (as for GateVerify).
	GateTypeChecking
)

// VerifyDialect names, for GateVerify, the verifier-dialect knob whose
// check produced the diagnostic.
type VerifyDialect int

// Verifier dialects.
const (
	// DialectInference: the base §4.10.2 dataflow rules every verifier
	// dialect enforces.
	DialectInference VerifyDialect = iota
	// DialectUninitMerge requires Policy.VerifyUninitMerge (GIJ).
	DialectUninitMerge
	// DialectRefAssign requires Policy.VerifyRefAssignability (GIJ).
	DialectRefAssign
	// DialectStrictShape requires Policy.VerifyStrictStackShape (J9).
	DialectStrictShape
)

// ClinitCond optionally restricts a gate to policies that classify a
// method named <clinit> a particular way (Problem 1: the SE 9
// clarification versus J9's always-initializer versus GIJ's ignore).
type ClinitCond int

// Clinit conditions.
const (
	// ClinitAny: the gate does not depend on <clinit> classification.
	ClinitAny ClinitCond = iota
	// ClinitAsOrdinary: the gate applies only when the policy treats the
	// flagged <clinit> as an ordinary method (initializers are exempt
	// from the ordinary-method format rules).
	ClinitAsOrdinary
)

// Gate maps a diagnostic onto the policy condition enforcing it.
type Gate struct {
	Kind GateKind
	// Major carries the classfile major version for version-sensitive
	// gates (GateVersionMin/GateVersionMax/GateJsrRet).
	Major uint16
	// StaticV records, for <clinit>-sensitive gates, whether the method
	// is static with descriptor ()V.
	StaticV bool
	// Clinit optionally restricts the gate by <clinit> classification.
	Clinit ClinitCond
	// Dialect selects, for GateVerify, the dialect knob enforcing the
	// diagnostic.
	Dialect VerifyDialect
	// Entry marks verification diagnostics on methods that lazy
	// verifiers still reach during startup (main or the class
	// initializer); eager verifiers check every method body.
	Entry bool
}

// clinitInitializer reports whether p classifies a <clinit> of the
// given static-()V shape as the class initializer.
func clinitInitializer(p *jvm.Policy, staticV bool) bool {
	switch p.ClinitRule {
	case jvm.ClinitAlwaysInitializer:
		return true
	case jvm.ClinitOrdinaryIfNonStatic:
		return staticV
	}
	return false
}

// Enabled reports whether a VM running policy p enforces the gated
// rule.
func (g Gate) Enabled(p *jvm.Policy) bool {
	if g.Clinit == ClinitAsOrdinary && clinitInitializer(p, g.StaticV) {
		return false
	}
	switch g.Kind {
	case GateAlways:
		return true
	case GateNever:
		return false
	case GateVersionMin:
		return g.Major < jvm.MinMajorVersion
	case GateVersionMax:
		return g.Major > p.MaxMajorVersion && !p.AcceptNewerVersions
	case GateStrictPool:
		return p.StrictConstantPool
	case GateStrictPoolNames:
		return p.StrictConstantPool && p.CheckNameValidity
	case GateNameValidity:
		return p.CheckNameValidity
	case GateClassFlags:
		return p.CheckClassFlags
	case GateInterfaceSuperObject:
		return p.CheckInterfaceSuperObject
	case GateDuplicateFields:
		return p.CheckDuplicateFields
	case GateMemberFlags:
		return p.CheckMemberFlags
	case GateInterfaceMemberRules:
		return p.CheckInterfaceMemberRules
	case GateInitSignature:
		return p.CheckInitSignature
	case GateCodePresence:
		return p.CheckCodePresence
	case GateClinitInitializerCode:
		return clinitInitializer(p, g.StaticV)
	case GateJsrRet:
		return p.ForbidJsrRet && g.Major >= 51
	case GateVerify:
		if !g.dialectEnabled(p) {
			return false
		}
		return p.EagerVerify || g.Entry
	case GateTypeChecking:
		return p.VerifyTypeChecking && g.Major >= 50 && (p.EagerVerify || g.Entry)
	}
	return false
}

// dialectEnabled reports whether p runs the verifier dialect a
// GateVerify diagnostic depends on.
func (g Gate) dialectEnabled(p *jvm.Policy) bool {
	switch g.Dialect {
	case DialectInference:
		return true
	case DialectUninitMerge:
		return p.VerifyUninitMerge
	case DialectRefAssign:
		return p.VerifyRefAssignability
	case DialectStrictShape:
		return p.VerifyStrictStackShape
	}
	return false
}
