package analysis

import (
	"fmt"

	"repro/internal/classfile"
	"repro/internal/jvm"
)

// StructureAnalyzer covers the cross-member structural rules: duplicate
// field/method signatures, the interface member-flag requirements, and
// the interface-superclass-is-Object rule (JVMS §4.1, §4.5, §4.6).
var StructureAnalyzer = &Analyzer{
	Name: "structure",
	Doc:  "duplicate members and interface structural rules (JVMS §4.1, §4.5, §4.6)",
	Run:  runStructure,
}

func runStructure(p *Pass) {
	f := p.File
	cp := f.Pool

	if f.IsInterface() {
		if super := f.SuperName(); super != "java/lang/Object" {
			p.report(Diagnostic{
				Rule: "interface-super", Severity: SevError,
				Phase: jvm.PhaseLoading, Err: jvm.ErrClassFormat, JVMS: "§4.1",
				Message: fmt.Sprintf("interface %s has superclass %s (must be java/lang/Object)", f.Name(), super),
				Gate:    Gate{Kind: GateInterfaceSuperObject}, Seq: seqOf(stageIfaceSuper, 0, 0),
			})
		}
	}

	seenFields := make(map[string]bool, len(f.Fields))
	for i, fl := range f.Fields {
		fname := fl.Name(cp)
		fdesc := fl.Descriptor(cp)
		if fname == "" || fdesc == "" {
			continue // dangling members are rejected unconditionally upstream
		}
		key := fname + ":" + fdesc
		if seenFields[key] {
			p.report(Diagnostic{
				Rule: "duplicate-field", Severity: SevError,
				Phase: jvm.PhaseLoading, Err: jvm.ErrClassFormat, JVMS: "§4.5",
				Message: fmt.Sprintf("duplicate field %s", key),
				Method:  fname,
				Gate:    Gate{Kind: GateDuplicateFields}, Seq: seqOf(stageFields, i, subMemberDup),
			})
		}
		seenFields[key] = true
		if f.IsInterface() {
			want := classfile.AccPublic | classfile.AccStatic | classfile.AccFinal
			if !fl.AccessFlags.Has(want) {
				p.report(Diagnostic{
					Rule: "interface-field-flags", Severity: SevError,
					Phase: jvm.PhaseLoading, Err: jvm.ErrClassFormat, JVMS: "§4.5",
					Message: fmt.Sprintf("interface field %s must be public static final", fname),
					Method:  fname,
					Gate:    Gate{Kind: GateInterfaceMemberRules}, Seq: seqOf(stageFields, i, subFieldIfaceRules),
				})
			}
		}
	}

	seenMethods := make(map[string]bool, len(f.Methods))
	for i, m := range f.Methods {
		mname := m.Name(cp)
		mdesc := m.Descriptor(cp)
		if mname == "" || mdesc == "" {
			continue
		}
		key := mname + mdesc
		if seenMethods[key] {
			p.report(Diagnostic{
				Rule: "duplicate-method", Severity: SevError,
				Phase: jvm.PhaseLoading, Err: jvm.ErrClassFormat, JVMS: "§4.6",
				Message: fmt.Sprintf("duplicate method %s", key),
				Method:  key,
				Gate:    Gate{Kind: GateAlways}, Seq: seqOf(stageMethods, i, subMemberDup),
			})
		}
		seenMethods[key] = true
		// <clinit> is outside the interface member rules regardless of how
		// the policy classifies it (the loader excludes it by name).
		if f.IsInterface() && mname != "<clinit>" {
			want := classfile.AccPublic | classfile.AccAbstract
			if !m.AccessFlags.Has(want) {
				p.report(Diagnostic{
					Rule: "interface-method-flags", Severity: SevError,
					Phase: jvm.PhaseLoading, Err: jvm.ErrClassFormat, JVMS: "§4.6",
					Message: fmt.Sprintf("interface method %s must be public abstract", mname),
					Method:  key,
					Gate:    Gate{Kind: GateInterfaceMemberRules}, Seq: seqOf(stageMethods, i, subMethodIfaceRules),
				})
			}
		}
	}
}
