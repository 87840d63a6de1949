package jvm

import (
	"repro/internal/classfile"
	"repro/internal/rtlib"
)

// execState is the per-run mutable state: the class under test, its
// static fields, captured output and the interpreter budget. A VM keeps
// one and resets it per run (VM.execFor), so its maps are cleared, not
// reallocated; nothing a run returns points into them.
type execState struct {
	vm      *VM
	f       *classfile.File
	name    string
	statics map[staticKey]value
	output  []string
	steps   int
	depth   int
	// verified memoises per-method lazy verification results keyed by
	// name and descriptor.
	verified map[memberKey]*Outcome
	// vkey lazily caches the class's verification-key context for the
	// cross-run memo (built on the first verifyMethod call).
	vkey *VerifyKeyCtx
}

// memberKey identifies a member of the class under test by name and
// descriptor. Keying on the parts rather than their concatenation keeps
// m(I)V and "m(" + "I)V" apart.
type memberKey struct{ name, desc string }

// staticKey identifies a static field by owner, name and descriptor.
type staticKey struct{ cls, name, desc string }

// reset readies ex for a run of f on vm. Output starts nil, so the
// slice a run's Outcome carries is never appended to again.
func (ex *execState) reset(vm *VM, f *classfile.File) {
	statics, verified := ex.statics, ex.verified
	if statics == nil {
		statics = make(map[staticKey]value)
		verified = make(map[memberKey]*Outcome)
	} else {
		clear(statics)
		clear(verified)
	}
	*ex = execState{vm: vm, f: f, name: f.Name(), statics: statics, verified: verified}
}

// classKind says where a resolved class lives.
type classKind int

const (
	kindSelf classKind = iota
	kindPlatform
	kindMissing
)

// resolveClass locates a class by internal name: the class under test
// itself, a platform class, or missing.
func (ex *execState) resolveClass(name string) (classKind, *rtlib.ClassInfo) {
	if name == ex.name {
		return kindSelf, nil
	}
	if ci, ok := ex.vm.Env.Lookup(name); ok {
		return kindPlatform, ci
	}
	return kindMissing, nil
}

// link performs the linking phase: hierarchy well-formedness,
// (optionally) eager resolution of every symbolic reference, the
// throws-clause accessibility check, and (optionally) eager
// verification of every method body. Errors here use the linking-phase
// error classes of Table 1.
func (vm *VM) link(ex *execState) (Outcome, bool) {
	p := &vm.Spec.Policy
	f := ex.f
	vm.st(pLinkEnter)

	// ---- superclass hierarchy -------------------------------------------
	super := f.SuperName()
	if super != "" {
		if vm.br(bLinkSuperSelf, super == ex.name) {
			return reject(PhaseLoading, ErrClassCircularity, "class %s is its own superclass", ex.name), true
		}
		kind, ci := ex.resolveClass(super)
		if vm.br(bLinkSuperMissing, kind == kindMissing) {
			// Superclass resolution failure surfaces while creating the
			// class, i.e. in the loading phase (Table 1).
			return reject(PhaseLoading, ErrNoClassDef, "superclass %s", super), true
		}
		if kind == kindPlatform {
			if vm.br(bLinkSuperInterface, ci.Interface && !f.IsInterface()) {
				return reject(PhaseLinking, ErrIncompatibleChange, "class %s has interface %s as superclass", ex.name, super), true
			}
			if f.IsInterface() && p.CheckInterfaceSuperObject {
				// Already rejected at load when the name wasn't Object; the
				// branch here covers Object-with-different-resolution cases.
				vm.st(pLinkSuperIfaceobject)
			}
			if p.CheckSuperNotFinal && vm.br(bLinkSuperFinal, ci.Final) {
				return reject(PhaseLinking, ErrVerify, "class %s cannot subclass final class %s", ex.name, super), true
			}
			if p.CheckResolvedAccess && vm.br(bLinkSuperAccess, !ci.Accessible) {
				return reject(PhaseLinking, ErrIllegalAccess, "superclass %s is not accessible", super), true
			}
		}
	}

	// ---- implemented interfaces -------------------------------------------
	for _, idx := range f.Interfaces {
		iname, _ := f.Pool.ClassName(idx)
		vm.st(pLinkIfaceEntry)
		if vm.br(bLinkIfaceSelf, iname == ex.name) {
			return reject(PhaseLoading, ErrClassCircularity, "class %s implements itself", ex.name), true
		}
		kind, ci := ex.resolveClass(iname)
		if kind == kindMissing {
			if vm.br(bLinkIfaceMissing, p.EagerResolution) {
				return reject(PhaseLoading, ErrNoClassDef, "interface %s", iname), true
			}
			continue
		}
		if kind == kindPlatform {
			// Lazily-resolving VMs only discover a class in the interface
			// table when a method is actually looked up through it, which
			// the startup pipeline never does for unused interfaces.
			if p.EagerResolution && vm.br(bLinkIfaceNotinterface, !ci.Interface) {
				return reject(PhaseLinking, ErrIncompatibleChange, "class %s implements non-interface %s", ex.name, iname), true
			}
			if p.CheckResolvedAccess && vm.br(bLinkIfaceAccess, !ci.Accessible) {
				return reject(PhaseLinking, ErrIllegalAccess, "interface %s is not accessible", iname), true
			}
		}
	}

	// ---- throws clauses (Problem 3) -----------------------------------------
	if p.CheckThrowsClause {
		for _, m := range f.Methods {
			exAttr := m.Exceptions()
			if exAttr == nil {
				continue
			}
			for _, cidx := range exAttr.Classes {
				vm.st(pLinkThrowsEntry)
				tname, ok := f.Pool.ClassName(cidx)
				if vm.br(bLinkThrowsCp, !ok) {
					return reject(PhaseLinking, ErrClassFormat, "method %s throws entry #%d is not a class", m.Name(f.Pool), cidx), true
				}
				kind, ci := ex.resolveClass(tname)
				if vm.br(bLinkThrowsMissing, kind == kindMissing) {
					return reject(PhaseLinking, ErrNoClassDef, "%s (declared thrown by %s)", tname, m.Name(f.Pool)), true
				}
				if kind == kindPlatform && vm.br(bLinkThrowsAccess, !ci.Accessible) {
					// HotSpot's IllegalAccessError for
					// sun.java2d.pisces.PiscesRenderingEngine$2.
					return reject(PhaseLinking, ErrIllegalAccess, "class %s (declared thrown by %s) is not accessible", tname, m.Name(f.Pool)), true
				}
			}
		}
	}

	// ---- eager symbolic resolution ---------------------------------------------
	if p.EagerResolution {
		if out, bad := vm.resolveAllRefs(ex); bad {
			return out, true
		}
	}

	// ---- eager verification --------------------------------------------------
	if p.EagerVerify {
		for _, m := range f.Methods {
			if m.Code() == nil {
				continue
			}
			if out := vm.verifyMethod(ex, m); out != nil {
				return *out, true
			}
		}
	}

	vm.st(pLinkOk)
	return Outcome{}, false
}

// resolveAllRefs walks every Fieldref/Methodref/InterfaceMethodref in
// the pool and resolves it against the class itself or the platform
// library, reproducing the eager resolution failures (NoClassDefFound,
// NoSuchField/Method, IllegalAccess) at the linking phase.
func (vm *VM) resolveAllRefs(ex *execState) (Outcome, bool) {
	p := &vm.Spec.Policy
	f := ex.f
	vm.st(pLinkResolveEnter)
	for i := 1; i < f.Pool.Count(); i++ {
		c := f.Pool.Get(uint16(i))
		if c == nil {
			continue
		}
		var isField bool
		switch c.Tag {
		case classfile.TagFieldref:
			isField = true
		case classfile.TagMethodref, classfile.TagInterfaceMethodref:
			isField = false
		default:
			continue
		}
		cls, name, desc, ok := f.Pool.MemberRef(uint16(i))
		if vm.br(bLinkResolveShape, !ok) {
			return reject(PhaseLinking, ErrClassFormat, "member reference #%d is malformed", i), true
		}
		vm.st(pLinkResolveEntry)
		kind, ci := ex.resolveClass(cls)
		if vm.br(bLinkResolveClassmissing, kind == kindMissing) {
			return reject(PhaseLinking, ErrNoClassDef, "%s", cls), true
		}
		if kind == kindPlatform && p.CheckResolvedAccess && vm.br(bLinkResolveAccess, !ci.Accessible) {
			return reject(PhaseLinking, ErrIllegalAccess, "class %s is not accessible", cls), true
		}
		if isField {
			if vm.br(bLinkResolveFieldfound, !ex.fieldExists(cls, name, desc)) {
				return reject(PhaseLinking, ErrNoSuchField, "%s.%s:%s", cls, name, desc), true
			}
		} else {
			if vm.br(bLinkResolveMethodfound, !ex.methodExists(cls, name, desc)) {
				return reject(PhaseLinking, ErrNoSuchMethod, "%s.%s%s", cls, name, desc), true
			}
		}
	}
	vm.st(pLinkResolveOk)
	return Outcome{}, false
}

// fieldExists resolves a field against the class itself (including its
// platform superclass chain) or a platform class hierarchy.
func (ex *execState) fieldExists(cls, name, desc string) bool {
	if cls == ex.name {
		for _, fl := range ex.f.Fields {
			if fl.Name(ex.f.Pool) == name && fl.Descriptor(ex.f.Pool) == desc {
				return true
			}
		}
		return ex.platformFieldExists(ex.f.SuperName(), name, desc)
	}
	return ex.platformFieldExists(cls, name, desc)
}

func (ex *execState) platformFieldExists(cls, name, desc string) bool {
	for cur := cls; cur != ""; {
		ci, ok := ex.vm.Env.Lookup(cur)
		if !ok {
			return false
		}
		if ci.HasField(name, desc) {
			return true
		}
		cur = ci.Super
	}
	return false
}

// methodExists resolves a method like fieldExists does, also searching
// superinterfaces of platform classes.
func (ex *execState) methodExists(cls, name, desc string) bool {
	if cls == ex.name {
		for _, m := range ex.f.Methods {
			if m.Name(ex.f.Pool) == name && m.Descriptor(ex.f.Pool) == desc {
				return true
			}
		}
		return ex.platformMethodExists(ex.f.SuperName(), name, desc)
	}
	return ex.platformMethodExists(cls, name, desc)
}

func (ex *execState) platformMethodExists(cls, name, desc string) bool {
	seen := map[string]bool{}
	var walk func(n string) bool
	walk = func(n string) bool {
		if n == "" || seen[n] {
			return false
		}
		seen[n] = true
		ci, ok := ex.vm.Env.Lookup(n)
		if !ok {
			return false
		}
		if ci.HasMethod(name, desc) {
			return true
		}
		for _, i := range ci.Interfaces {
			if walk(i) {
				return true
			}
		}
		return walk(ci.Super)
	}
	return walk(cls)
}

// VerifyMethod runs the VM's JVMS §4.10 verifier over one method of f
// without loading, linking or executing anything. It returns nil when
// the method verifies, or the linking-phase rejection (callers re-phase
// it for lazy verification points). Consecutive calls for the same f
// share one exec state, so a VM built per class verdict keys and
// decodes that class once; f must therefore not change in place (a
// reused jimple.LowerCtx refills the same File) between such calls.
// With no recorder attached no probe fires, so a static verdict cannot
// perturb a campaign's coverage; an attached VerifyMemo serves and
// stores the verdicts.
func (vm *VM) VerifyMethod(f *classfile.File, m *classfile.Member) *Outcome {
	ex := &vm.ex
	if ex.f != f {
		ex = vm.execFor(f)
	}
	return vm.verifyMethodMemo(ex, m)
}

// verifyMethod runs the dataflow verifier over one method, memoising
// the result for lazy-verification VMs. It returns nil when the method
// verifies, or the rejection outcome (linking phase; lazy callers
// re-phase it). With a VerifyMemo attached the verdict is additionally
// shared across runs at method granularity (verifyMethodMemo).
func (vm *VM) verifyMethod(ex *execState, m *classfile.Member) *Outcome {
	key := memberKey{m.Name(ex.f.Pool), m.Descriptor(ex.f.Pool)}
	if out, ok := ex.verified[key]; ok {
		return out
	}
	out := vm.verifyMethodMemo(ex, m)
	ex.verified[key] = out
	return out
}
