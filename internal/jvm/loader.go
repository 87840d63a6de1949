package jvm

import (
	"strings"

	"repro/internal/classfile"
	"repro/internal/descriptor"
)

// load performs the creation & loading phase: version gate, constant
// pool integrity, format checking of class/field/method structures
// (JVMS §4.8 "format checking" happens under loading, which is why the
// errors here are ClassFormatError / UnsupportedClassVersionError /
// ClassCircularityError / NoClassDefFoundError — Table 1 of the paper).
func (vm *VM) load(f *classfile.File) (Outcome, bool) {
	p := &vm.Spec.Policy
	vm.st(pLoadEnter)

	// ---- version gate ---------------------------------------------------
	if vm.br(bLoadVersionMin, f.Major < MinMajorVersion) {
		return reject(PhaseLoading, ErrClassFormat, "major version %d below minimum", f.Major), true
	}
	tooNew := f.Major > p.MaxMajorVersion
	if vm.br(bLoadVersionMax, tooNew) {
		if !p.AcceptNewerVersions {
			return reject(PhaseLoading, ErrUnsupportedVersion, "unsupported major.minor version %d.%d", f.Major, f.Minor), true
		}
		vm.st(pLoadVersionTolerated)
	}

	// ---- constant pool integrity ----------------------------------------
	if out, bad := vm.checkConstantPool(f); bad {
		return out, true
	}

	// ---- this_class / superclass names ----------------------------------
	name, ok := f.Pool.ClassName(f.ThisClass)
	if vm.br(bLoadThisclassValid, !ok) {
		return reject(PhaseLoading, ErrClassFormat, "bad this_class index %d", f.ThisClass), true
	}
	if p.CheckNameValidity && vm.br(bLoadThisclassName, !descriptor.ValidClassName(name)) {
		return reject(PhaseLoading, ErrClassFormat, "illegal class name %q", name), true
	}
	if vm.br(bLoadSuperZero, f.SuperClass == 0) {
		// Only java/lang/Object may omit a superclass.
		if name != "java/lang/Object" {
			return reject(PhaseLoading, ErrClassFormat, "class %s has no superclass", name), true
		}
	} else {
		if _, ok := f.Pool.ClassName(f.SuperClass); vm.br(bLoadSuperValid, !ok) {
			return reject(PhaseLoading, ErrClassFormat, "bad super_class index %d", f.SuperClass), true
		}
	}
	for _, idx := range f.Interfaces {
		vm.st(pLoadIfaceEntry)
		if _, ok := f.Pool.ClassName(idx); vm.br(bLoadIfaceValid, !ok) {
			return reject(PhaseLoading, ErrClassFormat, "bad interface index %d", idx), true
		}
	}

	// ---- class flags -----------------------------------------------------
	flags := f.AccessFlags
	if p.CheckClassFlags {
		vm.st(pLoadClassflags)
		if vm.br(bLoadClassflagsFinalabstract, flags.Has(classfile.AccFinal|classfile.AccAbstract)) {
			return reject(PhaseLoading, ErrClassFormat, "class %s is both final and abstract", name), true
		}
		if flags.Has(classfile.AccInterface) {
			if vm.br(bLoadClassflagsIfaceabstract, !flags.Has(classfile.AccAbstract)) {
				return reject(PhaseLoading, ErrClassFormat, "interface %s missing ACC_ABSTRACT", name), true
			}
			if vm.br(bLoadClassflagsIfacefinal, flags.Has(classfile.AccFinal)) {
				return reject(PhaseLoading, ErrClassFormat, "interface %s is final", name), true
			}
		}
		if vm.br(bLoadClassflagsAnnotation, flags.Has(classfile.AccAnnotation) && !flags.Has(classfile.AccInterface)) {
			return reject(PhaseLoading, ErrClassFormat, "annotation %s is not an interface", name), true
		}
	}

	// ---- interface superclass must be Object (Problem 4) ------------------
	if f.IsInterface() && p.CheckInterfaceSuperObject {
		super := f.SuperName()
		if vm.br(bLoadIfaceSuperobject, super != "java/lang/Object") {
			return reject(PhaseLoading, ErrClassFormat, "interface %s has superclass %s (must be java/lang/Object)", name, super), true
		}
	}

	// ---- fields ------------------------------------------------------------
	if vm.seenFields == nil {
		vm.seenFields = make(map[memberKey]struct{}, len(f.Fields))
		vm.seenMethods = make(map[memberKey]struct{}, len(f.Methods))
	}
	seenFields := vm.seenFields
	clear(seenFields)
	for _, fl := range f.Fields {
		vm.st(pLoadFieldEntry)
		fname := fl.Name(f.Pool)
		fdesc := fl.Descriptor(f.Pool)
		if vm.br(bLoadFieldCpvalid, fname == "" || fdesc == "") {
			return reject(PhaseLoading, ErrClassFormat, "field with dangling name/descriptor index"), true
		}
		if p.CheckNameValidity && vm.br(bLoadFieldDesc, !descriptor.ValidField(fdesc)) {
			return reject(PhaseLoading, ErrClassFormat, "field %s has malformed descriptor %q", fname, fdesc), true
		}
		if p.CheckDuplicateFields {
			key := memberKey{fname, fdesc}
			if _, dup := seenFields[key]; vm.br(bLoadFieldDup, dup) {
				return reject(PhaseLoading, ErrClassFormat, "duplicate field %s:%s", fname, fdesc), true
			}
			seenFields[key] = struct{}{}
		}
		if p.CheckMemberFlags {
			if vm.br(bLoadFieldVis, fl.AccessFlags.VisibilityCount() > 1) {
				return reject(PhaseLoading, ErrClassFormat, "field %s has conflicting visibility flags", fname), true
			}
			if vm.br(bLoadFieldFinalvolatile, fl.AccessFlags.Has(classfile.AccFinal|classfile.AccVolatile)) {
				return reject(PhaseLoading, ErrClassFormat, "field %s is both final and volatile", fname), true
			}
		}
		if f.IsInterface() && p.CheckInterfaceMemberRules {
			want := classfile.AccPublic | classfile.AccStatic | classfile.AccFinal
			if vm.br(bLoadFieldIfacerules, !fl.AccessFlags.Has(want)) {
				return reject(PhaseLoading, ErrClassFormat, "interface field %s must be public static final", fname), true
			}
		}
	}

	// ---- methods -------------------------------------------------------------
	seenMethods := vm.seenMethods
	clear(seenMethods)
	for _, m := range f.Methods {
		vm.st(pLoadMethodEntry)
		mname := m.Name(f.Pool)
		mdesc := m.Descriptor(f.Pool)
		if vm.br(bLoadMethodCpvalid, mname == "" || mdesc == "") {
			return reject(PhaseLoading, ErrClassFormat, "method with dangling name/descriptor index"), true
		}
		if p.CheckNameValidity && vm.br(bLoadMethodDesc, !descriptor.ValidMethod(mdesc)) {
			return reject(PhaseLoading, ErrClassFormat, "method %s has malformed descriptor %q", mname, mdesc), true
		}
		key := memberKey{mname, mdesc}
		if _, dup := seenMethods[key]; vm.br(bLoadMethodDup, dup) {
			return reject(PhaseLoading, ErrClassFormat, "duplicate method %s%s", mname, mdesc), true
		}
		seenMethods[key] = struct{}{}

		if out, bad := vm.checkMethodShape(f, m, mname, mdesc); bad {
			return out, true
		}
	}

	vm.st(pLoadOk)
	return Outcome{}, false
}

// checkMethodShape applies the per-method format rules, including the
// <clinit> classification policy of Problem 1.
func (vm *VM) checkMethodShape(f *classfile.File, m *classfile.Member, mname, mdesc string) (Outcome, bool) {
	p := &vm.Spec.Policy
	flags := m.AccessFlags
	hasCode := m.Code() != nil

	// <clinit> classification (Problem 1). Under the clarified SE 9 rule
	// a version ≥ 51 <clinit> is an initializer only when static, ()V.
	if mname == "<clinit>" {
		vm.st(pLoadClinitSeen)
		isInitializer := false
		switch p.ClinitRule {
		case ClinitOrdinaryIfNonStatic:
			isInitializer = flags.Has(classfile.AccStatic) && mdesc == "()V"
			vm.br(bLoadClinitSe9rule, isInitializer)
		case ClinitAlwaysInitializer:
			isInitializer = true
			vm.st(pLoadClinitLegacyrule)
		case ClinitIgnored:
			vm.st(pLoadClinitIgnored)
		}
		if isInitializer {
			// The initializer needs executable code.
			if vm.br(bLoadClinitCode, !hasCode) {
				return reject(PhaseLoading, ErrClassFormat,
					"no Code attribute specified; method=<clinit>%s, pc=0", mdesc), true
			}
			// An initializer is exempt from ordinary-method flag rules.
			return Outcome{}, false
		}
		// Ordinary method named <clinit>: falls through to the general
		// rules (HotSpot's "of no consequence" path).
		vm.st(pLoadClinitOrdinary)
	}

	if p.CheckMemberFlags {
		if vm.br(bLoadMethodVis, flags.VisibilityCount() > 1) {
			return reject(PhaseLoading, ErrClassFormat, "method %s has conflicting visibility flags", mname), true
		}
		bad := flags.Has(classfile.AccAbstract) &&
			(flags.Has(classfile.AccFinal) || flags.Has(classfile.AccStatic) ||
				flags.Has(classfile.AccNative) || flags.Has(classfile.AccPrivate) ||
				flags.Has(classfile.AccSynchronized) || flags.Has(classfile.AccStrict))
		if vm.br(bLoadMethodAbstractcombo, bad) {
			return reject(PhaseLoading, ErrClassFormat, "abstract method %s has conflicting flags", mname), true
		}
	}

	if f.IsInterface() && p.CheckInterfaceMemberRules && mname != "<clinit>" {
		want := classfile.AccPublic | classfile.AccAbstract
		if vm.br(bLoadMethodIfacerules, !flags.Has(want)) {
			return reject(PhaseLoading, ErrClassFormat, "interface method %s must be public abstract", mname), true
		}
	}

	// <init> rules (Problem 4: GIJ accepts abstract/static/returning <init>).
	if mname == "<init>" && p.CheckInitSignature {
		vm.st(pLoadInitSeen)
		banned := classfile.AccStatic | classfile.AccFinal | classfile.AccSynchronized |
			classfile.AccNative | classfile.AccAbstract
		if vm.br(bLoadInitFlags, flags&banned != 0) {
			return reject(PhaseLoading, ErrClassFormat, "<init> has illegal flags %s", flags.MethodFlagString()), true
		}
		if md, err := descriptor.ParseMethod(mdesc); err == nil {
			if vm.br(bLoadInitReturns, !md.Return.IsVoid()) {
				return reject(PhaseLoading, ErrClassFormat, "<init> must return void, not %s", md.Return.Java()), true
			}
		}
		if vm.br(bLoadInitOninterface, f.IsInterface()) {
			return reject(PhaseLoading, ErrClassFormat, "interface declares <init>"), true
		}
	}

	if p.CheckCodePresence {
		abstractOrNative := flags.Has(classfile.AccAbstract) || flags.Has(classfile.AccNative)
		if vm.br(bLoadMethodCodeabsent, !abstractOrNative && !hasCode) {
			return reject(PhaseLoading, ErrClassFormat, "concrete method %s%s lacks a Code attribute", mname, mdesc), true
		}
		if vm.br(bLoadMethodCodepresent, abstractOrNative && hasCode) {
			return reject(PhaseLoading, ErrClassFormat, "abstract/native method %s%s has a Code attribute", mname, mdesc), true
		}
	}
	return Outcome{}, false
}

// checkConstantPool validates the internal shape of the pool. Strict
// VMs validate every cross-reference at load; lenient VMs only enough
// to walk the structures.
func (vm *VM) checkConstantPool(f *classfile.File) (Outcome, bool) {
	p := &vm.Spec.Policy
	cp := f.Pool
	vm.st(pLoadCpEnter)
	for i := 1; i < cp.Count(); i++ {
		c := cp.Get(uint16(i))
		if c == nil {
			continue
		}
		vm.st(cpTagProbes[byte(c.Tag)])
		if !p.StrictConstantPool {
			continue
		}
		switch c.Tag {
		case classfile.TagClass, classfile.TagString, classfile.TagMethodType:
			if t := cp.Get(c.Ref1); vm.br(bLoadCpRef1utf8, t == nil || t.Tag != classfile.TagUtf8) {
				return reject(PhaseLoading, ErrClassFormat, "constant #%d (%s) references non-Utf8 #%d", i, c.Tag, c.Ref1), true
			}
		case classfile.TagNameAndType:
			t1, t2 := cp.Get(c.Ref1), cp.Get(c.Ref2)
			bad := t1 == nil || t1.Tag != classfile.TagUtf8 || t2 == nil || t2.Tag != classfile.TagUtf8
			if vm.br(bLoadCpNatvalid, bad) {
				return reject(PhaseLoading, ErrClassFormat, "NameAndType #%d has dangling references", i), true
			}
		case classfile.TagFieldref, classfile.TagMethodref, classfile.TagInterfaceMethodref:
			t1, t2 := cp.Get(c.Ref1), cp.Get(c.Ref2)
			bad := t1 == nil || t1.Tag != classfile.TagClass || t2 == nil || t2.Tag != classfile.TagNameAndType
			if vm.br(bLoadCpMembervalid, bad) {
				return reject(PhaseLoading, ErrClassFormat, "%s #%d has dangling references", c.Tag, i), true
			}
			// Field descriptors must parse as field types, method ones as
			// method types.
			_, desc, _ := cp.NameAndType(c.Ref2)
			if c.Tag == classfile.TagFieldref {
				if vm.br(bLoadCpFielddesc, !descriptor.ValidField(desc)) {
					return reject(PhaseLoading, ErrClassFormat, "Fieldref #%d has non-field descriptor %q", i, desc), true
				}
			} else {
				if vm.br(bLoadCpMethoddesc, !descriptor.ValidMethod(desc)) {
					return reject(PhaseLoading, ErrClassFormat, "%s #%d has non-method descriptor %q", c.Tag, i, desc), true
				}
			}
		case classfile.TagMethodHandle:
			if vm.br(bLoadCpMhkind, c.Kind < 1 || c.Kind > 9) {
				return reject(PhaseLoading, ErrClassFormat, "MethodHandle #%d has kind %d", i, c.Kind), true
			}
		}
	}

	// Class-name constants must be structurally plausible names.
	if p.StrictConstantPool && p.CheckNameValidity {
		for i := 1; i < cp.Count(); i++ {
			c := cp.Get(uint16(i))
			if c == nil || c.Tag != classfile.TagClass {
				continue
			}
			n, _ := cp.Utf8(c.Ref1)
			// Array-of-void and descriptor junk in class entries.
			if vm.br(bLoadCpClassname, strings.HasPrefix(n, "[") && !descriptor.ValidField(n)) {
				return reject(PhaseLoading, ErrClassFormat, "Class constant #%d has malformed array name %q", i, n), true
			}
		}
	}
	vm.st(pLoadCpOk)
	return Outcome{}, false
}
