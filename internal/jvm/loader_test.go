package jvm

import (
	"strings"
	"testing"

	"repro/internal/classfile"
	"repro/internal/rtlib"
)

// loadOn runs f's bytes on a VM built from spec.
func loadOn(t *testing.T, spec Spec, f *classfile.File) Outcome {
	t.Helper()
	data, err := f.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return New(spec).Run(data)
}

func wantLoadCFE(t *testing.T, o Outcome, what string) {
	t.Helper()
	if o.Phase != PhaseLoading || o.Error != ErrClassFormat {
		t.Errorf("%s: want ClassFormatError at loading, got %s", what, o)
	}
}

func TestLoadRejectsVersionBelowMinimum(t *testing.T) {
	f := helloClass("LOld")
	f.Major = 40
	o := loadOn(t, HotSpot8(), f)
	wantLoadCFE(t, o, "major 40")
}

func TestLoadRejectsDanglingThisClass(t *testing.T) {
	f := helloClass("LThis")
	f.ThisClass = 0xFFF0
	o := loadOn(t, HotSpot8(), f)
	wantLoadCFE(t, o, "bad this_class")
	// Even GIJ cannot work without a class identity.
	o = loadOn(t, GIJ(), f)
	wantLoadCFE(t, o, "bad this_class on GIJ")
}

func TestLoadRejectsMissingSuperOnNonObject(t *testing.T) {
	f := helloClass("LNoSuper")
	f.SuperClass = 0
	o := loadOn(t, HotSpot8(), f)
	wantLoadCFE(t, o, "no superclass")
}

func TestLoadRejectsDanglingInterfaceIndex(t *testing.T) {
	f := helloClass("LIfaceIdx")
	f.Interfaces = append(f.Interfaces, 0xFFF0)
	o := loadOn(t, HotSpot8(), f)
	wantLoadCFE(t, o, "bad interface index")
}

func TestLoadClassFlagRules(t *testing.T) {
	// final+abstract
	f := helloClass("LFlags1")
	f.AccessFlags |= classfile.AccFinal | classfile.AccAbstract
	wantLoadCFE(t, loadOn(t, HotSpot8(), f), "final abstract")

	// interface without abstract
	f2 := classfile.New("LFlags2")
	f2.AccessFlags = classfile.AccPublic | classfile.AccInterface
	wantLoadCFE(t, loadOn(t, HotSpot8(), f2), "interface not abstract")

	// final interface (the final+abstract rule fires first)
	f3 := classfile.New("LFlags3")
	f3.AccessFlags = classfile.AccPublic | classfile.AccInterface | classfile.AccAbstract | classfile.AccFinal
	wantLoadCFE(t, loadOn(t, HotSpot8(), f3), "final interface")

	// a well-formed interface clears every class-flag rule
	f5 := classfile.New("LFlags5")
	f5.AccessFlags = classfile.AccPublic | classfile.AccInterface | classfile.AccAbstract
	if o := loadOn(t, HotSpot8(), f5); o.Phase == PhaseLoading && o.Error == ErrClassFormat {
		t.Errorf("well-formed interface: want past the flag rules, got %s", o)
	}

	// annotation without interface
	f4 := helloClass("LFlags4")
	f4.AccessFlags |= classfile.AccAnnotation
	wantLoadCFE(t, loadOn(t, HotSpot8(), f4), "annotation class")

	// GIJ skips all of these.
	for _, f := range []*classfile.File{f, f4} {
		if o := loadOn(t, GIJ(), f); o.Phase == PhaseLoading {
			t.Errorf("GIJ should not format-check class flags, got %s", o)
		}
	}
}

func TestLoadFieldRules(t *testing.T) {
	// conflicting visibility
	f := helloClass("LField1")
	f.AddField(classfile.AccPublic|classfile.AccPrivate, "x", "I")
	wantLoadCFE(t, loadOn(t, HotSpot8(), f), "field visibility")

	// final volatile
	f2 := helloClass("LField2")
	f2.AddField(classfile.AccPublic|classfile.AccFinal|classfile.AccVolatile, "y", "I")
	wantLoadCFE(t, loadOn(t, HotSpot8(), f2), "final volatile")

	// malformed descriptor
	f3 := helloClass("LField3")
	f3.AddField(classfile.AccPublic, "z", "Q")
	wantLoadCFE(t, loadOn(t, HotSpot8(), f3), "bad descriptor")

	// interface fields must be public static final; GIJ does not check
	iface := func(name string, flags classfile.Flags) *classfile.File {
		f := classfile.New(name)
		f.AccessFlags = classfile.AccPublic | classfile.AccInterface | classfile.AccAbstract
		f.AddField(flags, "c", "I")
		return f
	}
	f4 := iface("LField4", classfile.AccPublic)
	wantLoadCFE(t, loadOn(t, HotSpot8(), f4), "non-static interface field")
	if o := loadOn(t, GIJ(), f4); o.Phase == PhaseLoading {
		t.Errorf("GIJ should not check interface field flags, got %s", o)
	}
	f5 := iface("LField5", classfile.AccPublic|classfile.AccStatic|classfile.AccFinal)
	if o := loadOn(t, HotSpot8(), f5); o.Phase == PhaseLoading && o.Error == ErrClassFormat {
		t.Errorf("public static final interface field: want loaded, got %s", o)
	}
}

// TestLinkInterfaceRules pins the linker's implemented-interface
// checks: a missing interface is a loading-time NoClassDefFoundError
// only on the eagerly resolving presets, and an inaccessible platform
// interface is an IllegalAccessError only where resolved access is
// checked (HotSpot 9's modules).
func TestLinkInterfaceRules(t *testing.T) {
	implementing := func(name, iface string) *classfile.File {
		f := helloClass(name)
		f.Interfaces = append(f.Interfaces, f.Pool.AddClass(iface))
		return f
	}

	missing := implementing("LIfaceMissing", "no/such/Iface")
	if o := loadOn(t, HotSpot8(), missing); o.Phase != PhaseLoading || o.Error != ErrNoClassDef || !strings.Contains(o.Message, "no/such/Iface") {
		t.Errorf("HotSpot8, missing interface: want NoClassDefFoundError at loading, got %s", o)
	}
	if o := loadOn(t, GIJ(), missing); !o.OK() {
		t.Errorf("GIJ resolves lazily and never looks the interface up: got %s", o)
	}

	// A private JRE9 environment in which Runnable is encapsulated.
	hidden := rtlib.NewEnv(rtlib.JRE9)
	ci, _ := hidden.Lookup("java/lang/Runnable")
	ci.Accessible = false
	runnable := implementing("LIfaceAccess", "java/lang/Runnable")
	data, err := runnable.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if o := NewWithEnv(HotSpot9(), hidden).Run(data); o.Phase != PhaseLinking || o.Error != ErrIllegalAccess {
		t.Errorf("HotSpot9, inaccessible interface: want IllegalAccessError at linking, got %s", o)
	}
	if o := NewWithEnv(HotSpot8(), hidden).Run(data); !o.OK() {
		t.Errorf("HotSpot8 does not check resolved access: got %s", o)
	}
	if o := New(HotSpot9()).Run(data); !o.OK() {
		t.Errorf("HotSpot9, accessible interface: got %s", o)
	}
}

func TestLoadMethodRules(t *testing.T) {
	// abstract + private
	f := helloClass("LMeth1")
	f.AddMethod(classfile.AccPrivate|classfile.AccAbstract, "m", "()V")
	wantLoadCFE(t, loadOn(t, HotSpot8(), f), "abstract private")

	// abstract + final
	f2 := helloClass("LMeth2")
	f2.AddMethod(classfile.AccPublic|classfile.AccAbstract|classfile.AccFinal, "m", "()V")
	wantLoadCFE(t, loadOn(t, HotSpot8(), f2), "abstract final")

	// abstract + strict
	f3 := helloClass("LMeth3")
	f3.AddMethod(classfile.AccPublic|classfile.AccAbstract|classfile.AccStrict, "m", "()V")
	wantLoadCFE(t, loadOn(t, HotSpot8(), f3), "abstract strictfp")

	// malformed method descriptor
	f4 := helloClass("LMeth4")
	f4.AddMethod(classfile.AccPublic|classfile.AccAbstract, "m", "(V)I")
	wantLoadCFE(t, loadOn(t, HotSpot8(), f4), "bad method descriptor")

	// duplicate methods
	f5 := helloClass("LMeth5")
	f5.AddMethod(classfile.AccPublic|classfile.AccAbstract, "m", "()V")
	f5.AddMethod(classfile.AccPublic|classfile.AccAbstract, "m", "()V")
	wantLoadCFE(t, loadOn(t, HotSpot8(), f5), "duplicate methods")
}

func TestLoadCodePresenceRules(t *testing.T) {
	// abstract method with code
	f := helloClass("LCode1")
	m := f.AddMethod(classfile.AccPublic|classfile.AccAbstract, "m", "()V")
	cb := classfile.NewCodeBuilder(f.Pool)
	cb.Op(0xb1)
	m.Attributes = append(m.Attributes, cb.Build())
	wantLoadCFE(t, loadOn(t, HotSpot8(), f), "abstract with code")

	// concrete method without code
	f2 := helloClass("LCode2")
	f2.AddMethod(classfile.AccPublic, "m", "()V")
	wantLoadCFE(t, loadOn(t, HotSpot8(), f2), "concrete without code")

	// native method with code
	f3 := helloClass("LCode3")
	m3 := f3.AddMethod(classfile.AccPublic|classfile.AccNative, "m", "()V")
	cb3 := classfile.NewCodeBuilder(f3.Pool)
	cb3.Op(0xb1)
	m3.Attributes = append(m3.Attributes, cb3.Build())
	wantLoadCFE(t, loadOn(t, HotSpot8(), f3), "native with code")

	// GIJ tolerates all three (lazy leniency).
	for _, ff := range []*classfile.File{f, f2, f3} {
		if o := loadOn(t, GIJ(), ff); o.Phase == PhaseLoading {
			t.Errorf("GIJ should not check code presence, got %s", o)
		}
	}
}

func TestLoadConstantPoolCrossRefs(t *testing.T) {
	// A Class entry pointing at a non-Utf8 slot.
	f := helloClass("LCP1")
	intIdx := f.Pool.AddInteger(7)
	f.Pool.Entries = append(f.Pool.Entries, &classfile.Constant{Tag: classfile.TagClass, Ref1: intIdx})
	wantLoadCFE(t, loadOn(t, HotSpot8(), f), "class->int")
	if o := loadOn(t, GIJ(), f); o.Phase == PhaseLoading {
		t.Errorf("GIJ skips strict pool checking, got %s", o)
	}

	// A NameAndType with a dangling reference.
	f2 := helloClass("LCP2")
	f2.Pool.Entries = append(f2.Pool.Entries, &classfile.Constant{Tag: classfile.TagNameAndType, Ref1: 0xFFF0, Ref2: 1})
	wantLoadCFE(t, loadOn(t, HotSpot8(), f2), "dangling NameAndType")

	// A MethodHandle with an invalid kind.
	f3 := helloClass("LCP3")
	f3.Pool.Entries = append(f3.Pool.Entries, &classfile.Constant{Tag: classfile.TagMethodHandle, Kind: 77, Ref1: 1})
	wantLoadCFE(t, loadOn(t, HotSpot8(), f3), "bad MethodHandle kind")
}

func TestLoadIllegalClassName(t *testing.T) {
	f := helloClass("L;Bad")
	o := loadOn(t, HotSpot8(), f)
	wantLoadCFE(t, o, "name with semicolon")
	if o := loadOn(t, GIJ(), f); o.Phase == PhaseLoading {
		t.Errorf("GIJ skips name validity, got %s", o)
	}
}

// TestPolicyMatrixMatchesTable3 pins the knobs that define each VM's
// identity, so a refactor cannot silently flatten the behavioural
// differences the whole evaluation rests on.
func TestPolicyMatrixMatchesTable3(t *testing.T) {
	hs7, hs8, hs9, j9, gij := HotSpot7(), HotSpot8(), HotSpot9(), J9(), GIJ()

	// Version ceilings per release.
	if hs7.Policy.MaxMajorVersion != 51 || hs8.Policy.MaxMajorVersion != 52 || hs9.Policy.MaxMajorVersion != 53 {
		t.Error("HotSpot version ceilings wrong")
	}
	if !gij.Policy.AcceptNewerVersions {
		t.Error("GIJ must process newer-version classfiles (Problem 4)")
	}

	// Problem 1: only J9 applies the name-based <clinit> rule.
	if j9.Policy.ClinitRule != ClinitAlwaysInitializer {
		t.Error("J9 clinit rule")
	}
	for _, s := range []Spec{hs7, hs8, hs9} {
		if s.Policy.ClinitRule != ClinitOrdinaryIfNonStatic {
			t.Errorf("%s clinit rule", s.Name)
		}
	}

	// Problem 2: HotSpot verifies eagerly; J9 and GIJ on invocation.
	for _, s := range []Spec{hs7, hs8, hs9} {
		if !s.Policy.EagerVerify {
			t.Errorf("%s must verify eagerly", s.Name)
		}
	}
	if j9.Policy.EagerVerify || gij.Policy.EagerVerify {
		t.Error("J9/GIJ must verify lazily")
	}
	if !gij.Policy.VerifyUninitMerge || !gij.Policy.VerifyRefAssignability {
		t.Error("GIJ's strict dialect knobs")
	}
	if !j9.Policy.VerifyStrictStackShape {
		t.Error("J9 stack-shape strictness")
	}

	// Problem 3: only HotSpot checks throws clauses.
	for _, s := range []Spec{hs7, hs8, hs9} {
		if !s.Policy.CheckThrowsClause {
			t.Errorf("%s must check throws clauses", s.Name)
		}
	}
	if j9.Policy.CheckThrowsClause || gij.Policy.CheckThrowsClause {
		t.Error("J9/GIJ must not check throws clauses")
	}

	// Problem 4: GIJ's leniency block.
	p := gij.Policy
	if p.CheckInitSignature || p.CheckDuplicateFields || p.CheckInterfaceMemberRules ||
		p.CheckInterfaceSuperObject || p.CheckClassFlags || p.CheckMemberFlags ||
		p.CheckSuperNotFinal || p.EagerResolution || p.RequireStaticMain {
		t.Error("GIJ leniency knobs flipped")
	}
	if !p.AllowInterfaceMain {
		t.Error("GIJ must run interface mains")
	}

	// HotSpot 9 modules.
	if !hs9.Policy.CheckResolvedAccess || !hs9.Policy.InitStrictAccess {
		t.Error("HotSpot 9 module knobs")
	}
	if hs7.Policy.CheckResolvedAccess || hs8.Policy.CheckResolvedAccess {
		t.Error("HotSpot 7/8 must not enforce module access")
	}

	// Environments per Table 3.
	wantRel := map[string]string{
		"HotSpot-Java7": "JRE7", "HotSpot-Java8": "JRE8", "HotSpot-Java9": "JRE9",
		"J9-SDK8": "JRE8", "GIJ-5.1.0": "GNU-Classpath",
	}
	for _, s := range []Spec{hs7, hs8, hs9, j9, gij} {
		if s.Release.String() != wantRel[s.Name] {
			t.Errorf("%s bound to %s, want %s", s.Name, s.Release, wantRel[s.Name])
		}
	}
}
