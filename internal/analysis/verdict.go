package analysis

import (
	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/jvm"
	"repro/internal/rtlib"
)

// Prediction is the static oracle's claim about one (classfile, VM)
// pair. When Definite is false the class reaches dynamic territory the
// oracle does not model (a non-trivial <clinit> or main body) and
// Outcome carries no claim.
type Prediction struct {
	Definite bool
	Outcome  jvm.Outcome
}

// StaticVerdict predicts how the VM described by spec treats f,
// resolving platform references against env — spec's own library
// release for the standard lineup, one shared release under
// Definition 2.
func StaticVerdict(f *classfile.File, spec jvm.Spec, env *rtlib.Env) Prediction {
	p := &spec.Policy
	diags := Run(f, DefaultAnalyzers())

	// ---- loading: first enabled format diagnostic in loader order ----
	if d := firstLoadReject(diags, p); d != nil {
		return Prediction{Definite: true, Outcome: jvm.Outcome{
			Phase: jvm.PhaseLoading, Error: d.Err, Message: d.Message}}
	}

	// ---- linking ----
	vm := jvm.NewWithEnv(spec, env)
	if out, bad := linkVerdict(f, vm); bad {
		return Prediction{Definite: true, Outcome: out}
	}

	// ---- initialization ----
	pred, clinitOut, done := initVerdict(f, vm)
	if done {
		return pred
	}

	// ---- invocation ----
	return invokeVerdict(f, vm, clinitOut)
}

// VerifyRejectMemo returns the oracle's definite loading/linking
// rejection for f on spec, or nil when the class definitely survives
// both phases. It covers hierarchy well-formedness, throws clauses,
// eager resolution and, under eager verification, the VM's own §4.10
// verifier. Callers must have cleared the loading-phase format checks
// first (LoadReject), matching StaticVerdict's order.
//
// Per-method verification verdicts are served from and stored into
// memo (nil for none). The class checks always run in full; a hit
// skips only the verifier's fixpoint,
// the dominant cost. The verdicts come from a recorder-less VM, so they
// share the memo's key space with every VM of the same spec: their
// entries carry no probe footprint, which a recorder-attached VM reads
// as a miss and upgrades, so sharing cannot change a coverage trace.
func VerifyRejectMemo(f *classfile.File, spec jvm.Spec, env *rtlib.Env, memo *jvm.VerifyMemo) *jvm.Outcome {
	vm := jvm.NewWithEnv(spec, env)
	vm.SetVerifyMemo(memo)
	if out, bad := linkVerdict(f, vm); bad {
		return &out
	}
	return nil
}

// firstLoadReject picks the first loading-phase error diagnostic that
// policy p enforces, in the loader's own check order.
func firstLoadReject(diags []Diagnostic, p *jvm.Policy) *Diagnostic {
	for i := range diags {
		d := &diags[i]
		if d.Severity == SevError && d.Phase == jvm.PhaseLoading && d.Gate.Enabled(p) {
			return d
		}
	}
	return nil
}

// linkVerdict mirrors the linking phase read-only on vm's spec and
// environment: hierarchy well-formedness, throws clauses, optional
// eager resolution of every symbolic reference, and eager verification
// through vm's own verifier.
func linkVerdict(f *classfile.File, vm *jvm.VM) (jvm.Outcome, bool) {
	p, env := &vm.Spec.Policy, vm.Env
	self := f.Name()
	rej := func(phase jvm.Phase, err string) (jvm.Outcome, bool) {
		return jvm.Outcome{Phase: phase, Error: err}, true
	}

	if super := f.SuperName(); super != "" {
		if super == self {
			return rej(jvm.PhaseLoading, jvm.ErrClassCircularity)
		}
		ci, ok := env.Lookup(super)
		if !ok {
			return rej(jvm.PhaseLoading, jvm.ErrNoClassDef)
		}
		if ci.Interface && !f.IsInterface() {
			return rej(jvm.PhaseLinking, jvm.ErrIncompatibleChange)
		}
		if p.CheckSuperNotFinal && ci.Final {
			return rej(jvm.PhaseLinking, jvm.ErrVerify)
		}
		if p.CheckResolvedAccess && !ci.Accessible {
			return rej(jvm.PhaseLinking, jvm.ErrIllegalAccess)
		}
	}

	for _, idx := range f.Interfaces {
		iname, _ := f.Pool.ClassName(idx)
		if iname == self {
			return rej(jvm.PhaseLoading, jvm.ErrClassCircularity)
		}
		ci, ok := env.Lookup(iname)
		if !ok {
			if p.EagerResolution {
				return rej(jvm.PhaseLoading, jvm.ErrNoClassDef)
			}
			continue
		}
		if p.EagerResolution && !ci.Interface {
			return rej(jvm.PhaseLinking, jvm.ErrIncompatibleChange)
		}
		if p.CheckResolvedAccess && !ci.Accessible {
			return rej(jvm.PhaseLinking, jvm.ErrIllegalAccess)
		}
	}

	if p.CheckThrowsClause {
		for _, m := range f.Methods {
			exAttr := m.Exceptions()
			if exAttr == nil {
				continue
			}
			for _, cidx := range exAttr.Classes {
				tname, ok := f.Pool.ClassName(cidx)
				if !ok {
					return rej(jvm.PhaseLinking, jvm.ErrClassFormat)
				}
				if tname == self {
					continue
				}
				ci, found := env.Lookup(tname)
				if !found {
					return rej(jvm.PhaseLinking, jvm.ErrNoClassDef)
				}
				if !ci.Accessible {
					return rej(jvm.PhaseLinking, jvm.ErrIllegalAccess)
				}
			}
		}
	}

	if p.EagerResolution {
		if out, bad := resolveRefsVerdict(f, p, env); bad {
			return out, true
		}
	}

	if p.EagerVerify {
		for _, m := range f.Methods {
			if m.Code() == nil {
				continue
			}
			if out := vm.VerifyMethod(f, m); out != nil {
				return *out, true
			}
		}
	}
	return jvm.Outcome{}, false
}

// resolveRefsVerdict mirrors resolveAllRefs: every member reference in
// the pool must resolve against the class itself or the platform
// library.
func resolveRefsVerdict(f *classfile.File, p *jvm.Policy, env *rtlib.Env) (jvm.Outcome, bool) {
	rej := func(err string) (jvm.Outcome, bool) {
		return jvm.Outcome{Phase: jvm.PhaseLinking, Error: err}, true
	}
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
		if !ok {
			return rej(jvm.ErrClassFormat)
		}
		if cls != f.Name() {
			ci, found := env.Lookup(cls)
			if !found {
				return rej(jvm.ErrNoClassDef)
			}
			if p.CheckResolvedAccess && !ci.Accessible {
				return rej(jvm.ErrIllegalAccess)
			}
		}
		if isField {
			if !staticFieldExists(f, env, cls, name, desc) {
				return rej(jvm.ErrNoSuchField)
			}
		} else if !staticMethodExists(f, env, cls, name, desc) {
			return rej(jvm.ErrNoSuchMethod)
		}
	}
	return jvm.Outcome{}, false
}

func staticFieldExists(f *classfile.File, env *rtlib.Env, cls, name, desc string) bool {
	if cls == f.Name() {
		for _, fl := range f.Fields {
			if fl.Name(f.Pool) == name && fl.Descriptor(f.Pool) == desc {
				return true
			}
		}
		cls = f.SuperName()
	}
	for cur := cls; cur != ""; {
		ci, ok := env.Lookup(cur)
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

func staticMethodExists(f *classfile.File, env *rtlib.Env, cls, name, desc string) bool {
	if cls == f.Name() {
		for _, m := range f.Methods {
			if m.Name(f.Pool) == name && m.Descriptor(f.Pool) == desc {
				return true
			}
		}
		cls = f.SuperName()
	}
	seen := map[string]bool{}
	var walk func(n string) bool
	walk = func(n string) bool {
		if n == "" || seen[n] {
			return false
		}
		seen[n] = true
		ci, ok := env.Lookup(n)
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

// initVerdict mirrors the initialization phase. done is true when the
// prediction is final (a rejection, or an opaque initializer that
// blocks any further static claim); lines carries the output of a
// safe straight-line initializer.
func initVerdict(f *classfile.File, vm *jvm.VM) (pred Prediction, lines []string, done bool) {
	p, env := &vm.Spec.Policy, vm.Env
	if p.InitStrictAccess {
		for i := 1; i < f.Pool.Count(); i++ {
			c := f.Pool.Get(uint16(i))
			if c == nil || c.Tag != classfile.TagClass {
				continue
			}
			name, _ := f.Pool.Utf8(c.Ref1)
			if name == "" || name == f.Name() {
				continue
			}
			if ci, ok := env.Lookup(name); ok && !ci.Accessible {
				return Prediction{Definite: true, Outcome: jvm.Outcome{
					Phase: jvm.PhaseInit, Error: jvm.ErrIllegalAccess}}, nil, true
			}
		}
	}
	clinit := staticClassInitializer(f, p)
	if clinit == nil {
		return Prediction{}, nil, false
	}
	if !p.EagerVerify {
		if out := vm.VerifyMethod(f, clinit); out != nil {
			return Prediction{Definite: true, Outcome: jvm.Outcome{
				Phase: jvm.PhaseInit, Error: out.Error, Message: out.Message}}, nil, true
		}
	}
	out, ok := safeStraightLine(f, clinit)
	if !ok {
		// The initializer does real work; its success is a dynamic
		// question the oracle does not answer.
		return Prediction{}, nil, true
	}
	return Prediction{}, out, false
}

// staticClassInitializer mirrors the per-policy <clinit> selection.
func staticClassInitializer(f *classfile.File, p *jvm.Policy) *classfile.Member {
	for _, m := range f.Methods {
		if m.Name(f.Pool) != "<clinit>" {
			continue
		}
		switch p.ClinitRule {
		case jvm.ClinitOrdinaryIfNonStatic:
			if m.AccessFlags.Has(classfile.AccStatic) && m.Descriptor(f.Pool) == "()V" {
				return m
			}
		case jvm.ClinitAlwaysInitializer:
			return m
		case jvm.ClinitIgnored:
			if m.AccessFlags.Has(classfile.AccStatic) && m.Code() != nil {
				return m
			}
		}
	}
	return nil
}

// invokeVerdict mirrors the invocation phase: main lookup and shape
// checks are fully static; the body itself is only predicted when it
// matches the safe straight-line print idiom the generators emit.
func invokeVerdict(f *classfile.File, vm *jvm.VM, clinitOut []string) Prediction {
	p := &vm.Spec.Policy
	rej := func(err string) Prediction {
		return Prediction{Definite: true, Outcome: jvm.Outcome{Phase: jvm.PhaseRuntime, Error: err}}
	}
	if f.IsInterface() && !p.AllowInterfaceMain {
		return rej(jvm.ErrMainNotFound)
	}
	main := f.FindMethodExact("main", "([Ljava/lang/String;)V")
	if main == nil {
		return rej(jvm.ErrMainNotFound)
	}
	if p.RequireStaticMain {
		if !main.AccessFlags.Has(classfile.AccPublic) || !main.AccessFlags.Has(classfile.AccStatic) {
			return rej(jvm.ErrMainNotFound)
		}
	}
	if main.Code() == nil {
		if main.AccessFlags.Has(classfile.AccAbstract) {
			return rej(jvm.ErrAbstractMethod)
		}
		return rej(jvm.ErrUnsatisfiedLink)
	}
	if !p.EagerVerify {
		if out := vm.VerifyMethod(f, main); out != nil {
			return Prediction{Definite: true, Outcome: jvm.Outcome{
				Phase: jvm.PhaseRuntime, Error: out.Error, Message: out.Message}}
		}
	}
	if lines, ok := safeStraightLine(f, main); ok {
		return Prediction{Definite: true, Outcome: jvm.Outcome{
			Phase: jvm.PhaseInvoked, Output: append(append([]string{}, clinitOut...), lines...)}}
	}
	return Prediction{}
}

// safeStraightLine recognises the one executable idiom the oracle
// guarantees cannot throw after passing verification: zero or more
// `getstatic System.out / ldc "…" / invokevirtual println(String)V`
// groups followed by return, with no handlers. It returns the lines
// the method would print.
func safeStraightLine(f *classfile.File, m *classfile.Member) ([]string, bool) {
	code := m.Code()
	if code == nil || len(code.Handlers) != 0 {
		return nil, false
	}
	ins, err := bytecode.Decode(code.Code)
	if err != nil {
		return nil, false
	}
	out := []string{}
	for i := 0; i < len(ins); {
		switch ins[i].Op {
		case bytecode.Return:
			if i != len(ins)-1 {
				return nil, false
			}
			return out, true
		case bytecode.Getstatic:
			if i+2 >= len(ins) {
				return nil, false
			}
			cls, name, desc, ok := f.Pool.MemberRef(ins[i].CPIndex)
			if !ok || cls != "java/lang/System" || name != "out" || desc != "Ljava/io/PrintStream;" {
				return nil, false
			}
			ld := ins[i+1]
			if ld.Op != bytecode.Ldc && ld.Op != bytecode.LdcW {
				return nil, false
			}
			c := f.Pool.Get(ld.CPIndex)
			if c == nil || c.Tag != classfile.TagString {
				return nil, false
			}
			s, ok2 := f.Pool.Utf8(c.Ref1)
			if !ok2 {
				return nil, false
			}
			iv := ins[i+2]
			if iv.Op != bytecode.Invokevirtual {
				return nil, false
			}
			pcls, pname, pdesc, ok3 := f.Pool.MemberRef(iv.CPIndex)
			if !ok3 || pcls != "java/io/PrintStream" || pname != "println" || pdesc != "(Ljava/lang/String;)V" {
				return nil, false
			}
			out = append(out, s)
			i += 3
		default:
			return nil, false
		}
	}
	return nil, false
}
