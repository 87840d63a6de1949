// Package seedgen deterministically generates the synthetic "JRE-like"
// seed corpus standing in for the 21,736 JRE7 library classfiles the
// paper sampled seeds from (§3.1.1). The generator emits structurally
// diverse, *valid* classes — plain classes, interfaces, abstract
// classes, utility classes with fields/methods/throws clauses, classes
// with static initializers and control flow — plus a small fraction
// whose hierarchy or references are version-skewed exactly the way real
// JRE7 classes are (final-in-8 superclasses, JRE7-only classes, JRE8+
// interfaces), which reproduces the preliminary study's ≈1.7 %
// discrepancy baseline on library classfiles.
package seedgen

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/descriptor"
	"repro/internal/jimple"
	"repro/internal/prng"
)

// Options configure corpus generation.
type Options struct {
	// Count is the number of classes to generate.
	Count int
	// Seed drives the deterministic RNG.
	Seed int64
	// SkewFraction is the fraction of classes carrying version-skewed
	// references (default 1/48 ≈ 2 %, calibrated so the corpus
	// reproduces the paper's 1.7 % library discrepancy rate).
	SkewFraction float64
	// AttachMain adds the standard observable main to every class that
	// can carry one (the §2.2.1 harness). Interfaces never get one.
	AttachMain bool
}

// DefaultOptions returns the standard corpus configuration.
func DefaultOptions(count int, seed int64) Options {
	return Options{Count: count, Seed: seed, SkewFraction: 1.0 / 48, AttachMain: true}
}

// classStream labels the per-class derived RNG streams of Generate.
const classStream uint64 = 0x5EED_0001

// Generate builds the corpus. Each class draws from its own splittable
// stream derived from (Seed, index), so class i is identical whatever
// corpus size it is generated within — GenerateOne(opts, i) reproduces
// it in isolation.
func Generate(opts Options) []*jimple.Class {
	out := make([]*jimple.Class, 0, opts.Count)
	for i := 0; i < opts.Count; i++ {
		out = append(out, GenerateOne(opts, i))
	}
	return out
}

// GenerateOne builds class i of the corpus opts describes without
// generating the rest.
func GenerateOne(opts Options, i int) *jimple.Class {
	rng := prng.Derive(opts.Seed, classStream, uint64(i))
	name := fmt.Sprintf("M%d", 1430000000+rng.Intn(99999999))
	var c *jimple.Class
	if rng.Float64() < opts.SkewFraction {
		c = buildSkewed(name, rng)
	} else {
		c = shapes[rng.Intn(len(shapes))](name, rng)
	}
	if opts.AttachMain && !c.IsInterface() && c.FindMethod("main") == nil {
		c.AddStandardMain("Completed!")
	}
	return c
}

// GenerateFiles lowers a generated corpus straight to classfile bytes.
// Class i is GenerateOne(opts, i), lowered and written, so the corpus is
// built on GOMAXPROCS goroutines into index-addressed slots and comes
// out identical at any GOMAXPROCS. On failure the error of the lowest
// failing index is returned, as a serial build would.
func GenerateFiles(opts Options) ([][]byte, error) {
	out := make([][]byte, opts.Count)
	errs := make([]error, opts.Count)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), opts.Count); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lc := jimple.NewLowerCtx()
			var buf []byte
			for {
				i := int(next.Add(1)) - 1
				if i >= opts.Count {
					return
				}
				buf, errs[i] = lowerOne(lc, GenerateOne(opts, i), buf[:0])
				if errs[i] == nil {
					out[i] = append([]byte(nil), buf...)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// lowerOne lowers c with lc and appends its bytes to buf.
func lowerOne(lc *jimple.LowerCtx, c *jimple.Class, buf []byte) ([]byte, error) {
	f, err := lc.Lower(c)
	if err != nil {
		return buf, fmt.Errorf("seedgen: lowering %s: %w", c.Name, err)
	}
	buf, err = f.AppendBytes(buf)
	if err != nil {
		return buf, fmt.Errorf("seedgen: serialising %s: %w", c.Name, err)
	}
	return buf, nil
}

type shapeFn func(name string, rng *rand.Rand) *jimple.Class

var shapes = []shapeFn{
	buildPlain,
	buildUtility,
	buildInterface,
	buildAbstract,
	buildWithClinit,
	buildControlFlow,
	buildThrowsHeavy,
	buildThreadSubclass,
	buildExceptionSubclass,
	buildArrayWorker,
	buildTryCatch,
	buildSwitcher,
	buildRunnableImpl,
}

var seedFieldTypes = []descriptor.Type{
	descriptor.Int,
	descriptor.Long,
	descriptor.Boolean,
	descriptor.Object("java/lang/String"),
	descriptor.Object("java/util/Map"),
	descriptor.Object("java/lang/Object"),
	descriptor.Array(descriptor.Int, 1),
}

// buildPlain: a minimal public class with constructor.
func buildPlain(name string, rng *rand.Rand) *jimple.Class {
	c := jimple.NewClass(name)
	c.AddDefaultInit()
	if rng.Intn(2) == 0 {
		c.Interfaces = append(c.Interfaces, "java/io/Serializable")
	}
	return c
}

// buildUtility: fields plus simple accessor methods.
func buildUtility(name string, rng *rand.Rand) *jimple.Class {
	c := jimple.NewClass(name)
	nf := 1 + rng.Intn(4)
	for i := 0; i < nf; i++ {
		flags := classfile.AccPrivate
		if rng.Intn(3) == 0 {
			flags = classfile.AccProtected | classfile.AccFinal
		}
		c.AddField(flags, fmt.Sprintf("f%d", i), seedFieldTypes[rng.Intn(len(seedFieldTypes))])
	}
	c.AddDefaultInit()
	// An int getter for the first int field, when present.
	for _, f := range c.Fields {
		if f.Type == descriptor.Int {
			g := c.AddMethod(classfile.AccPublic, "get"+f.Name, nil, descriptor.Int)
			this := g.NewLocal("r0", descriptor.Object(name))
			g.Body = []jimple.Stmt{
				&jimple.Identity{Target: this, Param: -1},
				&jimple.Return{Value: &jimple.InstanceFieldRef{Base: this, Class: name, Name: f.Name, Type: descriptor.Int}},
			}
			break
		}
	}
	// A static int helper.
	h := c.AddMethod(classfile.AccPublic|classfile.AccStatic, "scale",
		[]descriptor.Type{descriptor.Int}, descriptor.Int)
	a := h.NewLocal("i0", descriptor.Int)
	h.Body = []jimple.Stmt{
		&jimple.Identity{Target: a, Param: 0},
		&jimple.Return{Value: &jimple.BinOp{Op: jimple.OpMul, L: &jimple.UseLocal{L: a},
			R: &jimple.IntConst{V: int64(2 + rng.Intn(7)), Kind: 'I'}, Kind: 'I'}},
	}
	// A caller wiring the members together, so renaming/deleting any of
	// them breaks symbolic resolution at linking (like real library
	// classes whose members reference each other).
	cb := c.AddMethod(classfile.AccPublic|classfile.AccStatic, "combine",
		[]descriptor.Type{descriptor.Int}, descriptor.Int)
	b := cb.NewLocal("i0", descriptor.Int)
	r := cb.NewLocal("i1", descriptor.Int)
	cb.Body = []jimple.Stmt{
		&jimple.Identity{Target: b, Param: 0},
		&jimple.Assign{LHS: &jimple.UseLocal{L: r}, RHS: &jimple.Invoke{
			Kind: jimple.InvokeStatic, Class: name, Name: "scale",
			Sig:  descriptor.Method{Params: []descriptor.Type{descriptor.Int}, Return: descriptor.Int},
			Args: []jimple.Expr{&jimple.UseLocal{L: b}}}},
		&jimple.Return{Value: &jimple.UseLocal{L: r}},
	}
	return c
}

// buildInterface: a proper interface with abstract methods and constants.
func buildInterface(name string, rng *rand.Rand) *jimple.Class {
	c := jimple.NewClass(name)
	c.Modifiers = classfile.AccPublic | classfile.AccInterface | classfile.AccAbstract
	c.AddField(classfile.AccPublic|classfile.AccStatic|classfile.AccFinal, "VERSION", descriptor.Int)
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		c.AddMethod(classfile.AccPublic|classfile.AccAbstract, fmt.Sprintf("op%d", i),
			[]descriptor.Type{descriptor.Int}, descriptor.Int)
	}
	return c
}

// buildAbstract: an abstract class mixing abstract and concrete methods.
func buildAbstract(name string, rng *rand.Rand) *jimple.Class {
	c := jimple.NewClass(name)
	c.Modifiers |= classfile.AccAbstract
	c.AddDefaultInit()
	c.AddMethod(classfile.AccPublic|classfile.AccAbstract, "step", nil, descriptor.Void)
	m := c.AddMethod(classfile.AccPublic, "twice", []descriptor.Type{descriptor.Int}, descriptor.Int)
	this := m.NewLocal("r0", descriptor.Object(name))
	a := m.NewLocal("i0", descriptor.Int)
	m.Body = []jimple.Stmt{
		&jimple.Identity{Target: this, Param: -1},
		&jimple.Identity{Target: a, Param: 0},
		&jimple.Return{Value: &jimple.BinOp{Op: jimple.OpAdd, L: &jimple.UseLocal{L: a}, R: &jimple.UseLocal{L: a}, Kind: 'I'}},
	}
	return c
}

// buildWithClinit: a class with a static initializer writing statics.
func buildWithClinit(name string, rng *rand.Rand) *jimple.Class {
	c := jimple.NewClass(name)
	c.AddField(classfile.AccPublic|classfile.AccStatic, "counter", descriptor.Int)
	c.AddDefaultInit()
	cl := c.AddMethod(classfile.AccStatic, "<clinit>", nil, descriptor.Void)
	cnt := &jimple.StaticFieldRef{Class: name, Name: "counter", Type: descriptor.Int}
	cl.Body = []jimple.Stmt{
		&jimple.Assign{LHS: cnt, RHS: &jimple.IntConst{V: int64(rng.Intn(100)), Kind: 'I'}},
		&jimple.Return{},
	}
	return c
}

// buildControlFlow: loop-and-branch heavy static method.
func buildControlFlow(name string, rng *rand.Rand) *jimple.Class {
	c := jimple.NewClass(name)
	c.AddDefaultInit()
	m := c.AddMethod(classfile.AccPublic|classfile.AccStatic, "countdown",
		[]descriptor.Type{descriptor.Int}, descriptor.Int)
	n := m.NewLocal("i0", descriptor.Int)
	acc := m.NewLocal("i1", descriptor.Int)
	step := int64(1 + rng.Intn(4))
	m.Body = []jimple.Stmt{
		/*0*/ &jimple.Identity{Target: n, Param: 0},
		/*1*/ &jimple.Assign{LHS: &jimple.UseLocal{L: acc}, RHS: &jimple.IntConst{V: 0, Kind: 'I'}},
		/*2*/ &jimple.If{Op: jimple.CondLe, L: &jimple.UseLocal{L: n}, R: &jimple.IntConst{V: 0, Kind: 'I'}, Target: 6},
		/*3*/ &jimple.Assign{LHS: &jimple.UseLocal{L: acc}, RHS: &jimple.BinOp{Op: jimple.OpAdd, L: &jimple.UseLocal{L: acc}, R: &jimple.UseLocal{L: n}, Kind: 'I'}},
		/*4*/ &jimple.Assign{LHS: &jimple.UseLocal{L: n}, RHS: &jimple.BinOp{Op: jimple.OpSub, L: &jimple.UseLocal{L: n}, R: &jimple.IntConst{V: step, Kind: 'I'}, Kind: 'I'}},
		/*5*/ &jimple.Goto{Target: 2},
		/*6*/ &jimple.Return{Value: &jimple.UseLocal{L: acc}},
	}
	return c
}

// buildThrowsHeavy: methods declaring checked exceptions.
func buildThrowsHeavy(name string, rng *rand.Rand) *jimple.Class {
	c := jimple.NewClass(name)
	c.AddDefaultInit()
	throwables := []string{"java/io/IOException", "java/lang/InterruptedException", "java/lang/Exception"}
	n := 1 + rng.Intn(3)
	for i := 0; i < n; i++ {
		m := c.AddMethod(classfile.AccPublic, fmt.Sprintf("risky%d", i), nil, descriptor.Void)
		m.Throws = []string{throwables[rng.Intn(len(throwables))]}
		this := m.NewLocal("r0", descriptor.Object(name))
		m.Body = []jimple.Stmt{&jimple.Identity{Target: this, Param: -1}, &jimple.Return{}}
	}
	return c
}

// buildThreadSubclass: extends Thread and overrides run.
func buildThreadSubclass(name string, rng *rand.Rand) *jimple.Class {
	c := jimple.NewClass(name)
	c.Super = "java/lang/Thread"
	init := c.AddMethod(classfile.AccPublic, "<init>", nil, descriptor.Void)
	this := init.NewLocal("r0", descriptor.Object(name))
	init.Body = []jimple.Stmt{
		&jimple.Identity{Target: this, Param: -1},
		&jimple.InvokeStmt{Call: &jimple.Invoke{Kind: jimple.InvokeSpecial, Class: "java/lang/Thread",
			Name: "<init>", Sig: descriptor.Method{Return: descriptor.Void}, Base: this}},
		&jimple.Return{},
	}
	run := c.AddMethod(classfile.AccPublic, "run", nil, descriptor.Void)
	this2 := run.NewLocal("r0", descriptor.Object(name))
	run.Body = append([]jimple.Stmt{&jimple.Identity{Target: this2, Param: -1}},
		append(jimple.Println(run, "running"), &jimple.Return{})...)
	return c
}

// buildExceptionSubclass: a user-defined exception type.
func buildExceptionSubclass(name string, rng *rand.Rand) *jimple.Class {
	c := jimple.NewClass(name)
	c.Super = "java/lang/Exception"
	init := c.AddMethod(classfile.AccPublic, "<init>", nil, descriptor.Void)
	this := init.NewLocal("r0", descriptor.Object(name))
	init.Body = []jimple.Stmt{
		&jimple.Identity{Target: this, Param: -1},
		&jimple.InvokeStmt{Call: &jimple.Invoke{Kind: jimple.InvokeSpecial, Class: "java/lang/Exception",
			Name: "<init>", Sig: descriptor.Method{Return: descriptor.Void}, Base: this}},
		&jimple.Return{},
	}
	return c
}

// buildArrayWorker: allocates and sums arrays.
func buildArrayWorker(name string, rng *rand.Rand) *jimple.Class {
	c := jimple.NewClass(name)
	c.AddDefaultInit()
	m := c.AddMethod(classfile.AccPublic|classfile.AccStatic, "fill",
		[]descriptor.Type{descriptor.Int}, descriptor.Array(descriptor.Int, 1))
	n := m.NewLocal("i0", descriptor.Int)
	arr := m.NewLocal("a0", descriptor.Array(descriptor.Int, 1))
	m.Body = []jimple.Stmt{
		&jimple.Identity{Target: n, Param: 0},
		&jimple.Assign{LHS: &jimple.UseLocal{L: arr}, RHS: &jimple.NewArrayExpr{Elem: descriptor.Int, Size: &jimple.UseLocal{L: n}}},
		&jimple.Return{Value: &jimple.UseLocal{L: arr}},
	}
	return c
}

// buildTryCatch: a guarded division with an exception handler. Bodies
// with exception tables only round-trip as Raw statements, so these
// seeds keep the opaque-block path of the mutation pipeline exercised.
func buildTryCatch(name string, rng *rand.Rand) *jimple.Class {
	f := classfile.New(name)
	classfile.AttachDefaultInit(f)
	m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "safeDiv", "(II)I")
	cb := classfile.NewCodeBuilder(f.Pool)
	// try { return a/b } catch (ArithmeticException e) { return fallback }
	cb.Op(bytecode.Iload0).Op(bytecode.Iload1).Op(bytecode.Idiv)
	end := cb.PC()
	cb.Op(bytecode.Ireturn)
	h := cb.PC()
	cb.Op(bytecode.Pop)
	cb.LdcInt(int32(rng.Intn(100)))
	cb.Op(bytecode.Ireturn)
	cb.Handler(0, end, h, "java/lang/ArithmeticException")
	cb.SetMaxStack(2).SetMaxLocals(2)
	m.Attributes = append(m.Attributes, cb.Build())
	c, err := jimple.Lift(f)
	if err != nil {
		return buildPlain(name, rng) // unreachable in practice
	}
	return c
}

// buildSwitcher: a tableswitch dispatcher, again raw-only.
func buildSwitcher(name string, rng *rand.Rand) *jimple.Class {
	f := classfile.New(name)
	classfile.AttachDefaultInit(f)
	m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "dispatch", "(I)I")
	code := []byte{
		0x1a,             // pc0: iload_0
		0xaa, 0x00, 0x00, // pc1: tableswitch (pad to 4)
		0x00, 0x00, 0x00, 0x23, // default -> pc1+35 = 36
		0x00, 0x00, 0x00, 0x01, // low 1
		0x00, 0x00, 0x00, 0x03, // high 3
		0x00, 0x00, 0x00, 0x1b, // case 1 -> 28
		0x00, 0x00, 0x00, 0x1f, // case 2 -> 32
		0x00, 0x00, 0x00, 0x23, // case 3 -> 36 (shares default)
		0x10, 0x0a, // pc28: bipush 10
		0xac,       // pc30: ireturn
		0x00,       // pc31: nop (alignment filler)
		0x10, 0x14, // pc32: bipush 20
		0xac,       // pc34: ireturn
		0x00,       // pc35: nop
		0x10, 0x63, // pc36: bipush 99
		0xac, // pc38: ireturn
	}
	m.Attributes = append(m.Attributes, &classfile.CodeAttr{MaxStack: 2, MaxLocals: 2, Code: code})
	c, err := jimple.Lift(f)
	if err != nil {
		return buildPlain(name, rng)
	}
	return c
}

// buildRunnableImpl: a proper Runnable implementation.
func buildRunnableImpl(name string, rng *rand.Rand) *jimple.Class {
	c := jimple.NewClass(name)
	c.Interfaces = append(c.Interfaces, "java/lang/Runnable")
	c.AddDefaultInit()
	run := c.AddMethod(classfile.AccPublic, "run", nil, descriptor.Void)
	this := run.NewLocal("r0", descriptor.Object(name))
	run.Body = append([]jimple.Stmt{&jimple.Identity{Target: this, Param: -1}},
		append(jimple.Println(run, "task"), &jimple.Return{})...)
	return c
}

// buildSkewed produces the version-skewed classes driving the
// compatibility-discrepancy baseline.
func buildSkewed(name string, rng *rand.Rand) *jimple.Class {
	switch rng.Intn(4) {
	case 0:
		// Extends EnumEditor: runs on JRE7, VerifyError on JRE8+ (final),
		// missing on Classpath.
		c := jimple.NewClass(name)
		c.Super = "com/sun/beans/editors/EnumEditor"
		init := c.AddMethod(classfile.AccPublic, "<init>", nil, descriptor.Void)
		this := init.NewLocal("r0", descriptor.Object(name))
		init.Body = []jimple.Stmt{
			&jimple.Identity{Target: this, Param: -1},
			&jimple.InvokeStmt{Call: &jimple.Invoke{Kind: jimple.InvokeSpecial, Class: c.Super,
				Name: "<init>", Sig: descriptor.Method{Return: descriptor.Void}, Base: this}},
			&jimple.Return{},
		}
		return c
	case 1:
		// Extends a JRE7-only class: NoClassDefFoundError elsewhere.
		c := jimple.NewClass(name)
		c.Super = "com/sun/legacy/Jre7Only"
		return c
	case 2:
		// Implements a JRE8+ interface: loads on 8/9, missing on 7 and
		// Classpath (interface resolution differs by eagerness).
		c := jimple.NewClass(name)
		c.Interfaces = append(c.Interfaces, "java/util/function/Function")
		c.AddDefaultInit()
		return c
	default:
		// Declares a sun.* internal thrown: splits on throws checking.
		c := jimple.NewClass(name)
		c.AddDefaultInit()
		m := c.AddMethod(classfile.AccPublic, "render", nil, descriptor.Void)
		m.Throws = []string{"sun/java2d/pisces/PiscesRenderingEngine$2"}
		this := m.NewLocal("r0", descriptor.Object(name))
		m.Body = []jimple.Stmt{&jimple.Identity{Target: this, Param: -1}, &jimple.Return{}}
		return c
	}
}
