package jimple

import (
	"strings"
	"testing"

	"repro/internal/classfile"
	"repro/internal/descriptor"
	"repro/internal/jvm"
)

// hello builds the canonical valid Jimple class.
func hello(name string) *Class {
	c := NewClass(name)
	c.AddDefaultInit()
	c.AddStandardMain("Completed!")
	return c
}

func lowerBytes(t *testing.T, c *Class) []byte {
	t.Helper()
	f, err := Lower(c)
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	data, err := f.Bytes()
	if err != nil {
		t.Fatalf("Bytes: %v", err)
	}
	return data
}

func TestLoweredHelloRunsOnAllVMs(t *testing.T) {
	data := lowerBytes(t, hello("JHello"))
	for _, spec := range jvm.StandardFive() {
		vm := jvm.New(spec)
		o := vm.Run(data)
		if !o.OK() {
			t.Errorf("%s: %s", spec.Name, o)
			continue
		}
		if len(o.Output) != 1 || o.Output[0] != "Completed!" {
			t.Errorf("%s: output %v", spec.Name, o.Output)
		}
	}
}

func TestLowerArithmeticAndControlFlow(t *testing.T) {
	// main: i = 10; loop: if i <= 0 goto end; i = i - 3; goto loop;
	// end: println(String.valueOf(i))
	c := NewClass("JArith")
	c.AddDefaultInit()
	m := c.AddMethod(classfile.AccPublic|classfile.AccStatic, "main",
		[]descriptor.Type{descriptor.Array(descriptor.Object("java/lang/String"), 1)}, descriptor.Void)
	args := m.NewLocal("r0", descriptor.Array(descriptor.Object("java/lang/String"), 1))
	i := m.NewLocal("i0", descriptor.Int)
	s := m.NewLocal("s0", descriptor.Object("java/lang/String"))
	out := m.NewLocal("o0", descriptor.Object("java/io/PrintStream"))
	m.Body = []Stmt{
		/*0*/ &Identity{Target: args, Param: 0},
		/*1*/ &Assign{LHS: &UseLocal{L: i}, RHS: &IntConst{V: 10, Kind: 'I'}},
		/*2*/ &If{Op: CondLe, L: &UseLocal{L: i}, R: &IntConst{V: 0, Kind: 'I'}, Target: 5},
		/*3*/ &Assign{LHS: &UseLocal{L: i}, RHS: &BinOp{Op: OpSub, L: &UseLocal{L: i}, R: &IntConst{V: 3, Kind: 'I'}, Kind: 'I'}},
		/*4*/ &Goto{Target: 2},
		/*5*/ &Assign{LHS: &UseLocal{L: s}, RHS: &Invoke{Kind: InvokeStatic, Class: "java/lang/String", Name: "valueOf",
			Sig:  descriptor.Method{Params: []descriptor.Type{descriptor.Int}, Return: descriptor.Object("java/lang/String")},
			Args: []Expr{&UseLocal{L: i}}}},
		/*6*/ &Assign{LHS: &UseLocal{L: out}, RHS: &StaticFieldRef{Class: "java/lang/System", Name: "out", Type: descriptor.Object("java/io/PrintStream")}},
		/*7*/ &InvokeStmt{Call: &Invoke{Kind: InvokeVirtual, Class: "java/io/PrintStream", Name: "println",
			Sig:  descriptor.Method{Params: []descriptor.Type{descriptor.Object("java/lang/String")}, Return: descriptor.Void},
			Base: out, Args: []Expr{&UseLocal{L: s}}}},
		/*8*/ &Return{},
	}
	data := lowerBytes(t, c)
	vm := jvm.New(jvm.HotSpot8())
	o := vm.Run(data)
	if !o.OK() {
		t.Fatalf("run: %s", o)
	}
	// 10 -> 7 -> 4 -> 1 -> -2, loop exits at -2.
	if len(o.Output) != 1 || o.Output[0] != "-2" {
		t.Errorf("output = %v, want [-2]", o.Output)
	}
}

func TestLowerFieldsAndObjects(t *testing.T) {
	// static counter field incremented in <clinit>, printed by main.
	c := NewClass("JField")
	c.AddField(classfile.AccPublic|classfile.AccStatic, "counter", descriptor.Int)
	c.AddDefaultInit()
	cl := c.AddMethod(classfile.AccStatic, "<clinit>", nil, descriptor.Void)
	cnt := &StaticFieldRef{Class: "JField", Name: "counter", Type: descriptor.Int}
	cl.Body = []Stmt{
		&Assign{LHS: cnt, RHS: &IntConst{V: 41, Kind: 'I'}},
		&Assign{LHS: cnt, RHS: &BinOp{Op: OpAdd, L: cnt, R: &IntConst{V: 1, Kind: 'I'}, Kind: 'I'}},
		&Return{},
	}
	m := c.AddMethod(classfile.AccPublic|classfile.AccStatic, "main",
		[]descriptor.Type{descriptor.Array(descriptor.Object("java/lang/String"), 1)}, descriptor.Void)
	args := m.NewLocal("r0", descriptor.Array(descriptor.Object("java/lang/String"), 1))
	s := m.NewLocal("s0", descriptor.Object("java/lang/String"))
	out := m.NewLocal("o0", descriptor.Object("java/io/PrintStream"))
	m.Body = []Stmt{
		&Identity{Target: args, Param: 0},
		&Assign{LHS: &UseLocal{L: s}, RHS: &Invoke{Kind: InvokeStatic, Class: "java/lang/String", Name: "valueOf",
			Sig:  descriptor.Method{Params: []descriptor.Type{descriptor.Int}, Return: descriptor.Object("java/lang/String")},
			Args: []Expr{cnt}}},
		&Assign{LHS: &UseLocal{L: out}, RHS: &StaticFieldRef{Class: "java/lang/System", Name: "out", Type: descriptor.Object("java/io/PrintStream")}},
		&InvokeStmt{Call: &Invoke{Kind: InvokeVirtual, Class: "java/io/PrintStream", Name: "println",
			Sig:  descriptor.Method{Params: []descriptor.Type{descriptor.Object("java/lang/String")}, Return: descriptor.Void},
			Base: out, Args: []Expr{&UseLocal{L: s}}}},
		&Return{},
	}
	data := lowerBytes(t, c)
	o := jvm.New(jvm.HotSpot9()).Run(data)
	if !o.OK() {
		t.Fatalf("run: %s", o)
	}
	if len(o.Output) != 1 || o.Output[0] != "42" {
		t.Errorf("output = %v, want [42]", o.Output)
	}
}

func TestLiftLowerRoundTripStructured(t *testing.T) {
	// Lower a structured class, lift it back, lower again: the second
	// classfile must behave identically on the reference VM.
	orig := hello("JRound")
	f1, err := Lower(orig)
	if err != nil {
		t.Fatal(err)
	}
	lifted, err := Lift(f1)
	if err != nil {
		t.Fatal(err)
	}
	// The lift must produce structured statements, not a Raw fallback.
	for _, m := range lifted.Methods {
		for _, s := range m.Body {
			if _, raw := s.(*Raw); raw {
				t.Errorf("method %s lifted to Raw; expected structured statements", m.Name)
			}
		}
	}
	f2, err := Lower(lifted)
	if err != nil {
		t.Fatal(err)
	}
	d1, _ := f1.Bytes()
	d2, _ := f2.Bytes()
	vm := jvm.New(jvm.HotSpot9())
	o1, o2 := vm.Run(d1), vm.Run(d2)
	if o1.Code() != o2.Code() || len(o1.Output) != len(o2.Output) {
		t.Errorf("round trip changed behaviour: %s vs %s", o1, o2)
	}
}

func TestLiftClassStructure(t *testing.T) {
	c := NewClass("JStruct")
	c.Interfaces = []string{"java/io/Serializable", "java/lang/Runnable"}
	c.AddField(classfile.AccPrivate|classfile.AccFinal, "map", descriptor.Object("java/util/Map"))
	c.AddDefaultInit()
	m := c.AddMethod(classfile.AccPublic, "run", nil, descriptor.Void)
	m.Throws = []string{"java/io/IOException", "java/lang/InterruptedException"}
	this := m.NewLocal("r0", descriptor.Object("JStruct"))
	m.Body = []Stmt{&Identity{Target: this, Param: -1}, &Return{}}

	f, err := Lower(c)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Lift(f)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "JStruct" || back.Super != "java/lang/Object" {
		t.Error("identity lost")
	}
	if len(back.Interfaces) != 2 || back.Interfaces[0] != "java/io/Serializable" {
		t.Errorf("interfaces = %v", back.Interfaces)
	}
	if len(back.Fields) != 1 || back.Fields[0].Name != "map" || back.Fields[0].Type.ClassName != "java/util/Map" {
		t.Errorf("fields = %+v", back.Fields)
	}
	run := back.FindMethod("run")
	if run == nil || len(run.Throws) != 2 || run.Throws[1] != "java/lang/InterruptedException" {
		t.Errorf("throws lost: %+v", run)
	}
}

func TestLiftFallsBackToRawForHandlers(t *testing.T) {
	// Build a classfile with an exception handler via the classfile
	// builder; lifting must produce a Raw body that still round-trips.
	f := classfile.New("JTrap")
	classfile.AttachDefaultInit(f)
	m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
	cb := classfile.NewCodeBuilder(f.Pool)
	cb.LdcInt(1).LdcInt(0).Op(0x6c).Op(0x57) // idiv; pop
	end := cb.PC()
	cb.Op(0xb1) // return
	h := cb.PC()
	cb.Op(0x57) // pop exception
	cb.Getstatic("java/lang/System", "out", "Ljava/io/PrintStream;").
		Ldc("caught").
		Invokevirtual("java/io/PrintStream", "println", "(Ljava/lang/String;)V").
		Op(0xb1)
	cb.Handler(0, end, h, "java/lang/ArithmeticException")
	cb.SetMaxStack(2).SetMaxLocals(1)
	m.Attributes = append(m.Attributes, cb.Build())

	lifted, err := Lift(f)
	if err != nil {
		t.Fatal(err)
	}
	lm := lifted.FindMethod("main")
	if len(lm.Body) != 1 {
		t.Fatalf("expected single Raw stmt, got %d stmts", len(lm.Body))
	}
	if _, ok := lm.Body[0].(*Raw); !ok {
		t.Fatalf("expected Raw, got %T", lm.Body[0])
	}
	data := lowerBytes(t, lifted)
	o := jvm.New(jvm.HotSpot8()).Run(data)
	if !o.OK() || len(o.Output) != 1 || o.Output[0] != "caught" {
		t.Errorf("raw round trip: %s (output %v)", o, o.Output)
	}
}

func TestCloneIndependence(t *testing.T) {
	c := hello("JClone")
	c.AddField(classfile.AccPublic, "f", descriptor.Int)
	main := c.Methods[1]
	main.Throws = []string{"java/lang/Exception"}
	// Spare capacity, so an unclipped append through a clone would
	// write into main's arrays instead of reallocating.
	main.Body = append(make([]Stmt, 0, len(main.Body)+4), main.Body...)
	main.Locals = append(make([]*Local, 0, len(main.Locals)+4), main.Locals...)
	bodyLen, localsLen := len(main.Body), len(main.Locals)

	d := c.Clone()
	// Copy-on-write: until a member is owned, the clone shares it.
	for i := range c.Methods {
		if d.Methods[i] != c.Methods[i] {
			t.Fatalf("method %d copied before any write", i)
		}
	}
	if d.Fields[0] != c.Fields[0] {
		t.Fatal("field copied before any write")
	}
	d.Name = "Other"
	if c.Name != "JClone" {
		t.Error("name shared")
	}

	d.OwnField(0).Name = "g"
	if d.OwnField(0) != d.Fields[0] || c.Fields[0].Name != "f" {
		t.Error("OwnField must copy once and then return the owned copy")
	}

	// OwnMethod: a private header (Params and Throws included) over the
	// parent's Body and Locals, capacity-clipped.
	h := d.OwnMethod(1)
	if h == main || d.OwnMethod(1) != h {
		t.Fatal("OwnMethod must copy once and then return the owned copy")
	}
	h.Modifiers |= classfile.AccFinal
	h.Params[0] = descriptor.Int
	h.Throws[0] = "java/lang/Error"
	if main.Modifiers.Has(classfile.AccFinal) || main.Params[0] == descriptor.Int || main.Throws[0] != "java/lang/Exception" {
		t.Error("OwnMethod left the header shared")
	}
	if &h.Body[0] != &main.Body[0] || &h.Locals[0] != &main.Locals[0] {
		t.Error("OwnMethod copied the body or locals")
	}
	h.Body = append(h.Body, &Nop{})
	h.NewLocal("extra", descriptor.Int)
	if main.Body[:bodyLen+1][bodyLen] != nil || main.Locals[:localsLen+1][localsLen] != nil {
		t.Error("an append through OwnMethod's copy wrote into the parent's array")
	}
	if len(main.Body) != bodyLen || len(main.Locals) != localsLen {
		t.Error("bodies shared")
	}

	// OwnBody: the statements and locals become private too, with every
	// reference remapped onto the copies; the owned header is kept.
	b := d.OwnBody(1)
	if b != h || d.OwnBody(1) != b {
		t.Error("OwnBody of an owned header must copy the body in place, once")
	}
	if b.Modifiers != h.Modifiers || len(b.Body) != bodyLen+1 || len(b.Locals) != localsLen+1 {
		t.Error("OwnBody lost the header's edits")
	}
	init := d.OwnBody(0)
	if init == c.Methods[0] {
		t.Fatal("OwnBody of a shared method must copy it")
	}
	for _, m := range d.Methods {
		for _, l := range m.Locals {
			for _, pm := range c.Methods {
				for _, ol := range pm.Locals {
					if l == ol {
						t.Fatal("local aliased across clone")
					}
				}
			}
		}
	}
	for i, s := range b.Body[:bodyLen] {
		if s == main.Body[i] {
			t.Fatalf("statement %d shared after OwnBody", i)
		}
	}

	// A body that may move to another method is shared again: after
	// OwnMethod or DuplicateMethod, the next OwnBody copies it.
	first := &init.Body[0]
	d.OwnMethod(0)
	if d.OwnBody(0) != init || &init.Body[0] == first {
		t.Error("OwnBody after OwnMethod must copy the body again")
	}
	first = &init.Body[0]
	d.DuplicateMethod(0)
	dup := d.Methods[len(d.Methods)-1]
	if dup == init || &dup.Body[0] != first {
		t.Error("DuplicateMethod must append a header copy sharing the body")
	}
	if d.OwnBody(0); &init.Body[0] == first {
		t.Error("OwnBody after DuplicateMethod must copy the body again")
	}
}

func TestRetargeting(t *testing.T) {
	body := []Stmt{
		&Nop{},           // 0
		&Goto{Target: 3}, // 1
		&Nop{},           // 2
		&If{Target: 0},   // 3
		&Return{},        // 4
	}
	RetargetAfterRemoval(body, 2)
	if body[1].(*Goto).Target != 2 {
		t.Errorf("goto target = %d, want 2", body[1].(*Goto).Target)
	}
	if body[3].(*If).Target != 0 {
		t.Errorf("if target = %d, want 0", body[3].(*If).Target)
	}
	RetargetAfterInsertion(body, 0)
	if body[1].(*Goto).Target != 3 {
		t.Errorf("after insertion goto target = %d, want 3", body[1].(*Goto).Target)
	}
}

func TestPrintStyle(t *testing.T) {
	c := hello("JPrint")
	c.Interfaces = []string{"java/io/Serializable"}
	c.AddField(classfile.AccProtected|classfile.AccFinal, "MAP", descriptor.Object("java/util/Map"))
	text := Print(c)
	for _, want := range []string{
		"public class JPrint extends java.lang.Object implements java.io.Serializable",
		"protected final java.util.Map MAP;",
		"r0 := @this",
		"r0 := @parameter0: java.lang.String[]",
		`virtualinvoke $r1.<java.io.PrintStream: void println(java.lang.String)>("Completed!")`,
		"specialinvoke r0.<java.lang.Object: void <init>()>()",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Print output missing %q\n%s", want, text)
		}
	}
}

func TestLowerEmptyBodyIsIllegalCode(t *testing.T) {
	c := NewClass("JEmpty")
	m := c.AddMethod(classfile.AccPublic, "m", nil, descriptor.Void)
	m.Body = []Stmt{} // non-nil empty: empty code array
	f, err := Lower(c)
	if err != nil {
		t.Fatal(err)
	}
	code := f.FindMethod("m").Code()
	if code == nil || len(code.Code) != 0 {
		t.Error("empty body must lower to an empty code array")
	}
	// And abstract (nil body) methods have no Code at all.
	c2 := NewClass("JAbs")
	c2.AddMethod(classfile.AccPublic|classfile.AccAbstract, "a", nil, descriptor.Void)
	f2, err := Lower(c2)
	if err != nil {
		t.Fatal(err)
	}
	if f2.FindMethod("a").Code() != nil {
		t.Error("abstract method must have no Code attribute")
	}
}

func TestLowerThrowStatement(t *testing.T) {
	c := NewClass("JThrow")
	c.AddDefaultInit()
	m := c.AddMethod(classfile.AccPublic|classfile.AccStatic, "main",
		[]descriptor.Type{descriptor.Array(descriptor.Object("java/lang/String"), 1)}, descriptor.Void)
	args := m.NewLocal("r0", descriptor.Array(descriptor.Object("java/lang/String"), 1))
	e := m.NewLocal("e0", descriptor.Object("java/lang/RuntimeException"))
	m.Body = []Stmt{
		&Identity{Target: args, Param: 0},
		&Assign{LHS: &UseLocal{L: e}, RHS: &NewExpr{Class: "java/lang/RuntimeException"}},
		&InvokeStmt{Call: &Invoke{Kind: InvokeSpecial, Class: "java/lang/RuntimeException", Name: "<init>",
			Sig: descriptor.Method{Return: descriptor.Void}, Base: e}},
		&Throw{Value: &UseLocal{L: e}},
	}
	data := lowerBytes(t, c)
	o := jvm.New(jvm.HotSpot8()).Run(data)
	if o.Phase != jvm.PhaseRuntime || o.Error != "java.lang.RuntimeException" {
		t.Errorf("want RuntimeException at runtime, got %s", o)
	}
}

func TestMutatedUseBeforeDefIsVerifyError(t *testing.T) {
	// Table 2's Jimple-file mutation: moving the use of $r1 before its
	// definition. The lowered class must fail verification on eager VMs.
	c := NewClass("JSwap")
	c.AddDefaultInit()
	main := c.AddStandardMain("Executed")
	// Swap the assignment of $r1 and its use (statements 1 and 2).
	main.Body[1], main.Body[2] = main.Body[2], main.Body[1]
	data := lowerBytes(t, c)
	o := jvm.New(jvm.HotSpot8()).Run(data)
	if o.Phase != jvm.PhaseLinking || o.Error != jvm.ErrVerify {
		t.Errorf("use-before-def should be a linking VerifyError, got %s", o)
	}
	// J9 (lazy) only fails when main is invoked.
	o9 := jvm.New(jvm.J9()).Run(data)
	if o9.OK() {
		t.Errorf("J9 should fail when invoking main, got %s", o9)
	}
}

func TestStmtStringForms(t *testing.T) {
	l := &Local{Name: "x", Type: descriptor.Int}
	cases := map[string]Stmt{
		"x = 5":          &Assign{LHS: &UseLocal{L: l}, RHS: &IntConst{V: 5, Kind: 'I'}},
		"return x":       &Return{Value: &UseLocal{L: l}},
		"return":         &Return{},
		"nop":            &Nop{},
		"goto [7]":       &Goto{Target: 7},
		"throw x":        &Throw{Value: &UseLocal{L: l}},
		"entermonitor x": &EnterMonitor{X: &UseLocal{L: l}},
	}
	for want, s := range cases {
		if got := StmtString(s, nil); got != want {
			t.Errorf("StmtString = %q, want %q", got, want)
		}
	}
	ifs := &If{Op: CondGe, L: &UseLocal{L: l}, R: &IntConst{V: 0, Kind: 'I'}, Target: 2}
	if got := StmtString(ifs, nil); got != "if x >= 0 goto [2]" {
		t.Errorf("if = %q", got)
	}
}
