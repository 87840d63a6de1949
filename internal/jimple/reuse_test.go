package jimple_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/descriptor"
	"repro/internal/jimple"
	"repro/internal/mutation"
	"repro/internal/seedgen"
)

// lowerLikeFresh lowers c through ctx and fails unless the bytes equal
// a one-shot Lower's. A class neither lowers is fine; one lowering and
// the other not is not.
func lowerLikeFresh(t *testing.T, ctx *jimple.LowerCtx, c *jimple.Class) {
	t.Helper()
	want, wantErr := lowerBytes(jimple.NewLowerCtx(), c)
	got, gotErr := lowerBytes(ctx, c)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s: a warm context's error %v, a fresh Lower's %v", c.Name, gotErr, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: a warm context writes other bytes than a fresh Lower", c.Name)
	}
}

func lowerBytes(ctx *jimple.LowerCtx, c *jimple.Class) ([]byte, error) {
	f, err := ctx.Lower(c)
	if err != nil {
		return nil, err
	}
	return f.AppendBytes(nil)
}

// widthClass is a class whose first fields fields come before two
// static bodies in the constant pool: one ldc's a String and an int,
// the other ldc2_w's a long.
func widthClass(fields int) *jimple.Class {
	c := jimple.NewClass("W")
	for i := 0; i < fields; i++ {
		c.AddField(classfile.AccStatic, fmt.Sprintf("f%d", i), descriptor.Int)
	}
	s := c.AddMethod(classfile.AccStatic, "s", nil, descriptor.Object("java/lang/String"))
	n := s.NewLocal("i0", descriptor.Int)
	s.Body = []jimple.Stmt{
		&jimple.Assign{LHS: &jimple.UseLocal{L: n}, RHS: &jimple.IntConst{V: 1 << 20, Kind: 'I'}},
		&jimple.Return{Value: &jimple.StringConst{V: "hello"}},
	}
	l := c.AddMethod(classfile.AccStatic, "l", nil, descriptor.Long)
	l.Body = []jimple.Stmt{&jimple.Return{Value: &jimple.IntConst{V: 1 << 40, Kind: 'J'}}}
	return c
}

// TestLowerReuseWidthFallback pins the width guard: a recorded body
// whose ldc operand moves across index 0xFF in a clone's pool — up past
// it, or down under it from an ldc_w — must be lowered afresh, with the
// bytes of a one-shot Lower, while a clone whose indices keep their
// width replays.
func TestLowerReuseWidthFallback(t *testing.T) {
	for _, tc := range []struct {
		name                      string
		parentFields, childFields int
		recorded, child           bytecode.Opcode
	}{
		{"ldc widens", 0, 300, bytecode.Ldc, bytecode.LdcW},
		{"ldc_w narrows", 300, 0, bytecode.LdcW, bytecode.Ldc},
	} {
		t.Run(tc.name, func(t *testing.T) {
			parent := widthClass(tc.parentFields)
			ctx := jimple.NewLowerCtx()
			lowerLikeFresh(t, ctx, parent.Clone()) // records both bodies
			if st := ctx.Stats(); st.BodiesReused != 0 || st.BodiesLowered != 2 {
				t.Fatalf("first clone: %+v, want both bodies lowered", st)
			}
			if op := firstOp(t, parent); op != tc.recorded {
				t.Fatalf("the recorded body starts with opcode %#x, want %#x", op, tc.recorded)
			}

			child := parent.Clone()
			child.Fields = widthClass(tc.childFields).Fields
			if op := firstOp(t, child); op != tc.child {
				t.Fatalf("the child's body starts with opcode %#x, want %#x", op, tc.child)
			}
			lowerLikeFresh(t, ctx, child)
			if st := ctx.Stats(); st.WidthFallbacks != 1 || st.BodiesReused != 1 || st.BodiesLowered != 3 {
				t.Fatalf("child: %+v, want the ldc body to fall back and the ldc2_w body to replay", st)
			}

			lowerLikeFresh(t, ctx, parent.Clone())
			if st := ctx.Stats(); st.WidthFallbacks != 1 || st.BodiesReused != 3 {
				t.Fatalf("second clone: %+v, want both bodies replayed", st)
			}
		})
	}
}

// TestLowerReuseParams: a header-only mutant that changes a method's
// parameters still shares its body, but the parameters move the slots
// of its locals, so the recording made under the old parameters must
// not replay for it.
func TestLowerReuseParams(t *testing.T) {
	parent := widthClass(0)
	ctx := jimple.NewLowerCtx()
	lowerLikeFresh(t, ctx, parent.Clone())
	child := parent.Clone()
	child.OwnMethod(0).Params = []descriptor.Type{descriptor.Long}
	lowerLikeFresh(t, ctx, child)
	lowerLikeFresh(t, ctx, child.Clone()) // records s under the new parameters
	lowerLikeFresh(t, ctx, child.Clone())
	if st := ctx.Stats(); st.BodiesReused != 4 {
		t.Fatalf("%+v, want 4 replays: l in each clone after the first, s in the last", st)
	}
}

// TestLowerReuseRawBodies covers a lifted class: its raw body's pool
// operands and handler catch type are re-interned from the OrigPool,
// and a replay must relocate them into clones' pools. Dropping the
// fields moves the ldc_w of m and of main under index 0xFF, so that
// clone's two bodies are lowered afresh.
func TestLowerReuseRawBodies(t *testing.T) {
	g, err := classfile.Parse(rawWideClass(t))
	if err != nil {
		t.Fatal(err)
	}
	parent, err := jimple.Lift(g)
	if err != nil {
		t.Fatal(err)
	}
	if m := parent.FindMethod("m"); len(m.Body) != 1 || len(m.RawHandlers) != 1 {
		t.Fatalf("method m lifted as %d statements and %d handlers, want one raw statement and one handler", len(m.Body), len(m.RawHandlers))
	}
	ctx := jimple.NewLowerCtx()
	lowerLikeFresh(t, ctx, parent.Clone())
	before := ctx.Stats()
	renamed := parent.Clone()
	renamed.Name = "RawWideRenamed"
	renamed.Methods = append(renamed.Methods, jimple.StandardMain("again"))
	lowerLikeFresh(t, ctx, renamed)
	if st := ctx.Stats(); st.BodiesReused-before.BodiesReused != 3 {
		t.Fatalf("renamed clone replayed %d bodies, want all 3 of the parent's", st.BodiesReused-before.BodiesReused)
	}
	narrow := parent.Clone()
	narrow.Fields = nil
	lowerLikeFresh(t, ctx, narrow)
	if st := ctx.Stats(); st.WidthFallbacks != 2 {
		t.Fatalf("clone without fields: %d width fallbacks, want 2", st.WidthFallbacks)
	}
}

// firstOp returns the first opcode of method s as a one-shot Lower
// emits it (after the int store, the string ldc).
func firstOp(t *testing.T, c *jimple.Class) bytecode.Opcode {
	t.Helper()
	f, err := jimple.Lower(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range f.Methods {
		if m.Name(f.Pool) != "s" {
			continue
		}
		ins, err := bytecode.Decode(m.Code().Code)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range ins {
			if in.Op == bytecode.Ldc || in.Op == bytecode.LdcW {
				if _, ok := f.Pool.Utf8(f.Pool.Get(in.CPIndex).Ref1); ok {
					return in.Op
				}
			}
		}
	}
	t.Fatal("no String ldc in method s")
	return 0
}

// TestLowerReuseAllocatesNothing: once a context has recorded a
// corpus's bodies, lowering fresh clones of it replays every body and
// allocates nothing.
func TestLowerReuseAllocatesNothing(t *testing.T) {
	corpus := seedgen.Generate(seedgen.DefaultOptions(40, 9))
	ctx := jimple.NewLowerCtx()
	bodies := 0
	for _, c := range corpus {
		lowerLikeFresh(t, ctx, c.Clone())
		for _, m := range c.Methods {
			if len(m.Body) > 0 {
				bodies++
			}
		}
	}
	clones := make([]*jimple.Class, len(corpus))
	for i, c := range corpus {
		clones[i] = c.Clone()
	}
	before := ctx.Stats()
	const runs = 3
	allocs := testing.AllocsPerRun(runs, func() {
		for _, c := range clones {
			if _, err := ctx.Lower(c); err != nil {
				t.Fatal(err)
			}
		}
	})
	reused := ctx.Stats().BodiesReused - before.BodiesReused
	if want := int64((runs + 1) * bodies); reused != want {
		t.Errorf("replayed %d bodies, want %d", reused, want)
	}
	if allocs != 0 {
		t.Errorf("lowering %d clones whose bodies all replay allocates %.0f times", len(clones), allocs)
	}
}

// FuzzLowerReuse checks body reuse against the one-shot Lower it must
// equal. The input is parsed and lifted, which gives a class with an
// OrigPool and often raw bodies; then up to three generations of
// clone-and-mutate follow, as a campaign lineage does. At each
// generation one warm context lowers an unrelated class, the parent and
// the child, and each must write a fresh Lower's bytes. The seed corpus
// lives in testdata/fuzz/FuzzLowerReuse.
func FuzzLowerReuse(f *testing.F) {
	seeds, err := seedgen.GenerateFiles(seedgen.DefaultOptions(6, 2))
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, rawWideClass(f))
	for i, s := range seeds {
		f.Add(s, uint32(i)*0x01030507, int64(i))
	}

	muts := mutation.Registry()
	unrelated := seedgen.Generate(seedgen.DefaultOptions(1, 77))[0]
	ctx := jimple.NewLowerCtx()
	f.Fuzz(func(t *testing.T, data []byte, plan uint32, seed int64) {
		g, err := classfile.Parse(data)
		if err != nil {
			return
		}
		parent, err := jimple.Lift(g)
		if err != nil {
			return
		}
		gens := 1 + int(plan>>24)%3
		for k := 0; k < gens; k++ {
			child := parent.Clone()
			// A mutator id past the registry leaves the clone as it is.
			if id := int(byte(plan >> (8 * k))); id < len(muts) {
				muts[id].Apply(child, rand.New(rand.NewSource(seed+int64(k))))
			}
			lowerLikeFresh(t, ctx, unrelated)
			lowerLikeFresh(t, ctx, parent)
			lowerLikeFresh(t, ctx, child)
			parent = child
		}
	})
}

// rawWideClass writes a class with a constant pool past 0xFF entries
// and a method whose body lifts as raw code: a handler, an ldc_w of a
// String and a getstatic, all re-interned from the OrigPool.
func rawWideClass(tb testing.TB) []byte {
	f := classfile.New("RawWide")
	for i := 0; i < 300; i++ {
		f.AddField(classfile.AccStatic, fmt.Sprintf("f%d", i), "I")
	}
	cb := classfile.NewCodeBuilder(f.Pool)
	cb.Ldc("deep").
		Getstatic("RawWide", "f7", "I").
		Op(bytecode.Pop).
		Op(bytecode.Areturn).
		Op(bytecode.Areturn).
		Handler(0, 8, 8, "java/lang/RuntimeException")
	cb.SetMaxStack(2).SetMaxLocals(0)
	m := f.AddMethod(classfile.AccStatic, "m", "()Ljava/lang/Object;")
	m.Attributes = append(m.Attributes, cb.Build())
	classfile.AttachDefaultInit(f)
	classfile.AttachStandardMain(f, "Completed!")
	data, err := f.Bytes()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}
