package reduce

import (
	"bytes"
	"testing"

	"repro/internal/catalog"
	"repro/internal/classfile"
	"repro/internal/descriptor"
	"repro/internal/difftest"
	"repro/internal/jimple"
)

// fig2Mutant builds a noisy version of the Figure 2 class: the
// discrepancy-triggering abstract <clinit> buried among irrelevant
// fields, methods and statements.
func fig2Mutant() *jimple.Class {
	c := jimple.NewClass("RFig2")
	c.Interfaces = []string{"java/io/Serializable", "java/lang/Cloneable"}
	c.AddField(classfile.AccPrivate, "noise1", descriptor.Int)
	c.AddField(classfile.AccProtected, "noise2", descriptor.Object("java/util/Map"))
	c.AddDefaultInit()
	c.AddStandardMain("Completed!")

	// Irrelevant helper with several statements.
	h := c.AddMethod(classfile.AccPublic|classfile.AccStatic, "helper", nil, descriptor.Int)
	x := h.NewLocal("i0", descriptor.Int)
	h.Body = []jimple.Stmt{
		&jimple.Assign{LHS: &jimple.UseLocal{L: x}, RHS: &jimple.IntConst{V: 1, Kind: 'I'}},
		&jimple.Assign{LHS: &jimple.UseLocal{L: x}, RHS: &jimple.BinOp{Op: jimple.OpAdd, L: &jimple.UseLocal{L: x}, R: &jimple.IntConst{V: 2, Kind: 'I'}, Kind: 'I'}},
		&jimple.Return{Value: &jimple.UseLocal{L: x}},
	}
	// Irrelevant throws clause.
	r := c.AddMethod(classfile.AccPublic, "risky", nil, descriptor.Void)
	r.Throws = []string{"java/io/IOException"}
	this := r.NewLocal("r0", descriptor.Object("RFig2"))
	r.Body = []jimple.Stmt{&jimple.Identity{Target: this, Param: -1}, &jimple.Return{}}

	// The actual trigger.
	c.AddMethod(classfile.AccPublic|classfile.AccAbstract, "<clinit>", nil, descriptor.Void)
	return c
}

func TestReducePreservesVectorAndShrinks(t *testing.T) {
	c := fig2Mutant()
	runner := difftest.NewStandardRunner()
	before := Size(c)
	res, err := Reduce(c, runner, Options{})
	if err != nil {
		t.Fatal(err)
	}
	after := Size(res.Reduced)
	if after >= before {
		t.Errorf("no shrinkage: %d -> %d", before, after)
	}
	// The preserved vector must still be the J9-splitting discrepancy.
	f, _ := jimple.Lower(res.Reduced)
	data, _ := f.Bytes()
	v := runner.Run(data)
	if v.Key() != res.Vector {
		t.Errorf("final class has vector %s, recorded %s", v.Key(), res.Vector)
	}
	if !v.Discrepant() {
		t.Error("reduced class no longer triggers the discrepancy")
	}
	// The trigger method must survive.
	if res.Reduced.FindMethod("<clinit>") == nil {
		t.Error("reduction deleted the discrepancy trigger")
	}
	// The noise must be gone.
	if res.Reduced.FindMethod("helper") != nil {
		t.Error("irrelevant helper survived")
	}
	if len(res.Reduced.Fields) != 0 {
		t.Errorf("%d irrelevant fields survived", len(res.Reduced.Fields))
	}
	if res.Deleted == 0 || res.Tests < 2 {
		t.Errorf("bookkeeping: deleted=%d tests=%d", res.Deleted, res.Tests)
	}
}

// lowered lowers c and serialises it.
func lowered(t *testing.T, c *jimple.Class) []byte {
	t.Helper()
	f, err := jimple.Lower(c)
	if err != nil {
		t.Fatal(err)
	}
	data, err := f.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestReduceInputNotMutated(t *testing.T) {
	c := fig2Mutant()
	before := Size(c)
	runner := difftest.NewStandardRunner()
	if _, err := Reduce(c, runner, Options{MaxRounds: 2}); err != nil {
		t.Fatal(err)
	}
	if Size(c) != before {
		t.Error("Reduce mutated its input")
	}
}

func TestReduceIdempotentOnMinimal(t *testing.T) {
	// A class that is already minimal for its vector barely shrinks.
	c := jimple.NewClass("RMin")
	c.AddMethod(classfile.AccPublic|classfile.AccAbstract, "<clinit>", nil, descriptor.Void)
	runner := difftest.NewStandardRunner()
	res, err := Reduce(c, runner, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reduced.FindMethod("<clinit>") == nil {
		t.Error("minimal trigger deleted")
	}
}

func TestReduceErrorsOnUnlowerable(t *testing.T) {
	c := jimple.NewClass("RBad")
	// 70000 interfaces cannot serialise (u2 count overflow).
	for i := 0; i < 70000; i++ {
		c.Interfaces = append(c.Interfaces, "java/io/Serializable")
	}
	runner := difftest.NewStandardRunner()
	if _, err := Reduce(c, runner, Options{MaxRounds: 1}); err == nil {
		t.Error("expected an error for an unserialisable class")
	}
}

func TestSizeMetric(t *testing.T) {
	c := jimple.NewClass("RSize")
	if Size(c) != 1 {
		t.Errorf("empty class size = %d", Size(c))
	}
	c.AddField(classfile.AccPublic, "f", descriptor.Int)
	c.Interfaces = []string{"java/io/Serializable"}
	m := c.AddMethod(classfile.AccPublic, "m", nil, descriptor.Void)
	m.Throws = []string{"java/lang/Exception"}
	m.Body = []jimple.Stmt{&jimple.Return{}}
	// 1 class + 1 iface + 1 field + (1 method + 1 throws + 1 stmt + 0 locals)
	if Size(c) != 6 {
		t.Errorf("size = %d, want 6", Size(c))
	}
}

// TestReduceCandidatesCopyOnWrite applies every candidate deletion of
// every stage to a copy-on-write clone of the base and checks that the
// base is left untouched (its bytes and its Jimple text) and that the candidate lowers to the same bytes
// as the deletion applied to a copy owning every field and all of every
// method.
func TestReduceCandidatesCopyOnWrite(t *testing.T) {
	bases := []*jimple.Class{fig2Mutant()}
	for _, e := range catalog.Entries() {
		if e.Build != nil {
			bases = append(bases, e.Build())
		}
	}
	for _, base := range bases {
		before, beforeText := lowered(t, base), jimple.Print(base)
		for si, stage := range stages {
			for ci, d := range stage(base) {
				cand := base.Clone()
				ref := base.Clone()
				for i := range ref.Fields {
					ref.OwnField(i)
				}
				for i := range ref.Methods {
					ref.OwnBody(i)
				}
				if d(cand) != d(ref) {
					t.Fatalf("%s stage %d candidate %d: applicability differs from the owning reference", base.Name, si, ci)
				}
				if !bytes.Equal(lowered(t, cand), lowered(t, ref)) {
					t.Fatalf("%s stage %d candidate %d: bytes differ from the owning reference", base.Name, si, ci)
				}
				if !bytes.Equal(lowered(t, base), before) || jimple.Print(base) != beforeText {
					t.Fatalf("%s stage %d candidate %d changed the base class", base.Name, si, ci)
				}
			}
		}
	}
}
