package mutation

import (
	"math/rand"

	"repro/internal/classfile"
	"repro/internal/descriptor"
	"repro/internal/jimple"
)

// donor is the "another class" whose members the replace-all mutators
// graft in (Table 5 rows 1 and 5). It is never written: mutants share
// its fields and methods under copy-on-write, so a mutator that edits
// one in a later generation edits a private copy.
var donor = templateDonor()

// templateDonor builds the donor class. Its methods use only platform
// calls every release resolves.
func templateDonor() *jimple.Class {
	c := jimple.NewClass("fuzz/TemplateDonor")
	c.AddField(classfile.AccPrivate, "size", descriptor.Int)
	c.AddField(classfile.AccProtected|classfile.AccFinal, "MAP", descriptor.Object("java/util/Map"))
	c.AddField(classfile.AccPublic|classfile.AccStatic, "NAME", descriptor.Object("java/lang/String"))

	ts := c.AddMethod(classfile.AccPublic, "toString", nil, descriptor.Object("java/lang/String"))
	this := ts.NewLocal("r0", descriptor.Object("fuzz/TemplateDonor"))
	ts.Body = []jimple.Stmt{
		&jimple.Identity{Target: this, Param: -1},
		&jimple.Return{Value: &jimple.StringConst{V: "donor"}},
	}

	sz := c.AddMethod(classfile.AccPublic, "size", nil, descriptor.Int)
	this2 := sz.NewLocal("r0", descriptor.Object("fuzz/TemplateDonor"))
	sz.Body = []jimple.Stmt{
		&jimple.Identity{Target: this2, Param: -1},
		&jimple.Return{Value: &jimple.InstanceFieldRef{Base: this2, Class: "fuzz/TemplateDonor", Name: "size", Type: descriptor.Int}},
	}

	cp := c.AddMethod(classfile.AccPublic|classfile.AccStatic, "compute",
		[]descriptor.Type{descriptor.Int, descriptor.Int}, descriptor.Int)
	a := cp.NewLocal("i0", descriptor.Int)
	b := cp.NewLocal("i1", descriptor.Int)
	cp.Body = []jimple.Stmt{
		&jimple.Identity{Target: a, Param: 0},
		&jimple.Identity{Target: b, Param: 1},
		&jimple.Return{Value: &jimple.BinOp{Op: jimple.OpMul, L: &jimple.UseLocal{L: a}, R: &jimple.UseLocal{L: b}, Kind: 'I'}},
	}
	return c
}

func setFieldFlag(flag classfile.Flags) func(*jimple.Class, *rand.Rand) bool {
	return func(c *jimple.Class, rng *rand.Rand) bool {
		i := pickField(c, rng)
		if i < 0 || c.Fields[i].Modifiers.Has(flag) {
			return false
		}
		f := c.OwnField(i)
		f.Modifiers = f.Modifiers.With(flag)
		return true
	}
}

func clearFieldFlag(flag classfile.Flags) func(*jimple.Class, *rand.Rand) bool {
	return func(c *jimple.Class, rng *rand.Rand) bool {
		i := pickField(c, rng)
		if i < 0 || !c.Fields[i].Modifiers.Has(flag) {
			return false
		}
		f := c.OwnField(i)
		f.Modifiers = f.Modifiers.Without(flag)
		return true
	}
}

func registerFieldMutators() {
	register(CatField, "field.add", "insert a new field of a pooled type",
		func(c *jimple.Class, rng *rand.Rand) bool {
			t := fieldTypePool[rng.Intn(len(fieldTypePool))]
			c.AddField(classfile.AccPublic, freshName("f", rng), t)
			return true
		})
	register(CatField, "field.add_duplicate", "insert an exact duplicate of an existing field (the GIJ discrepancy)",
		func(c *jimple.Class, rng *rand.Rand) bool {
			i := pickField(c, rng)
			if i < 0 {
				return false
			}
			f := c.Fields[i]
			c.AddField(f.Modifiers, f.Name, f.Type)
			return true
		})
	register(CatField, "field.add_same_name_object", "add a same-named public Object field (Table 2's MAP example)",
		func(c *jimple.Class, rng *rand.Rand) bool {
			i := pickField(c, rng)
			if i < 0 {
				return false
			}
			c.AddField(classfile.AccPublic, c.Fields[i].Name, descriptor.Object("java/lang/Object"))
			return true
		})
	register(CatField, "field.remove_one", "delete one field (references keep pointing at it)",
		func(c *jimple.Class, rng *rand.Rand) bool {
			if len(c.Fields) == 0 {
				return false
			}
			i := rng.Intn(len(c.Fields))
			c.Fields = append(c.Fields[:i], c.Fields[i+1:]...)
			return true
		})
	register(CatField, "field.remove_all", "delete every field",
		func(c *jimple.Class, _ *rand.Rand) bool {
			if len(c.Fields) == 0 {
				return false
			}
			c.Fields = nil
			return true
		})
	register(CatField, "field.rename", "rename a field declaration only",
		func(c *jimple.Class, rng *rand.Rand) bool {
			i := pickField(c, rng)
			if i < 0 {
				return false
			}
			c.OwnField(i).Name = freshName("f", rng)
			return true
		})
	register(CatField, "field.change_type", "change a field's declared type",
		func(c *jimple.Class, rng *rand.Rand) bool {
			i := pickField(c, rng)
			if i < 0 {
				return false
			}
			c.OwnField(i).Type = fieldTypePool[rng.Intn(len(fieldTypePool))]
			return true
		})
	register(CatField, "field.set_public", "set ACC_PUBLIC on a field", setFieldFlag(classfile.AccPublic))
	register(CatField, "field.set_private", "set ACC_PRIVATE on a field", setFieldFlag(classfile.AccPrivate))
	register(CatField, "field.set_protected", "set ACC_PROTECTED on a field", setFieldFlag(classfile.AccProtected))
	register(CatField, "field.clear_visibility", "strip all visibility flags from a field",
		func(c *jimple.Class, rng *rand.Rand) bool {
			i := pickField(c, rng)
			vis := classfile.AccPublic | classfile.AccPrivate | classfile.AccProtected
			if i < 0 || c.Fields[i].Modifiers&vis == 0 {
				return false
			}
			f := c.OwnField(i)
			f.Modifiers = f.Modifiers.Without(vis)
			return true
		})
	register(CatField, "field.set_static", "set ACC_STATIC on a field", setFieldFlag(classfile.AccStatic))
	register(CatField, "field.clear_static", "clear ACC_STATIC from a field", clearFieldFlag(classfile.AccStatic))
	register(CatField, "field.set_final", "set ACC_FINAL on a field", setFieldFlag(classfile.AccFinal))
	register(CatField, "field.set_final_volatile", "set the conflicting ACC_FINAL|ACC_VOLATILE pair",
		func(c *jimple.Class, rng *rand.Rand) bool {
			i := pickField(c, rng)
			if i < 0 {
				return false
			}
			f := c.OwnField(i)
			f.Modifiers = f.Modifiers.With(classfile.AccFinal | classfile.AccVolatile)
			return true
		})
	register(CatField, "field.set_transient", "set ACC_TRANSIENT on a field", setFieldFlag(classfile.AccTransient))
	register(CatField, "field.replace_all", "replace all fields with those of another class (Table 5 row 5)",
		func(c *jimple.Class, _ *rand.Rand) bool {
			c.Fields = append([]*jimple.Field(nil), donor.Fields...)
			return true
		})
}

func setMethodFlag(flag classfile.Flags) func(*jimple.Class, *rand.Rand) bool {
	return func(c *jimple.Class, rng *rand.Rand) bool {
		i := pickMethod(c, rng)
		if i < 0 || c.Methods[i].Modifiers.Has(flag) {
			return false
		}
		m := c.OwnMethod(i)
		m.Modifiers = m.Modifiers.With(flag)
		return true
	}
}

func clearMethodFlag(flag classfile.Flags) func(*jimple.Class, *rand.Rand) bool {
	return func(c *jimple.Class, rng *rand.Rand) bool {
		i := pickMethod(c, rng)
		if i < 0 || !c.Methods[i].Modifiers.Has(flag) {
			return false
		}
		m := c.OwnMethod(i)
		m.Modifiers = m.Modifiers.Without(flag)
		return true
	}
}

func renameMethodTo(name string) func(*jimple.Class, *rand.Rand) bool {
	return func(c *jimple.Class, rng *rand.Rand) bool {
		i := pickMethod(c, rng)
		if i < 0 || c.Methods[i].Name == name {
			return false
		}
		c.OwnMethod(i).Name = name
		return true
	}
}

var returnTypePool = []descriptor.Type{
	descriptor.Void,
	descriptor.Int,
	descriptor.Long,
	descriptor.Object("java/lang/String"),
	descriptor.Object("java/lang/Thread"),
	descriptor.Object("java/util/Map"),
	descriptor.Array(descriptor.Int, 1),
}

func registerMethodMutators() {
	register(CatMethod, "method.add_void", "insert a new empty void method",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := c.AddMethod(classfile.AccPublic, freshName("m", rng), nil, descriptor.Void)
			this := m.NewLocal("r0", descriptor.Object(c.Name))
			m.Body = []jimple.Stmt{&jimple.Identity{Target: this, Param: -1}, &jimple.Return{}}
			return true
		})
	register(CatMethod, "method.add_static_int", "insert a new static int-returning method",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := c.AddMethod(classfile.AccPublic|classfile.AccStatic, freshName("calc", rng), nil, descriptor.Int)
			m.Body = []jimple.Stmt{&jimple.Return{Value: &jimple.IntConst{V: int64(rng.Intn(100)), Kind: 'I'}}}
			return true
		})
	register(CatMethod, "method.remove_one", "delete one method (Table 5 row 10)",
		func(c *jimple.Class, rng *rand.Rand) bool {
			if len(c.Methods) == 0 {
				return false
			}
			i := rng.Intn(len(c.Methods))
			c.Methods = append(c.Methods[:i], c.Methods[i+1:]...)
			return true
		})
	register(CatMethod, "method.remove_all", "delete every method",
		func(c *jimple.Class, _ *rand.Rand) bool {
			if len(c.Methods) == 0 {
				return false
			}
			c.Methods = nil
			return true
		})
	register(CatMethod, "method.rename", "rename a method declaration only (Table 5 row 4)",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownMethod(c, rng)
			if m == nil {
				return false
			}
			m.Name = freshName("m", rng)
			return true
		})
	register(CatMethod, "method.rename_to_clinit", "rename a method to <clinit> (Problem 1 construction)", renameMethodTo("<clinit>"))
	register(CatMethod, "method.rename_to_init", "rename a method to <init>", renameMethodTo("<init>"))
	register(CatMethod, "method.rename_to_main", "rename a method to main", renameMethodTo("main"))
	register(CatMethod, "method.rename_to_finalize", "rename a method to finalize", renameMethodTo("finalize"))
	register(CatMethod, "method.change_return_type", "change a method's return type (Table 5 row 6)",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownMethod(c, rng)
			if m == nil {
				return false
			}
			m.Return = returnTypePool[rng.Intn(len(returnTypePool))]
			return true
		})
	register(CatMethod, "method.return_void", "force a method's return type to void",
		func(c *jimple.Class, rng *rand.Rand) bool {
			i := pickMethod(c, rng)
			if i < 0 || c.Methods[i].Return.IsVoid() {
				return false
			}
			c.OwnMethod(i).Return = descriptor.Void
			return true
		})
	register(CatMethod, "method.set_public", "set ACC_PUBLIC on a method", setMethodFlag(classfile.AccPublic))
	register(CatMethod, "method.set_private", "set ACC_PRIVATE on a method", setMethodFlag(classfile.AccPrivate))
	register(CatMethod, "method.set_protected", "set ACC_PROTECTED on a method", setMethodFlag(classfile.AccProtected))
	register(CatMethod, "method.clear_visibility", "strip all visibility flags from a method",
		func(c *jimple.Class, rng *rand.Rand) bool {
			i := pickMethod(c, rng)
			vis := classfile.AccPublic | classfile.AccPrivate | classfile.AccProtected
			if i < 0 || c.Methods[i].Modifiers&vis == 0 {
				return false
			}
			m := c.OwnMethod(i)
			m.Modifiers = m.Modifiers.Without(vis)
			return true
		})
	register(CatMethod, "method.conflicting_visibility", "set both public and private on a method",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownMethod(c, rng)
			if m == nil {
				return false
			}
			m.Modifiers = m.Modifiers.With(classfile.AccPublic | classfile.AccPrivate)
			return true
		})
	register(CatMethod, "method.set_static", "set ACC_STATIC (e.g. a static <init> — Table 2)", setMethodFlag(classfile.AccStatic))
	register(CatMethod, "method.clear_static", "clear ACC_STATIC (e.g. an instance main)", clearMethodFlag(classfile.AccStatic))
	register(CatMethod, "method.set_final", "set ACC_FINAL on a method", setMethodFlag(classfile.AccFinal))
	register(CatMethod, "method.set_abstract_keep_code", "set ACC_ABSTRACT but keep the Code attribute",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownBodiedMethod(c, rng)
			if m == nil {
				return false
			}
			m.Modifiers = m.Modifiers.With(classfile.AccAbstract)
			return true
		})
	register(CatMethod, "method.make_abstract_drop_code", "set ACC_ABSTRACT and delete the opcode (Figure 2 construction)",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownBodiedMethod(c, rng)
			if m == nil {
				return false
			}
			m.Modifiers = m.Modifiers.With(classfile.AccAbstract).Without(classfile.AccStatic | classfile.AccFinal)
			m.Body = nil
			return true
		})
	register(CatMethod, "method.clear_abstract", "clear ACC_ABSTRACT (leaving a code-less concrete method)", clearMethodFlag(classfile.AccAbstract))
	register(CatMethod, "method.set_native_keep_code", "set ACC_NATIVE but keep the Code attribute",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownBodiedMethod(c, rng)
			if m == nil {
				return false
			}
			m.Modifiers = m.Modifiers.With(classfile.AccNative)
			return true
		})
	register(CatMethod, "method.set_native_drop_code", "turn a method native (deleting its body)",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownBodiedMethod(c, rng)
			if m == nil {
				return false
			}
			m.Modifiers = m.Modifiers.With(classfile.AccNative)
			m.Body = nil
			return true
		})
	register(CatMethod, "method.set_synchronized", "set ACC_SYNCHRONIZED on a method", setMethodFlag(classfile.AccSynchronized))
	register(CatMethod, "method.set_strict", "set ACC_STRICT on a method", setMethodFlag(classfile.AccStrict))
	register(CatMethod, "method.set_bridge", "set ACC_BRIDGE on a method", setMethodFlag(classfile.AccBridge))
	register(CatMethod, "method.set_varargs", "set ACC_VARARGS on a method", setMethodFlag(classfile.AccVarargs))
	register(CatMethod, "method.set_synthetic", "set ACC_SYNTHETIC on a method", setMethodFlag(classfile.AccSynthetic))
	register(CatMethod, "method.delete_code", "delete a concrete method's Code attribute without making it abstract",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownBodiedMethod(c, rng)
			if m == nil {
				return false
			}
			m.Body = nil
			return true
		})
	register(CatMethod, "method.empty_code", "replace a method's body with an empty code array",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownBodiedMethod(c, rng)
			if m == nil {
				return false
			}
			m.Body = []jimple.Stmt{}
			m.Locals = nil
			return true
		})
	register(CatMethod, "method.give_abstract_code", "attach a body to an abstract method",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownWhere(c, rng, func(m *jimple.Method) bool {
				return m.Modifiers.Has(classfile.AccAbstract) && m.Body == nil
			})
			if m == nil {
				return false
			}
			m.Body = []jimple.Stmt{&jimple.Return{}}
			return true
		})
	register(CatMethod, "method.replace_all", "replace all methods with those of another class (Table 5 row 1)",
		func(c *jimple.Class, _ *rand.Rand) bool {
			c.Methods = append([]*jimple.Method(nil), donor.Methods...)
			return true
		})
	register(CatMethod, "method.duplicate", "insert an exact duplicate of a method",
		func(c *jimple.Class, rng *rand.Rand) bool {
			i := pickMethod(c, rng)
			if i < 0 {
				return false
			}
			c.DuplicateMethod(i)
			return true
		})
	register(CatMethod, "method.swap_bodies", "swap the bodies (and locals) of two methods",
		func(c *jimple.Class, rng *rand.Rand) bool {
			if len(c.Methods) < 2 {
				return false
			}
			i := rng.Intn(len(c.Methods))
			j := rng.Intn(len(c.Methods))
			if i == j {
				j = (j + 1) % len(c.Methods)
			}
			a, b := c.OwnMethod(i), c.OwnMethod(j)
			a.Body, b.Body = b.Body, a.Body
			a.Locals, b.Locals = b.Locals, a.Locals
			a.RawHandlers, b.RawHandlers = b.RawHandlers, a.RawHandlers
			return true
		})
	register(CatMethod, "method.abstract_clinit", "rename an abstract method to <clinit> (Figure 2's exact mutant)",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownMethod(c, rng)
			if m == nil {
				return false
			}
			m.Name = "<clinit>"
			m.Params = nil
			m.Return = descriptor.Void
			m.Modifiers = classfile.AccPublic | classfile.AccAbstract
			m.Body = nil
			return true
		})
}
