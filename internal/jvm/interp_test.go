package jvm

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/bytecode"
	"repro/internal/classfile"
)

// runMain builds a class whose main is the given code and executes it
// on HotSpot 8, printing through System.out where the body says so.
func runMain(t *testing.T, build func(cb *classfile.CodeBuilder), maxStack, maxLocals uint16) Outcome {
	t.Helper()
	f := classfile.New("IMain")
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

// printInt emits code printing the int on top of the stack via
// String.valueOf + println.
func printInt(cb *classfile.CodeBuilder) {
	cb.Invokestatic("java/lang/String", "valueOf", "(I)Ljava/lang/String;")
	cb.Op(bytecode.Astore2)
	cb.Getstatic("java/lang/System", "out", "Ljava/io/PrintStream;")
	cb.Op(bytecode.Aload2)
	cb.Invokevirtual("java/io/PrintStream", "println", "(Ljava/lang/String;)V")
}

func wantOutput(t *testing.T, o Outcome, lines ...string) {
	t.Helper()
	if !o.OK() {
		t.Fatalf("run failed: %s", o)
	}
	if len(o.Output) != len(lines) {
		t.Fatalf("output %v, want %v", o.Output, lines)
	}
	for i := range lines {
		if o.Output[i] != lines[i] {
			t.Errorf("line %d = %q, want %q", i, o.Output[i], lines[i])
		}
	}
}

func TestInterpIntArithmetic(t *testing.T) {
	cases := []struct {
		op   bytecode.Opcode
		a, b int32
		want string
	}{
		{bytecode.Iadd, 30, 12, "42"},
		{bytecode.Isub, 50, 8, "42"},
		{bytecode.Imul, 6, 7, "42"},
		{bytecode.Idiv, 85, 2, "42"},
		{bytecode.Irem, 100, 58, "42"},
		{bytecode.Iand, 0xFF, 0x2A, "42"},
		{bytecode.Ior, 0x28, 0x02, "42"},
		{bytecode.Ixor, 0x6A, 0x40, "42"},
		{bytecode.Ishl, 21, 1, "42"},
		{bytecode.Ishr, 84, 1, "42"},
		{bytecode.Iushr, 84, 1, "42"},
	}
	for _, c := range cases {
		o := runMain(t, func(cb *classfile.CodeBuilder) {
			cb.LdcInt(c.a).LdcInt(c.b).Op(c.op)
			printInt(cb)
			cb.Op(bytecode.Return)
		}, 4, 4)
		wantOutput(t, o, c.want)
	}
}

func TestInterpNegationAndConversions(t *testing.T) {
	o := runMain(t, func(cb *classfile.CodeBuilder) {
		cb.LdcInt(-42).Op(bytecode.Ineg)
		printInt(cb)
		cb.Op(bytecode.Return)
	}, 4, 4)
	wantOutput(t, o, "42")

	// int -> long -> int round trip with truncation semantics.
	o = runMain(t, func(cb *classfile.CodeBuilder) {
		cb.LdcInt(42).Op(bytecode.I2l).Op(bytecode.L2i)
		printInt(cb)
		cb.Op(bytecode.Return)
	}, 4, 4)
	wantOutput(t, o, "42")

	// i2b sign extension: 200 -> -56.
	o = runMain(t, func(cb *classfile.CodeBuilder) {
		cb.LdcInt(200).Op(bytecode.I2b)
		printInt(cb)
		cb.Op(bytecode.Return)
	}, 4, 4)
	wantOutput(t, o, "-56")
}

func TestInterpDivByZero(t *testing.T) {
	o := runMain(t, func(cb *classfile.CodeBuilder) {
		cb.LdcInt(1).LdcInt(0).Op(bytecode.Idiv).Op(bytecode.Pop).Op(bytecode.Return)
	}, 4, 2)
	if o.Phase != PhaseRuntime || o.Error != ExcArithmetic {
		t.Errorf("want ArithmeticException, got %s", o)
	}
	o = runMain(t, func(cb *classfile.CodeBuilder) {
		cb.Op(bytecode.Lconst1).Op(bytecode.Lconst0).Op(bytecode.Lrem).Op(bytecode.Pop2).Op(bytecode.Return)
	}, 6, 2)
	if o.Error != ExcArithmetic {
		t.Errorf("want ArithmeticException for lrem, got %s", o)
	}
}

func TestInterpLongComparison(t *testing.T) {
	// lcmp of 2^40 vs 1 -> 1, printed.
	f := classfile.New("ILong")
	classfile.AttachDefaultInit(f)
	m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
	cb := classfile.NewCodeBuilder(f.Pool)
	cb.U2(bytecode.Ldc2W, f.Pool.AddLong(1<<40))
	cb.Op(bytecode.Lconst1)
	cb.Op(bytecode.Lcmp)
	printInt(cb)
	cb.Op(bytecode.Return)
	cb.SetMaxStack(6).SetMaxLocals(4)
	m.Attributes = append(m.Attributes, cb.Build())
	data, _ := f.Bytes()
	o := New(HotSpot8()).Run(data)
	wantOutput(t, o, "1")
}

func TestInterpArrays(t *testing.T) {
	// a = new int[3]; a[1] = 42; print a[1] + a.length
	o := runMain(t, func(cb *classfile.CodeBuilder) {
		cb.LdcInt(3).U1(bytecode.Newarray, byte(bytecode.TInt)).Op(bytecode.Astore1)
		cb.Op(bytecode.Aload1).LdcInt(1).LdcInt(42).Op(bytecode.Iastore)
		cb.Op(bytecode.Aload1).LdcInt(1).Op(bytecode.Iaload)
		cb.Op(bytecode.Aload1).Op(bytecode.Arraylength)
		cb.Op(bytecode.Iadd)
		printInt(cb)
		cb.Op(bytecode.Return)
	}, 6, 4)
	wantOutput(t, o, "45")
}

func TestInterpArrayIndexOutOfBounds(t *testing.T) {
	o := runMain(t, func(cb *classfile.CodeBuilder) {
		cb.LdcInt(2).U1(bytecode.Newarray, byte(bytecode.TInt)).Op(bytecode.Astore1)
		cb.Op(bytecode.Aload1).LdcInt(5).Op(bytecode.Iaload)
		cb.Op(bytecode.Pop).Op(bytecode.Return)
	}, 6, 4)
	if o.Error != ExcArrayIndex {
		t.Errorf("want ArrayIndexOutOfBoundsException, got %s", o)
	}
}

func TestInterpNegativeArraySize(t *testing.T) {
	o := runMain(t, func(cb *classfile.CodeBuilder) {
		cb.LdcInt(-1).U1(bytecode.Newarray, byte(bytecode.TInt)).Op(bytecode.Pop).Op(bytecode.Return)
	}, 4, 2)
	if o.Error != ExcNegativeArraySize {
		t.Errorf("want NegativeArraySizeException, got %s", o)
	}
}

// TestInterpHeapBudget: arrays draw on one per-run HeapBudget. An
// array past it throws OutOfMemoryError before anything is allocated,
// whether it asks for 2^31-1 elements at once or for the last element
// after two arrays that together fill the budget.
func TestInterpHeapBudget(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	o := runMain(t, func(cb *classfile.CodeBuilder) {
		cb.LdcInt(math.MaxInt32).U1(bytecode.Newarray, byte(bytecode.TInt)).Op(bytecode.Pop).Op(bytecode.Return)
	}, 4, 2)
	runtime.ReadMemStats(&after)
	if o.Error != "java.lang.OutOfMemoryError" {
		t.Errorf("a 2^31-1-element array: want OutOfMemoryError, got %s", o)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("refusing a 2^31-1-element array allocated %d bytes", alloc)
	}

	fill := func(last int32) Outcome {
		return runMain(t, func(cb *classfile.CodeBuilder) {
			for _, n := range []int32{HeapBudget / 2, HeapBudget - HeapBudget/2 - 1, last} {
				cb.LdcInt(n).U1(bytecode.Newarray, byte(bytecode.TInt)).Op(bytecode.Pop)
			}
			cb.Op(bytecode.Return)
		}, 4, 2)
	}
	if o := fill(1); !o.OK() {
		t.Errorf("arrays filling the budget exactly: %s", o)
	}
	if o := fill(2); o.Error != "java.lang.OutOfMemoryError" {
		t.Errorf("an array one element past the budget: want OutOfMemoryError, got %s", o)
	}
}

// TestInterpStringBudget: string bytes draw on the same HeapBudget. A
// main doubling a two-byte string 24 times, by String.concat or by
// appending it twice to a fresh StringBuilder, would build 32 MiB; it
// throws OutOfMemoryError once the doubled string passes the budget,
// and the run allocates a small multiple of the budget, not the 64 MiB
// the doublings ask for in total.
func TestInterpStringBudget(t *testing.T) {
	concat := func(cb *classfile.CodeBuilder) {
		cb.Op(bytecode.Aload1).Op(bytecode.Aload1)
		cb.Invokevirtual("java/lang/String", "concat", "(Ljava/lang/String;)Ljava/lang/String;")
	}
	builder := func(cb *classfile.CodeBuilder) {
		cb.New("java/lang/StringBuilder").Op(bytecode.Dup)
		cb.Invokespecial("java/lang/StringBuilder", "<init>", "()V")
		for range 2 {
			cb.Op(bytecode.Aload1)
			cb.Invokevirtual("java/lang/StringBuilder", "append", "(Ljava/lang/String;)Ljava/lang/StringBuilder;")
		}
		cb.Invokevirtual("java/lang/StringBuilder", "toString", "()Ljava/lang/String;")
	}
	for name, double := range map[string]func(*classfile.CodeBuilder){"concat": concat, "StringBuilder": builder} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		o := runMain(t, func(cb *classfile.CodeBuilder) {
			cb.Ldc("ab").Op(bytecode.Astore1)
			for range 24 {
				double(cb)
				cb.Op(bytecode.Astore1)
			}
			cb.Op(bytecode.Return)
		}, 4, 2)
		runtime.ReadMemStats(&after)
		if o.Error != "java.lang.OutOfMemoryError" {
			t.Errorf("%s: doubling a string 24 times: want OutOfMemoryError, got %s", name, o)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8*HeapBudget {
			t.Errorf("%s: doubling a string past the budget allocated %d bytes", name, alloc)
		}
	}
}

// TestInterpInvokeAllocationFree: an executed invoke allocates
// nothing of its own. A main making 65 Math.abs calls allocates as
// often per run as one making a single call.
func TestInterpInvokeAllocationFree(t *testing.T) {
	allocs := func(calls int) float64 {
		f := classfile.New("IMain")
		classfile.AttachDefaultInit(f)
		m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
		cb := classfile.NewCodeBuilder(f.Pool)
		for range calls {
			cb.LdcInt(-7).Invokestatic("java/lang/Math", "abs", "(I)I").Op(bytecode.Pop)
		}
		cb.Op(bytecode.Return)
		cb.SetMaxStack(1).SetMaxLocals(1)
		m.Attributes = append(m.Attributes, cb.Build())
		data, err := f.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		cf, err := classfile.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		vm := New(HotSpot9())
		if o := vm.RunParsed(cf); !o.OK() {
			t.Fatalf("%d calls: %s", calls, o)
		}
		return testing.AllocsPerRun(20, func() { vm.RunParsed(cf) })
	}
	if one, many := allocs(1), allocs(65); many != one {
		t.Fatalf("a run allocates %.0f times with 1 invoke, %.0f with 65", one, many)
	}
}

func TestInterpStringIntrinsics(t *testing.T) {
	// "foo".concat("bar").length() -> 6
	o := runMain(t, func(cb *classfile.CodeBuilder) {
		cb.Ldc("foo").Ldc("bar").
			Invokevirtual("java/lang/String", "concat", "(Ljava/lang/String;)Ljava/lang/String;").
			Invokevirtual("java/lang/String", "length", "()I")
		printInt(cb)
		cb.Op(bytecode.Return)
	}, 4, 4)
	wantOutput(t, o, "6")
}

func TestInterpStringBuilderChain(t *testing.T) {
	o := runMain(t, func(cb *classfile.CodeBuilder) {
		cb.New("java/lang/StringBuilder").Op(bytecode.Dup).
			Invokespecial("java/lang/StringBuilder", "<init>", "()V").
			Ldc("n=").
			Invokevirtual("java/lang/StringBuilder", "append", "(Ljava/lang/String;)Ljava/lang/StringBuilder;").
			LdcInt(7).
			Invokevirtual("java/lang/StringBuilder", "append", "(I)Ljava/lang/StringBuilder;").
			Invokevirtual("java/lang/StringBuilder", "toString", "()Ljava/lang/String;").
			Op(bytecode.Astore1)
		cb.Getstatic("java/lang/System", "out", "Ljava/io/PrintStream;").
			Op(bytecode.Aload1).
			Invokevirtual("java/io/PrintStream", "println", "(Ljava/lang/String;)V").
			Op(bytecode.Return)
	}, 4, 4)
	wantOutput(t, o, "n=7")
}

func TestInterpInstanceFields(t *testing.T) {
	// An object of the class under test with a field round trip.
	f := classfile.New("IField")
	f.AddField(classfile.AccPrivate, "v", "I")
	classfile.AttachDefaultInit(f)
	m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
	cb := classfile.NewCodeBuilder(f.Pool)
	cb.New("IField").Op(bytecode.Dup).
		Invokespecial("IField", "<init>", "()V").
		Op(bytecode.Astore1)
	cb.Op(bytecode.Aload1).LdcInt(42).Putfield("IField", "v", "I")
	cb.Op(bytecode.Aload1).Getfield("IField", "v", "I")
	printInt(cb)
	cb.Op(bytecode.Return)
	cb.SetMaxStack(4).SetMaxLocals(4)
	m.Attributes = append(m.Attributes, cb.Build())
	data, _ := f.Bytes()
	o := New(HotSpot8()).Run(data)
	wantOutput(t, o, "42")
}

func TestInterpNullPointerOnField(t *testing.T) {
	f := classfile.New("INull")
	f.AddField(classfile.AccPrivate, "v", "I")
	classfile.AttachDefaultInit(f)
	m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
	cb := classfile.NewCodeBuilder(f.Pool)
	cb.Op(bytecode.AconstNull).Getfield("INull", "v", "I").Op(bytecode.Pop).Op(bytecode.Return)
	cb.SetMaxStack(2).SetMaxLocals(1)
	m.Attributes = append(m.Attributes, cb.Build())
	data, _ := f.Bytes()
	o := New(HotSpot8()).Run(data)
	if o.Error != ExcNullPointer {
		t.Errorf("want NullPointerException, got %s", o)
	}
}

func TestInterpInstanceofAndCheckcast(t *testing.T) {
	o := runMain(t, func(cb *classfile.CodeBuilder) {
		cb.Ldc("x").U2(bytecode.Instanceof, 0) // patched below via pool
		cb.Op(bytecode.Pop).Op(bytecode.Return)
	}, 4, 2)
	_ = o // the zero-index form fails verification; real cases below

	// instanceof String on a String literal -> 1.
	f := classfile.New("IInst")
	classfile.AttachDefaultInit(f)
	m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
	cb := classfile.NewCodeBuilder(f.Pool)
	cb.Ldc("x")
	cb.U2(bytecode.Instanceof, f.Pool.AddClass("java/io/Serializable"))
	printInt(cb)
	cb.Op(bytecode.Return)
	cb.SetMaxStack(4).SetMaxLocals(4)
	m.Attributes = append(m.Attributes, cb.Build())
	data, _ := f.Bytes()
	o = New(HotSpot8()).Run(data)
	wantOutput(t, o, "1")

	// checkcast failure: String -> HashMap.
	f2 := classfile.New("ICast")
	classfile.AttachDefaultInit(f2)
	m2 := f2.AddMethod(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
	cb2 := classfile.NewCodeBuilder(f2.Pool)
	cb2.Ldc("x").Checkcast("java/util/HashMap").Op(bytecode.Pop).Op(bytecode.Return)
	cb2.SetMaxStack(2).SetMaxLocals(1)
	m2.Attributes = append(m2.Attributes, cb2.Build())
	data2, _ := f2.Bytes()
	o2 := New(HotSpot8()).Run(data2)
	if o2.Error != ExcClassCast {
		t.Errorf("want ClassCastException, got %s", o2)
	}
}

func TestInterpRecursionAndStackOverflow(t *testing.T) {
	// A self-recursive method without a base case must hit the depth
	// limit and surface StackOverflowError.
	f := classfile.New("IRec")
	classfile.AttachDefaultInit(f)
	rec := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "rec", "()V")
	rcb := classfile.NewCodeBuilder(f.Pool)
	rcb.Invokestatic("IRec", "rec", "()V").Op(bytecode.Return)
	rcb.SetMaxStack(1).SetMaxLocals(0)
	rec.Attributes = append(rec.Attributes, rcb.Build())
	m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
	cb := classfile.NewCodeBuilder(f.Pool)
	cb.Invokestatic("IRec", "rec", "()V").Op(bytecode.Return)
	cb.SetMaxStack(1).SetMaxLocals(1)
	m.Attributes = append(m.Attributes, cb.Build())
	data, _ := f.Bytes()
	o := New(HotSpot8()).Run(data)
	if o.Phase != PhaseRuntime || o.Error != "java.lang.StackOverflowError" {
		t.Errorf("want StackOverflowError, got %s", o)
	}
}

func TestInterpTableswitch(t *testing.T) {
	// switch(2): case 1-> 10; case 2 -> 20; default -> 99, via raw code.
	f := classfile.New("ISwitch")
	classfile.AttachDefaultInit(f)
	m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
	// Hand-assembled: see offsets in comments.
	code := []byte{
		0x05,             // pc0: iconst_2
		0xaa, 0x00, 0x00, // pc1: tableswitch, pad to 4
		0x00, 0x00, 0x00, 0x1f, // default -> pc1+31 = 32
		0x00, 0x00, 0x00, 0x01, // low 1
		0x00, 0x00, 0x00, 0x02, // high 2
		0x00, 0x00, 0x00, 0x1b, // case 1 -> 28
		0x00, 0x00, 0x00, 0x1d, // case 2 -> 30
		0x00, 0x00, 0x00, 0x00, // (padding to reach pc28 cleanly: nops below)
		0x10, 0x0a, // pc28: bipush 10
		0x10, 0x14, // pc30: bipush 20
		0x10, 0x63, // pc32: bipush 99
		0x57, // pc34: pop
		0xb1, // pc35: return
	}
	// The three pushes fall through each other; for this test only the
	// control transfer matters: case 2 jumps to pc30, runs bipush 20,
	// bipush 99, pop, return — stack ends with one extra value, so use
	// pop twice? Simpler: verify execution reaches return without error.
	m.Attributes = append(m.Attributes, &classfile.CodeAttr{MaxStack: 4, MaxLocals: 2, Code: code})
	data, _ := f.Bytes()
	o := New(GIJ()).Run(data) // lazy VM interprets directly
	// Falls through bipush 20, bipush 99, pop, return leaves 1 value on
	// the stack — legal at return. Must terminate normally.
	if o.Phase == PhaseRuntime && o.Error == ErrInternal {
		t.Errorf("tableswitch unsupported: %s", o)
	}
}

func TestInterpCaughtExceptionHierarchy(t *testing.T) {
	// throw ArithmeticException, catch RuntimeException (superclass).
	f := classfile.New("ICatchSuper")
	classfile.AttachDefaultInit(f)
	m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
	cb := classfile.NewCodeBuilder(f.Pool)
	cb.New("java/lang/ArithmeticException").Op(bytecode.Dup).
		Invokespecial("java/lang/ArithmeticException", "<init>", "()V").
		Op(bytecode.Athrow)
	end := cb.PC()
	h := cb.PC()
	cb.Op(bytecode.Pop)
	cb.Getstatic("java/lang/System", "out", "Ljava/io/PrintStream;").
		Ldc("caught super").
		Invokevirtual("java/io/PrintStream", "println", "(Ljava/lang/String;)V").
		Op(bytecode.Return)
	cb.Handler(0, end, h, "java/lang/RuntimeException")
	cb.SetMaxStack(2).SetMaxLocals(1)
	m.Attributes = append(m.Attributes, cb.Build())
	data, _ := f.Bytes()
	o := New(HotSpot8()).Run(data)
	wantOutput(t, o, "caught super")
}

func TestInterpUncaughtWrongCatchType(t *testing.T) {
	// throw ArithmeticException, handler catches IOException: must not
	// match, error escapes.
	f := classfile.New("IWrongCatch")
	classfile.AttachDefaultInit(f)
	m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
	cb := classfile.NewCodeBuilder(f.Pool)
	cb.New("java/lang/ArithmeticException").Op(bytecode.Dup).
		Invokespecial("java/lang/ArithmeticException", "<init>", "()V").
		Op(bytecode.Athrow)
	end := cb.PC()
	h := cb.PC()
	cb.Op(bytecode.Pop).Op(bytecode.Return)
	cb.Handler(0, end, h, "java/io/IOException")
	cb.SetMaxStack(2).SetMaxLocals(1)
	m.Attributes = append(m.Attributes, cb.Build())
	data, _ := f.Bytes()
	o := New(HotSpot8()).Run(data)
	if o.Phase != PhaseRuntime || o.Error != ExcArithmetic {
		t.Errorf("exception must escape the mismatched handler, got %s", o)
	}
}

func TestInterpMathAndInteger(t *testing.T) {
	o := runMain(t, func(cb *classfile.CodeBuilder) {
		cb.LdcInt(-7).Invokestatic("java/lang/Math", "abs", "(I)I")
		cb.LdcInt(35).Invokestatic("java/lang/Math", "max", "(II)I")
		printInt(cb)
		cb.Op(bytecode.Return)
	}, 6, 4)
	wantOutput(t, o, "35")

	o = runMain(t, func(cb *classfile.CodeBuilder) {
		cb.LdcInt(42).
			Invokestatic("java/lang/Integer", "valueOf", "(I)Ljava/lang/Integer;").
			Invokevirtual("java/lang/Integer", "intValue", "()I")
		printInt(cb)
		cb.Op(bytecode.Return)
	}, 4, 4)
	wantOutput(t, o, "42")
}

func TestInterpMonitorOnNull(t *testing.T) {
	o := runMain(t, func(cb *classfile.CodeBuilder) {
		cb.Op(bytecode.AconstNull).Op(bytecode.Monitorenter).Op(bytecode.Return)
	}, 2, 1)
	if o.Error != ExcNullPointer {
		t.Errorf("want NullPointerException, got %s", o)
	}
}

func TestInterpStaticFieldDefaults(t *testing.T) {
	// Reading an unwritten static of the class under test yields the
	// descriptor's zero value.
	f := classfile.New("IStatics")
	f.AddField(classfile.AccPublic|classfile.AccStatic, "n", "I")
	classfile.AttachDefaultInit(f)
	m := f.AddMethod(classfile.AccPublic|classfile.AccStatic, "main", "([Ljava/lang/String;)V")
	cb := classfile.NewCodeBuilder(f.Pool)
	cb.Getstatic("IStatics", "n", "I")
	printInt(cb)
	cb.Op(bytecode.Return)
	cb.SetMaxStack(4).SetMaxLocals(4)
	m.Attributes = append(m.Attributes, cb.Build())
	data, _ := f.Bytes()
	o := New(HotSpot8()).Run(data)
	wantOutput(t, o, "0")
}
