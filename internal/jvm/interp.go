package jvm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/descriptor"
)

// value is one runtime value slot. Wide values (long/double) occupy a
// single value here; the interpreter handles slot accounting itself.
type value struct {
	kind byte // 'I', 'J', 'F', 'D', 'A'
	i    int64
	f    float64
	ref  *object // nil for null references
}

// object is a heap object: a plain instance, a string, an array or a
// builder. The simulation keeps just enough structure for the
// startup-time code the fuzzer generates.
type object struct {
	class  string
	fields map[string]value
	str    string // payload for java/lang/String
	arr    []value
	elem   string // array element descriptor
	sb     *strings.Builder
}

func intVal(v int64) value      { return value{kind: 'I', i: v} }
func longVal(v int64) value     { return value{kind: 'J', i: v} }
func floatVal(v float64) value  { return value{kind: 'F', f: v} }
func doubleVal(v float64) value { return value{kind: 'D', f: v} }
func refVal(o *object) value    { return value{kind: 'A', ref: o} }
func nullVal() value            { return value{kind: 'A'} }

func stringObj(s string) *object { return &object{class: "java/lang/String", str: s} }

// zeroOf returns the default value for a field descriptor.
func zeroOf(desc string) value {
	if desc == "" {
		return nullVal()
	}
	switch desc[0] {
	case 'J':
		return longVal(0)
	case 'F':
		return floatVal(0)
	case 'D':
		return doubleVal(0)
	case 'L', '[':
		return nullVal()
	default:
		return intVal(0)
	}
}

// javaThrow carries an in-flight Java exception through the interpreter.
type javaThrow struct {
	class string // internal name
	msg   string
}

func (t *javaThrow) errorName() string { return strings.ReplaceAll(t.class, "/", ".") }

func throwf(class, format string, args ...any) *javaThrow {
	return &javaThrow{class: class, msg: fmt.Sprintf(format, args...)}
}

// dot2slash converts the error-name constants back to internal names.
func dot2slash(name string) string {
	name = strings.TrimPrefix(name, "Error: ")
	return strings.ReplaceAll(name, ".", "/")
}

// initialize runs the initialization phase: execute the class
// initializer (when the policy classifies one) and apply the
// HotSpot 9-style strict access re-check. Failures surface as
// initialization-phase rejections (Table 1 row 3).
func (vm *VM) initialize(ex *execState) (Outcome, bool) {
	p := &vm.Spec.Policy
	vm.st(pInitEnter)

	// HotSpot 9 re-checks accessibility of every class named in the
	// constant pool when initialization touches the class (module
	// boundaries): the extra initialization-phase rejections of Table 7.
	if p.InitStrictAccess {
		for i := 1; i < ex.f.Pool.Count(); i++ {
			c := ex.f.Pool.Get(uint16(i))
			if c == nil || c.Tag != classfile.TagClass {
				continue
			}
			name, _ := ex.f.Pool.Utf8(c.Ref1)
			if name == "" || name == ex.name {
				continue
			}
			ci, ok := vm.Env.Lookup(name)
			if ok && vm.br(bInitAccess, !ci.Accessible) {
				return reject(PhaseInit, ErrIllegalAccess, "class %s is not accessible to the unnamed module", name), true
			}
		}
	}

	clinit := vm.classInitializer(ex.f)
	if vm.br(bInitHasclinit, clinit == nil) {
		vm.st(pInitOk)
		return Outcome{}, false
	}

	// Lazy VMs verify the initializer at first invocation, i.e. now.
	if !p.EagerVerify {
		if out := vm.verifyMethod(ex, clinit); out != nil {
			vm.st(pInitLazyverifyfail)
			return reject(PhaseInit, out.Error, "%s", out.Message), true
		}
	}

	_, jt := ex.callMethod(clinit, nil)
	if vm.br(bInitThrew, jt != nil) {
		// Errors pass through unchanged; exceptions are wrapped in
		// ExceptionInInitializerError (JVMS §5.5).
		if vm.Env.IsSubclassOf(jt.class, "java/lang/Error") {
			return reject(PhaseInit, jt.errorName(), "%s", jt.msg), true
		}
		return reject(PhaseInit, ErrExceptionInInitializer, "caused by %s: %s", jt.errorName(), jt.msg), true
	}
	vm.st(pInitOk)
	return Outcome{}, false
}

// classInitializer finds the method this VM treats as <clinit>,
// honouring the policy's classification rule.
func (vm *VM) classInitializer(f *classfile.File) *classfile.Member {
	for _, m := range f.Methods {
		if m.Name(f.Pool) != "<clinit>" {
			continue
		}
		switch vm.Spec.Policy.ClinitRule {
		case ClinitOrdinaryIfNonStatic:
			if m.AccessFlags.Has(classfile.AccStatic) && m.Descriptor(f.Pool) == "()V" {
				return m
			}
		case ClinitAlwaysInitializer:
			return m
		case ClinitIgnored:
			if m.AccessFlags.Has(classfile.AccStatic) && m.Code() != nil {
				return m
			}
		}
	}
	return nil
}

// invoke performs the final phase: locate and run main.
func (vm *VM) invoke(ex *execState) Outcome {
	p := &vm.Spec.Policy
	vm.st(pInvokeEnter)

	if ex.f.IsInterface() && vm.br(bInvokeInterface, !p.AllowInterfaceMain) {
		return reject(PhaseRuntime, ErrMainNotFound, "cannot invoke main on interface %s", ex.name)
	}

	main := ex.f.FindMethodExact("main", "([Ljava/lang/String;)V")
	if vm.br(bInvokeMainfound, main == nil) {
		return reject(PhaseRuntime, ErrMainNotFound, "in class %s", ex.name)
	}
	if p.RequireStaticMain {
		ok := main.AccessFlags.Has(classfile.AccPublic) && main.AccessFlags.Has(classfile.AccStatic)
		if vm.br(bInvokeMainflags, !ok) {
			return reject(PhaseRuntime, ErrMainNotFound, "main is not public static in class %s", ex.name)
		}
	}
	if vm.br(bInvokeMaincode, main.Code() == nil) {
		if main.AccessFlags.Has(classfile.AccAbstract) {
			return reject(PhaseRuntime, ErrAbstractMethod, "main")
		}
		return reject(PhaseRuntime, ErrUnsatisfiedLink, "main has no code")
	}

	if !p.EagerVerify {
		if out := vm.verifyMethod(ex, main); out != nil {
			vm.st(pInvokeLazyverifyfail)
			return reject(PhaseRuntime, out.Error, "%s", out.Message)
		}
	}

	args := refVal(&object{class: "[Ljava/lang/String;", elem: "Ljava/lang/String;"})
	_, jt := ex.callMethod(main, []value{args})
	if vm.br(bInvokeThrew, jt != nil) {
		return reject(PhaseRuntime, jt.errorName(), "%s", jt.msg)
	}
	vm.st(pInvokeOk)
	return Outcome{Phase: PhaseInvoked, Output: ex.output}
}

// maxCallDepth bounds self-recursive interpretation.
const maxCallDepth = 64

// callMethod interprets one method of the class under test.
func (ex *execState) callMethod(m *classfile.Member, args []value) (value, *javaThrow) {
	vm := ex.vm
	vm.st(pInterpCall)
	code := m.Code()
	if code == nil {
		return value{}, throwf(dot2slash(ErrUnsatisfiedLink), "%s has no code", m.Name(ex.f.Pool))
	}
	if ex.depth >= maxCallDepth {
		return value{}, throwf("java/lang/StackOverflowError", "interpreter call depth exceeded")
	}
	// Lazy VMs verify each method at its first invocation.
	if !vm.Spec.Policy.EagerVerify {
		if out := vm.verifyMethod(ex, m); out != nil {
			return value{}, throwf(dot2slash(out.Error), "%s", out.Message)
		}
	}
	ex.depth++
	defer func() { ex.depth-- }()

	dec := vm.decodeCode(code.Code)
	if dec.err != nil {
		return value{}, throwf(dot2slash(ErrVerify), "%v", dec.err)
	}
	ins, pcIndex := dec.ins, dec.pcIndex

	locals := make([]value, int(code.MaxLocals)+2)
	slot := 0
	for _, a := range args {
		if slot >= len(locals) {
			return value{}, throwf(dot2slash(ErrVerify), "arguments exceed max_locals")
		}
		locals[slot] = a
		slot++
		if a.kind == 'J' || a.kind == 'D' {
			slot++
		}
	}

	var stack []value
	pop := func() value {
		if len(stack) == 0 {
			return value{}
		}
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}

	idx := 0
	for {
		ex.steps++
		if ex.steps > StepBudget {
			return value{}, &javaThrow{class: "budget", msg: "step budget exhausted"}
		}
		if idx < 0 || idx >= len(ins) {
			return value{}, throwf(dot2slash(ErrVerify), "pc out of range")
		}
		in := ins[idx]
		op := in.Op
		if op == bytecode.Wide {
			op = in.WideOp
		}
		vm.st(opProbes[byte(op)])

		// jump transfers control to a byte pc.
		jumpTo := -1
		var thrown *javaThrow

		switch op {
		case bytecode.Nop, bytecode.Breakpoint:
		case bytecode.AconstNull:
			stackPush(&stack, nullVal())
		case bytecode.IconstM1, bytecode.Iconst0, bytecode.Iconst1, bytecode.Iconst2,
			bytecode.Iconst3, bytecode.Iconst4, bytecode.Iconst5:
			stackPush(&stack, intVal(int64(op)-int64(bytecode.Iconst0)))
		case bytecode.Lconst0, bytecode.Lconst1:
			stackPush(&stack, longVal(int64(op-bytecode.Lconst0)))
		case bytecode.Fconst0, bytecode.Fconst1, bytecode.Fconst2:
			stackPush(&stack, floatVal(float64(op-bytecode.Fconst0)))
		case bytecode.Dconst0, bytecode.Dconst1:
			stackPush(&stack, doubleVal(float64(op-bytecode.Dconst0)))
		case bytecode.Bipush, bytecode.Sipush:
			stackPush(&stack, intVal(int64(in.Imm)))
		case bytecode.Ldc, bytecode.LdcW, bytecode.Ldc2W:
			c := ex.f.Pool.Get(in.CPIndex)
			if c == nil {
				thrown = throwf(dot2slash(ErrClassFormat), "ldc of invalid constant")
				break
			}
			switch c.Tag {
			case classfile.TagInteger:
				stackPush(&stack, intVal(int64(c.Int)))
			case classfile.TagFloat:
				stackPush(&stack, floatVal(float64(c.Float)))
			case classfile.TagLong:
				stackPush(&stack, longVal(c.Long))
			case classfile.TagDouble:
				stackPush(&stack, doubleVal(c.Double))
			case classfile.TagString:
				s, _ := ex.f.Pool.Utf8(c.Ref1)
				stackPush(&stack, refVal(stringObj(s)))
			case classfile.TagClass:
				n, _ := ex.f.Pool.Utf8(c.Ref1)
				stackPush(&stack, refVal(&object{class: "java/lang/Class", str: n}))
			default:
				thrown = throwf(dot2slash(ErrClassFormat), "ldc of unsupported tag")
			}

		case bytecode.Iload, bytecode.Lload, bytecode.Fload, bytecode.Dload, bytecode.Aload:
			stackPush(&stack, locals[in.Local])
		case bytecode.Iload0, bytecode.Iload1, bytecode.Iload2, bytecode.Iload3:
			stackPush(&stack, locals[op-bytecode.Iload0])
		case bytecode.Lload0, bytecode.Lload1, bytecode.Lload2, bytecode.Lload3:
			stackPush(&stack, locals[op-bytecode.Lload0])
		case bytecode.Fload0, bytecode.Fload1, bytecode.Fload2, bytecode.Fload3:
			stackPush(&stack, locals[op-bytecode.Fload0])
		case bytecode.Dload0, bytecode.Dload1, bytecode.Dload2, bytecode.Dload3:
			stackPush(&stack, locals[op-bytecode.Dload0])
		case bytecode.Aload0, bytecode.Aload1, bytecode.Aload2, bytecode.Aload3:
			stackPush(&stack, locals[op-bytecode.Aload0])

		case bytecode.Istore, bytecode.Lstore, bytecode.Fstore, bytecode.Dstore, bytecode.Astore:
			locals[in.Local] = pop()
		case bytecode.Istore0, bytecode.Istore1, bytecode.Istore2, bytecode.Istore3:
			locals[op-bytecode.Istore0] = pop()
		case bytecode.Lstore0, bytecode.Lstore1, bytecode.Lstore2, bytecode.Lstore3:
			locals[op-bytecode.Lstore0] = pop()
		case bytecode.Fstore0, bytecode.Fstore1, bytecode.Fstore2, bytecode.Fstore3:
			locals[op-bytecode.Fstore0] = pop()
		case bytecode.Dstore0, bytecode.Dstore1, bytecode.Dstore2, bytecode.Dstore3:
			locals[op-bytecode.Dstore0] = pop()
		case bytecode.Astore0, bytecode.Astore1, bytecode.Astore2, bytecode.Astore3:
			locals[op-bytecode.Astore0] = pop()

		case bytecode.Iaload, bytecode.Laload, bytecode.Faload, bytecode.Daload,
			bytecode.Aaload, bytecode.Baload, bytecode.Caload, bytecode.Saload:
			i := pop()
			arr := pop()
			if arr.ref == nil {
				thrown = throwf("java/lang/NullPointerException", "array load")
				break
			}
			if i.i < 0 || int(i.i) >= len(arr.ref.arr) {
				thrown = throwf("java/lang/ArrayIndexOutOfBoundsException", "%d", i.i)
				break
			}
			stackPush(&stack, arr.ref.arr[i.i])
		case bytecode.Iastore, bytecode.Lastore, bytecode.Fastore, bytecode.Dastore,
			bytecode.Aastore, bytecode.Bastore, bytecode.Castore, bytecode.Sastore:
			v := pop()
			i := pop()
			arr := pop()
			if arr.ref == nil {
				thrown = throwf("java/lang/NullPointerException", "array store")
				break
			}
			if i.i < 0 || int(i.i) >= len(arr.ref.arr) {
				thrown = throwf("java/lang/ArrayIndexOutOfBoundsException", "%d", i.i)
				break
			}
			arr.ref.arr[i.i] = v

		case bytecode.Pop:
			pop()
		case bytecode.Pop2:
			v := pop()
			if v.kind != 'J' && v.kind != 'D' {
				pop()
			}
		case bytecode.Dup:
			v := pop()
			stackPush(&stack, v)
			stackPush(&stack, v)
		case bytecode.DupX1:
			a, b := pop(), pop()
			stackPush(&stack, a)
			stackPush(&stack, b)
			stackPush(&stack, a)
		case bytecode.DupX2:
			a, b, c := pop(), pop(), pop()
			stackPush(&stack, a)
			stackPush(&stack, c)
			stackPush(&stack, b)
			stackPush(&stack, a)
		case bytecode.Dup2:
			a := pop()
			if a.kind == 'J' || a.kind == 'D' {
				stackPush(&stack, a)
				stackPush(&stack, a)
			} else {
				b := pop()
				stackPush(&stack, b)
				stackPush(&stack, a)
				stackPush(&stack, b)
				stackPush(&stack, a)
			}
		case bytecode.Dup2X1, bytecode.Dup2X2:
			a, b, c := pop(), pop(), pop()
			stackPush(&stack, b)
			stackPush(&stack, a)
			stackPush(&stack, c)
			stackPush(&stack, b)
			stackPush(&stack, a)
		case bytecode.Swap:
			a, b := pop(), pop()
			stackPush(&stack, a)
			stackPush(&stack, b)

		case bytecode.Iadd, bytecode.Ladd:
			b, a := pop(), pop()
			stackPush(&stack, value{kind: a.kind, i: a.i + b.i})
		case bytecode.Isub, bytecode.Lsub:
			b, a := pop(), pop()
			stackPush(&stack, value{kind: a.kind, i: a.i - b.i})
		case bytecode.Imul, bytecode.Lmul:
			b, a := pop(), pop()
			stackPush(&stack, value{kind: a.kind, i: a.i * b.i})
		case bytecode.Idiv, bytecode.Ldiv:
			b, a := pop(), pop()
			if b.i == 0 {
				thrown = throwf("java/lang/ArithmeticException", "/ by zero")
				break
			}
			stackPush(&stack, value{kind: a.kind, i: a.i / b.i})
		case bytecode.Irem, bytecode.Lrem:
			b, a := pop(), pop()
			if b.i == 0 {
				thrown = throwf("java/lang/ArithmeticException", "/ by zero")
				break
			}
			stackPush(&stack, value{kind: a.kind, i: a.i % b.i})
		case bytecode.Fadd, bytecode.Dadd:
			b, a := pop(), pop()
			stackPush(&stack, value{kind: a.kind, f: a.f + b.f})
		case bytecode.Fsub, bytecode.Dsub:
			b, a := pop(), pop()
			stackPush(&stack, value{kind: a.kind, f: a.f - b.f})
		case bytecode.Fmul, bytecode.Dmul:
			b, a := pop(), pop()
			stackPush(&stack, value{kind: a.kind, f: a.f * b.f})
		case bytecode.Fdiv, bytecode.Ddiv:
			b, a := pop(), pop()
			stackPush(&stack, value{kind: a.kind, f: a.f / b.f})
		case bytecode.Frem, bytecode.Drem:
			b, a := pop(), pop()
			stackPush(&stack, value{kind: a.kind, f: fmod(a.f, b.f)})
		case bytecode.Ineg, bytecode.Lneg:
			a := pop()
			stackPush(&stack, value{kind: a.kind, i: -a.i})
		case bytecode.Fneg, bytecode.Dneg:
			a := pop()
			stackPush(&stack, value{kind: a.kind, f: -a.f})
		case bytecode.Ishl:
			b, a := pop(), pop()
			stackPush(&stack, intVal(int64(int32(a.i)<<(uint(b.i)&31))))
		case bytecode.Ishr:
			b, a := pop(), pop()
			stackPush(&stack, intVal(int64(int32(a.i)>>(uint(b.i)&31))))
		case bytecode.Iushr:
			b, a := pop(), pop()
			stackPush(&stack, intVal(int64(int32(uint32(a.i)>>(uint(b.i)&31)))))
		case bytecode.Lshl:
			b, a := pop(), pop()
			stackPush(&stack, longVal(a.i<<(uint(b.i)&63)))
		case bytecode.Lshr:
			b, a := pop(), pop()
			stackPush(&stack, longVal(a.i>>(uint(b.i)&63)))
		case bytecode.Lushr:
			b, a := pop(), pop()
			stackPush(&stack, longVal(int64(uint64(a.i)>>(uint(b.i)&63))))
		case bytecode.Iand, bytecode.Land:
			b, a := pop(), pop()
			stackPush(&stack, value{kind: a.kind, i: a.i & b.i})
		case bytecode.Ior, bytecode.Lor:
			b, a := pop(), pop()
			stackPush(&stack, value{kind: a.kind, i: a.i | b.i})
		case bytecode.Ixor, bytecode.Lxor:
			b, a := pop(), pop()
			stackPush(&stack, value{kind: a.kind, i: a.i ^ b.i})
		case bytecode.Iinc:
			locals[in.Local] = intVal(locals[in.Local].i + int64(in.Imm))

		case bytecode.I2l:
			stackPush(&stack, longVal(pop().i))
		case bytecode.I2f, bytecode.I2d:
			a := pop()
			k := byte('F')
			if op == bytecode.I2d {
				k = 'D'
			}
			stackPush(&stack, value{kind: k, f: float64(a.i)})
		case bytecode.L2i:
			stackPush(&stack, intVal(int64(int32(pop().i))))
		case bytecode.L2f, bytecode.L2d:
			a := pop()
			k := byte('F')
			if op == bytecode.L2d {
				k = 'D'
			}
			stackPush(&stack, value{kind: k, f: float64(a.i)})
		case bytecode.F2i, bytecode.D2i:
			stackPush(&stack, intVal(int64(int32(pop().f))))
		case bytecode.F2l, bytecode.D2l:
			stackPush(&stack, longVal(int64(pop().f)))
		case bytecode.F2d:
			stackPush(&stack, doubleVal(pop().f))
		case bytecode.D2f:
			stackPush(&stack, floatVal(pop().f))
		case bytecode.I2b:
			stackPush(&stack, intVal(int64(int8(pop().i))))
		case bytecode.I2c:
			stackPush(&stack, intVal(int64(uint16(pop().i))))
		case bytecode.I2s:
			stackPush(&stack, intVal(int64(int16(pop().i))))

		case bytecode.Lcmp:
			b, a := pop(), pop()
			stackPush(&stack, intVal(int64(cmpInt(a.i, b.i))))
		case bytecode.Fcmpl, bytecode.Fcmpg, bytecode.Dcmpl, bytecode.Dcmpg:
			b, a := pop(), pop()
			stackPush(&stack, intVal(int64(cmpFloat(a.f, b.f))))

		case bytecode.Ifeq, bytecode.Ifne, bytecode.Iflt, bytecode.Ifge, bytecode.Ifgt, bytecode.Ifle:
			v := pop().i
			take := false
			switch op {
			case bytecode.Ifeq:
				take = v == 0
			case bytecode.Ifne:
				take = v != 0
			case bytecode.Iflt:
				take = v < 0
			case bytecode.Ifge:
				take = v >= 0
			case bytecode.Ifgt:
				take = v > 0
			case bytecode.Ifle:
				take = v <= 0
			}
			if take {
				jumpTo = in.PC + int(in.Branch)
			}
		case bytecode.IfIcmpeq, bytecode.IfIcmpne, bytecode.IfIcmplt, bytecode.IfIcmpge,
			bytecode.IfIcmpgt, bytecode.IfIcmple:
			b, a := pop().i, pop().i
			take := false
			switch op {
			case bytecode.IfIcmpeq:
				take = a == b
			case bytecode.IfIcmpne:
				take = a != b
			case bytecode.IfIcmplt:
				take = a < b
			case bytecode.IfIcmpge:
				take = a >= b
			case bytecode.IfIcmpgt:
				take = a > b
			case bytecode.IfIcmple:
				take = a <= b
			}
			if take {
				jumpTo = in.PC + int(in.Branch)
			}
		case bytecode.IfAcmpeq, bytecode.IfAcmpne:
			b, a := pop(), pop()
			eq := a.ref == b.ref
			if (op == bytecode.IfAcmpeq) == eq {
				jumpTo = in.PC + int(in.Branch)
			}
		case bytecode.Ifnull:
			if pop().ref == nil {
				jumpTo = in.PC + int(in.Branch)
			}
		case bytecode.Ifnonnull:
			if pop().ref != nil {
				jumpTo = in.PC + int(in.Branch)
			}
		case bytecode.Goto, bytecode.GotoW:
			jumpTo = in.PC + int(in.Branch)
		case bytecode.Jsr, bytecode.JsrW:
			// Old-style subroutine call: push the return address (the pc
			// after this instruction) and jump. Only lazily-verifying VMs
			// reach this in version-51 files (ForbidJsrRet gates the rest).
			stackPush(&stack, value{kind: 'R', i: int64(in.PC + in.Size())})
			jumpTo = in.PC + int(in.Branch)
		case bytecode.Ret:
			ra := locals[in.Local]
			if ra.kind != 'R' {
				thrown = throwf(dot2slash(ErrVerify), "ret through a non-returnAddress local")
				break
			}
			jumpTo = int(ra.i)
		case bytecode.Tableswitch:
			v := pop().i
			if v >= int64(in.SwitchLow) && v <= int64(in.SwitchHigh) {
				jumpTo = in.PC + int(in.SwitchOffsets[v-int64(in.SwitchLow)])
			} else {
				jumpTo = in.PC + int(in.SwitchDefault)
			}
		case bytecode.Lookupswitch:
			v := pop().i
			jumpTo = in.PC + int(in.SwitchDefault)
			for i, k := range in.SwitchKeys {
				if int64(k) == v {
					jumpTo = in.PC + int(in.SwitchOffsets[i])
					break
				}
			}

		case bytecode.Ireturn, bytecode.Lreturn, bytecode.Freturn, bytecode.Dreturn, bytecode.Areturn:
			return pop(), nil
		case bytecode.Return:
			return value{}, nil

		case bytecode.Getstatic, bytecode.Putstatic, bytecode.Getfield, bytecode.Putfield:
			thrown = ex.interpField(op, in, &stack)
		case bytecode.Invokevirtual, bytecode.Invokespecial, bytecode.Invokestatic, bytecode.Invokeinterface:
			thrown = ex.interpInvoke(op, in, &stack)
		case bytecode.Invokedynamic:
			thrown = throwf("java/lang/BootstrapMethodError", "invokedynamic is not supported by this simulator")

		case bytecode.New:
			cname, ok := ex.f.Pool.ClassName(in.CPIndex)
			if !ok {
				thrown = throwf(dot2slash(ErrClassFormat), "new of invalid constant")
				break
			}
			if jt := ex.checkInstantiable(cname); jt != nil {
				thrown = jt
				break
			}
			stackPush(&stack, refVal(&object{class: cname, fields: map[string]value{}}))
		case bytecode.Newarray:
			n := pop().i
			if thrown = ex.allocArray(n); thrown != nil {
				break
			}
			o := &object{class: "[" + in.ArrayTyp.Descriptor(), elem: in.ArrayTyp.Descriptor(), arr: make([]value, n)}
			for i := range o.arr {
				o.arr[i] = zeroOf(o.elem)
			}
			stackPush(&stack, refVal(o))
		case bytecode.Anewarray:
			cname, _ := ex.f.Pool.ClassName(in.CPIndex)
			n := pop().i
			if thrown = ex.allocArray(n); thrown != nil {
				break
			}
			o := &object{class: "[L" + cname + ";", elem: "L" + cname + ";", arr: make([]value, n)}
			for i := range o.arr {
				o.arr[i] = nullVal()
			}
			stackPush(&stack, refVal(o))
		case bytecode.Multianewarray:
			for i := 0; i < int(in.Count); i++ {
				pop()
			}
			cname, _ := ex.f.Pool.ClassName(in.CPIndex)
			stackPush(&stack, refVal(&object{class: cname, arr: []value{}}))
		case bytecode.Arraylength:
			a := pop()
			if a.ref == nil {
				thrown = throwf("java/lang/NullPointerException", "arraylength")
				break
			}
			stackPush(&stack, intVal(int64(len(a.ref.arr))))

		case bytecode.Athrow:
			v := pop()
			if v.ref == nil {
				thrown = throwf("java/lang/NullPointerException", "athrow of null")
			} else {
				thrown = &javaThrow{class: v.ref.class, msg: v.ref.str}
			}
		case bytecode.Checkcast:
			cname, _ := ex.f.Pool.ClassName(in.CPIndex)
			v := pop()
			if v.ref != nil {
				ok, jt := ex.runtimeInstanceOf(v.ref.class, cname)
				if jt != nil {
					thrown = jt
					break
				}
				if !ok {
					thrown = throwf("java/lang/ClassCastException", "%s cannot be cast to %s", v.ref.class, cname)
					break
				}
			}
			stackPush(&stack, v)
		case bytecode.Instanceof:
			cname, _ := ex.f.Pool.ClassName(in.CPIndex)
			v := pop()
			res := int64(0)
			if v.ref != nil {
				ok, jt := ex.runtimeInstanceOf(v.ref.class, cname)
				if jt != nil {
					thrown = jt
					break
				}
				if ok {
					res = 1
				}
			}
			stackPush(&stack, intVal(res))
		case bytecode.Monitorenter, bytecode.Monitorexit:
			if pop().ref == nil {
				thrown = throwf("java/lang/NullPointerException", "monitor on null")
			}

		default:
			thrown = throwf(dot2slash(ErrInternal), "unsupported opcode %s at pc %d", op.Mnemonic(), in.PC)
		}

		if thrown != nil {
			if thrown.class == "budget" {
				return value{}, thrown
			}
			// Search this method's exception table.
			handled := false
			for _, h := range code.Handlers {
				if in.PC < int(h.StartPC) || in.PC >= int(h.EndPC) {
					continue
				}
				catch := ""
				if h.CatchType != 0 {
					catch, _ = ex.f.Pool.ClassName(h.CatchType)
				}
				if catch == "" || ex.throwMatches(thrown.class, catch) {
					hidx, ok := pcIndex.at(int(h.HandlerPC))
					if !ok {
						continue
					}
					stack = stack[:0]
					stackPush(&stack, refVal(&object{class: thrown.class, str: thrown.msg}))
					idx = hidx
					handled = true
					vm.st(pInterpHandler)
					break
				}
			}
			if handled {
				continue
			}
			return value{}, thrown
		}

		if jumpTo >= 0 {
			ni, ok := pcIndex.at(jumpTo)
			if !ok {
				return value{}, throwf(dot2slash(ErrVerify), "branch to invalid pc %d", jumpTo)
			}
			idx = ni
		} else {
			idx++
			if idx >= len(ins) {
				return value{}, throwf(dot2slash(ErrVerify), "fell off the end of the code")
			}
		}
	}
}

func fmod(a, b float64) float64 {
	if b == 0 {
		return a / b // NaN, like Java
	}
	return a - b*float64(int64(a/b))
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// throwMatches reports whether a thrown class is caught by a handler's
// catch type, using the environment hierarchy (self-thrown classes
// match exactly or via the declared superclass).
func (ex *execState) throwMatches(thrown, catch string) bool {
	if thrown == catch {
		return true
	}
	if thrown == ex.name {
		return ex.vm.Env.IsSubclassOf(ex.f.SuperName(), catch)
	}
	return ex.vm.Env.IsSubclassOf(thrown, catch)
}

// runtimeInstanceOf resolves an instanceof/checkcast target lazily; a
// missing class surfaces as NoClassDefFoundError at runtime (the GIJ
// channel).
func (ex *execState) runtimeInstanceOf(from, to string) (bool, *javaThrow) {
	if to == ex.name {
		return from == ex.name, nil
	}
	if from == ex.name {
		if ex.vm.Env.AssignableTo(ex.f.SuperName(), to) {
			return true, nil
		}
		for _, n := range ex.f.InterfaceNames() {
			if n == to || ex.vm.Env.AssignableTo(n, to) {
				return true, nil
			}
		}
		return false, nil
	}
	if _, ok := ex.vm.Env.Lookup(to); !ok {
		return false, throwf(dot2slash(ErrNoClassDef), "%s", to)
	}
	return ex.vm.Env.AssignableTo(from, to), nil
}

// checkInstantiable guards `new`: interfaces and abstract classes throw
// InstantiationError; a missing class throws NoClassDefFoundError.
func (ex *execState) checkInstantiable(cname string) *javaThrow {
	if cname == ex.name {
		if ex.f.IsInterface() || ex.f.AccessFlags.Has(classfile.AccAbstract) {
			return throwf(dot2slash(ErrInstantiation), "%s", cname)
		}
		return nil
	}
	ci, ok := ex.vm.Env.Lookup(cname)
	if !ok {
		return throwf(dot2slash(ErrNoClassDef), "%s", cname)
	}
	if ci.Interface || ci.Abstract {
		return throwf(dot2slash(ErrInstantiation), "%s", cname)
	}
	if ex.vm.Spec.Policy.CheckResolvedAccess && !ci.Accessible {
		return throwf(dot2slash(ErrIllegalAccess), "%s", cname)
	}
	return nil
}

// interpField executes the four field-access opcodes.
func (ex *execState) interpField(op bytecode.Opcode, in *bytecode.Instruction, stack *[]value) *javaThrow {
	cls, name, desc, ok := ex.f.Pool.MemberRef(in.CPIndex)
	if !ok {
		return throwf(dot2slash(ErrClassFormat), "field access through invalid constant")
	}

	// Lazy resolution failure channel.
	if !ex.vm.Spec.Policy.EagerResolution {
		kind, _ := ex.resolveClass(cls)
		if kind == kindMissing {
			return throwf(dot2slash(ErrNoClassDef), "%s", cls)
		}
		if !ex.fieldExists(cls, name, desc) {
			return throwf(dot2slash(ErrNoSuchField), "%s.%s", cls, name)
		}
	}

	// System.out / System.err are the interesting platform statics.
	switch op {
	case bytecode.Getstatic:
		if cls == "java/lang/System" && (name == "out" || name == "err") {
			stackPush(stack, refVal(&object{class: "java/io/PrintStream", str: name}))
			return nil
		}
		if v, ok := ex.statics[staticKey{cls, name, desc}]; ok {
			stackPush(stack, v)
		} else {
			stackPush(stack, zeroOf(desc))
		}
	case bytecode.Putstatic:
		ex.statics[staticKey{cls, name, desc}] = stackPop(stack)
	case bytecode.Getfield:
		recv := stackPop(stack)
		if recv.ref == nil {
			return throwf("java/lang/NullPointerException", "getfield %s", name)
		}
		if recv.ref.fields == nil {
			recv.ref.fields = map[string]value{}
		}
		if v, ok := recv.ref.fields[name+":"+desc]; ok {
			stackPush(stack, v)
		} else {
			stackPush(stack, zeroOf(desc))
		}
	case bytecode.Putfield:
		v := stackPop(stack)
		recv := stackPop(stack)
		if recv.ref == nil {
			return throwf("java/lang/NullPointerException", "putfield %s", name)
		}
		if recv.ref.fields == nil {
			recv.ref.fields = map[string]value{}
		}
		recv.ref.fields[name+":"+desc] = v
	}
	return nil
}

// stackPop pops the operand stack (empty pops yield the zero value —
// the verifier is the arbiter of underflow).
func stackPop(stack *[]value) value {
	s := *stack
	if len(s) == 0 {
		return value{}
	}
	v := s[len(s)-1]
	*stack = s[:len(s)-1]
	return v
}

// stackPush pushes onto the operand stack.
func stackPush(stack *[]value, v value) { *stack = append(*stack, v) }

// allocArray charges an n-element array to the run's HeapBudget, or
// throws before anything is allocated.
func (ex *execState) allocArray(n int64) *javaThrow {
	if n < 0 {
		return throwf("java/lang/NegativeArraySizeException", "%d", n)
	}
	return ex.charge(n)
}

// charge draws n units — array elements or string bytes — from the
// run's HeapBudget, or throws OutOfMemoryError so the caller allocates
// nothing.
func (ex *execState) charge(n int64) *javaThrow {
	if n > HeapBudget-ex.heap {
		return throwf("java/lang/OutOfMemoryError", "Java heap space")
	}
	ex.heap += n
	return nil
}

// interpInvoke executes the invoke opcodes: platform intrinsics get
// hand-written semantics; methods of the class under test recurse into
// the interpreter.
func (ex *execState) interpInvoke(op bytecode.Opcode, in *bytecode.Instruction, stack *[]value) *javaThrow {
	cls, name, desc, ok := ex.f.Pool.MemberRef(in.CPIndex)
	if !ok {
		return throwf(dot2slash(ErrClassFormat), "invoke through invalid constant")
	}
	nargs, ret, ok := descriptor.MethodArity(desc)
	if !ok {
		return throwf(dot2slash(ErrClassFormat), "invoked descriptor %q malformed", desc)
	}
	void := ret == "V"

	s := *stack
	static := op == bytecode.Invokestatic
	total := nargs
	if !static {
		total++
	}
	if len(s) < total {
		return throwf(dot2slash(ErrVerify), "operand stack underflow at invoke")
	}
	// args aliases the popped operands: callees copy them into their
	// locals, and nothing reads args once the result is pushed.
	args := s[len(s)-total : len(s) : len(s)]
	*stack = s[:len(s)-total]

	// Lazy resolution (GIJ): failures surface here, at runtime.
	if !ex.vm.Spec.Policy.EagerResolution {
		kind, _ := ex.resolveClass(cls)
		if kind == kindMissing {
			return throwf(dot2slash(ErrNoClassDef), "%s", cls)
		}
		if !ex.methodExists(cls, name, desc) {
			return throwf(dot2slash(ErrNoSuchMethod), "%s.%s%s", cls, name, desc)
		}
	}

	// Own methods: interpret recursively.
	if cls == ex.name {
		m := ex.f.FindMethodExact(name, desc)
		if m == nil {
			return throwf(dot2slash(ErrNoSuchMethod), "%s.%s%s", cls, name, desc)
		}
		if m.AccessFlags.Has(classfile.AccAbstract) {
			return throwf(dot2slash(ErrAbstractMethod), "%s.%s", cls, name)
		}
		if m.AccessFlags.Has(classfile.AccNative) {
			return throwf(dot2slash(ErrUnsatisfiedLink), "%s.%s", cls, name)
		}
		v, jt := ex.callMethod(m, args)
		if jt != nil {
			return jt
		}
		if !void {
			stackPush(stack, v)
		}
		return nil
	}

	// Platform semantics.
	v, jt, handled := ex.platformInvoke(cls, name, args)
	if jt != nil {
		return jt
	}
	if handled {
		if !void {
			stackPush(stack, v)
		}
		return nil
	}
	// Known platform method without bespoke semantics: return the
	// default value of the return type (a benign stub).
	if !void {
		stackPush(stack, zeroOf(ret))
	}
	return nil
}

// platformInvoke implements the platform intrinsics the generated
// classes use. handled=false means the method resolved but has no
// bespoke semantics.
func (ex *execState) platformInvoke(cls, name string, args []value) (value, *javaThrow, bool) {
	ex.vm.stPlatform(cls, name)
	recvStr := func() string {
		if len(args) > 0 && args[0].ref != nil {
			return args[0].ref.str
		}
		return ""
	}
	switch cls {
	case "java/io/PrintStream":
		if name == "println" || name == "print" {
			if len(args) == 0 || args[0].ref == nil {
				return value{}, throwf("java/lang/NullPointerException", "println on null stream"), false
			}
			line := formatValue(args[1:])
			ex.output = append(ex.output, line)
			return value{}, nil, true
		}
	case "java/lang/String":
		switch name {
		case "length":
			return intVal(int64(len(recvStr()))), nil, true
		case "charAt":
			s := recvStr()
			i := args[1].i
			if i < 0 || int(i) >= len(s) {
				return value{}, throwf("java/lang/StringIndexOutOfBoundsException", "%d", i), false
			}
			return intVal(int64(s[i])), nil, true
		case "concat":
			other := ""
			if args[1].ref != nil {
				other = args[1].ref.str
			}
			if jt := ex.charge(int64(len(recvStr()) + len(other))); jt != nil {
				return value{}, jt, false
			}
			return refVal(stringObj(recvStr() + other)), nil, true
		case "valueOf":
			return refVal(stringObj(strconv.FormatInt(args[0].i, 10))), nil, true
		case "equals":
			eq := int64(0)
			if args[1].ref != nil && args[1].ref.class == "java/lang/String" && args[1].ref.str == recvStr() {
				eq = 1
			}
			return intVal(eq), nil, true
		}
	case "java/lang/StringBuilder":
		switch name {
		case "<init>":
			if args[0].ref != nil {
				args[0].ref.sb = &strings.Builder{}
			}
			return value{}, nil, true
		case "append":
			if args[0].ref != nil && args[0].ref.sb != nil {
				s := "null"
				if args[1].kind != 'A' {
					s = strconv.FormatInt(args[1].i, 10)
				} else if args[1].ref != nil {
					s = args[1].ref.str
				}
				if jt := ex.charge(int64(len(s))); jt != nil {
					return value{}, jt, false
				}
				args[0].ref.sb.WriteString(s)
			}
			return args[0], nil, true
		case "toString":
			// The result shares the builder's bytes, which append
			// already charged.
			if args[0].ref != nil && args[0].ref.sb != nil {
				return refVal(stringObj(args[0].ref.sb.String())), nil, true
			}
			return refVal(stringObj("")), nil, true
		}
	case "java/lang/Integer":
		switch name {
		case "valueOf":
			o := &object{class: "java/lang/Integer", fields: map[string]value{"value:I": args[0]}}
			return refVal(o), nil, true
		case "intValue":
			if args[0].ref != nil {
				return args[0].ref.fields["value:I"], nil, true
			}
			return value{}, throwf("java/lang/NullPointerException", "intValue"), false
		case "parseInt":
			n, err := strconv.ParseInt(recvStr(), 10, 32)
			_ = err
			return intVal(n), nil, true
		}
	case "java/lang/Math":
		switch name {
		case "abs":
			v := args[0].i
			if v < 0 {
				v = -v
			}
			return intVal(v), nil, true
		case "max":
			return intVal(max(args[0].i, args[1].i)), nil, true
		case "min":
			return intVal(min(args[0].i, args[1].i)), nil, true
		}
	case "java/lang/System":
		if name == "exit" {
			return value{}, &javaThrow{class: "budget", msg: "System.exit"}, false
		}
		if name == "currentTimeMillis" {
			return longVal(0), nil, true // deterministic simulation clock
		}
	case "java/lang/Object":
		switch name {
		case "<init>":
			return value{}, nil, true
		case "hashCode":
			return intVal(1), nil, true
		case "equals":
			eq := int64(0)
			if len(args) == 2 && args[0].ref == args[1].ref {
				eq = 1
			}
			return intVal(eq), nil, true
		case "toString":
			c := "null"
			if args[0].ref != nil {
				c = args[0].ref.class
			}
			return refVal(stringObj(c + "@1")), nil, true
		case "getClass":
			c := ""
			if args[0].ref != nil {
				c = args[0].ref.class
			}
			return refVal(&object{class: "java/lang/Class", str: c}), nil, true
		case "getBoolean":
			return intVal(0), nil, true
		}
	case "java/util/ArrayList":
		switch name {
		case "<init>":
			if args[0].ref != nil {
				args[0].ref.arr = []value{}
			}
			return value{}, nil, true
		case "add":
			if args[0].ref == nil {
				return value{}, throwf("java/lang/NullPointerException", "add"), false
			}
			args[0].ref.arr = append(args[0].ref.arr, args[1])
			return intVal(1), nil, true
		case "size":
			if args[0].ref == nil {
				return value{}, throwf("java/lang/NullPointerException", "size"), false
			}
			return intVal(int64(len(args[0].ref.arr))), nil, true
		case "get":
			if args[0].ref == nil {
				return value{}, throwf("java/lang/NullPointerException", "get"), false
			}
			i := args[1].i
			if i < 0 || int(i) >= len(args[0].ref.arr) {
				return value{}, throwf("java/lang/IndexOutOfBoundsException", "%d", i), false
			}
			return args[0].ref.arr[i], nil, true
		}
	case "java/util/HashMap":
		switch name {
		case "<init>":
			if args[0].ref != nil && args[0].ref.fields == nil {
				args[0].ref.fields = map[string]value{}
			}
			return value{}, nil, true
		case "put":
			if args[0].ref == nil {
				return value{}, throwf("java/lang/NullPointerException", "put"), false
			}
			k := "null"
			if args[1].ref != nil {
				k = args[1].ref.str
			}
			if args[0].ref.fields == nil {
				args[0].ref.fields = map[string]value{}
			}
			old, had := args[0].ref.fields[k]
			args[0].ref.fields[k] = args[2]
			if had {
				return old, nil, true
			}
			return nullVal(), nil, true
		case "get":
			if args[0].ref == nil {
				return value{}, throwf("java/lang/NullPointerException", "get"), false
			}
			k := "null"
			if args[1].ref != nil {
				k = args[1].ref.str
			}
			if v, ok := args[0].ref.fields[k]; ok {
				return v, nil, true
			}
			return nullVal(), nil, true
		}
	case "java/lang/Thread":
		switch name {
		case "<init>", "start", "run":
			return value{}, nil, true // threads are inert in the simulation
		}
	}
	// Throwable family constructors record the message for athrow.
	if ex.vm.Env.IsThrowable(cls) {
		switch name {
		case "<init>":
			if args[0].ref != nil && len(args) > 1 && args[1].ref != nil {
				args[0].ref.str = args[1].ref.str
			}
			return value{}, nil, true
		case "getMessage":
			if args[0].ref != nil {
				return refVal(stringObj(args[0].ref.str)), nil, true
			}
		}
	}
	return value{}, nil, false
}

// formatValue renders println arguments.
func formatValue(args []value) string {
	if len(args) == 0 {
		return ""
	}
	a := args[0]
	switch a.kind {
	case 'A':
		if a.ref == nil {
			return "null"
		}
		if a.ref.class == "java/lang/String" {
			return a.ref.str
		}
		return a.ref.class + "@1"
	case 'F', 'D':
		return strconv.FormatFloat(a.f, 'g', -1, 64)
	case 'I':
		if a.i == 0 || a.i == 1 {
			// May be a boolean; int rendering is identical enough for the
			// simulation's output-comparison purposes.
		}
		return strconv.FormatInt(a.i, 10)
	default:
		return strconv.FormatInt(a.i, 10)
	}
}
