package jimple

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/descriptor"
)

// LowerCtx is a reusable lowering context. The per-method compiler
// scratch (slot map, instruction and relocation buffers, instruction
// arena, max-stack worklist, descriptor intern table) lives here and is
// recycled across methods and across Lower calls, and so does the
// output: one classfile.File with its constant pool, constant arena and
// member arena, plus arenas for the attribute lists, Code,
// LineNumberTable and Exceptions attributes and their tables, and one
// byte buffer the code arrays are assembled into. A long-lived caller — one campaign
// worker, say — thus pays for the buffers once instead of per class. A
// zero LowerCtx is ready to use; contexts are not safe for concurrent
// use. Lowering through a reused context produces bytes identical to a
// fresh one: reuse changes where scratch lives, never what is emitted.
type LowerCtx struct {
	lw lowerer
	ms maxStackScratch

	f        classfile.File
	attrs    arena.Arena[classfile.Attribute]
	codes    arena.Arena[classfile.CodeAttr]
	lines    arena.Arena[classfile.LineNumberTableAttr]
	lineEnts arena.Arena[classfile.LineNumberEntry]
	excs     arena.Arena[classfile.ExceptionsAttr]
	classes  arena.Arena[uint16]

	// code holds the code arrays of the class being lowered, one after
	// another (see assemble).
	code []byte
}

// NewLowerCtx returns an empty reusable lowering context.
func NewLowerCtx() *LowerCtx { return &LowerCtx{} }

// Lower compiles the Jimple class into a classfile. Lowering is
// deliberately non-judgemental: a class holding illegal constructs
// (bad flags, type mismatches, dangling references) lowers into exactly
// the illegal classfile the fuzzer wants to feed the VMs. Errors are
// returned only when the container format cannot represent the class
// at all. Each call uses a fresh context, so the File is the caller's
// to keep.
func Lower(c *Class) (*classfile.File, error) {
	return new(LowerCtx).Lower(c)
}

// Lower compiles the Jimple class into the context's reused File; see
// the package-level Lower for semantics. The returned File is valid
// only until the next Lower on the same context: nothing may keep it,
// or anything reached through it, past that. Once written
// (classfile.File.AppendBytes), the File equals Parse of its bytes, so
// a caller may execute it in place of parsing them
// (FuzzLowerRoundTrip checks this).
func (ctx *LowerCtx) Lower(c *Class) (*classfile.File, error) {
	f := &ctx.f
	ctx.rewindCode()
	f.Reset()
	ctx.attrs.Rewind()
	ctx.codes.Rewind()
	ctx.lines.Rewind()
	ctx.lineEnts.Rewind()
	ctx.excs.Rewind()
	ctx.classes.Rewind()
	f.Minor = c.Minor
	f.Major = c.Major
	f.AccessFlags = c.Modifiers
	f.ThisClass = f.Pool.AddClass(c.Name)
	if c.Super != "" {
		f.SuperClass = f.Pool.AddClass(c.Super)
	}
	for _, i := range c.Interfaces {
		f.Interfaces = append(f.Interfaces, f.Pool.AddClass(i))
	}
	for _, fl := range c.Fields {
		f.AddField(fl.Modifiers, fl.Name, ctx.lw.typeDesc(fl.Type))
	}
	for _, m := range c.Methods {
		mem := f.AddMethod(m.Modifiers, m.Name, ctx.lw.methodDesc(descriptor.Method{Params: m.Params, Return: m.Return}))
		if n := memberAttrs(m); n > 0 {
			mem.Attributes = ctx.attrs.Run(n)
		}
		if len(m.Throws) > 0 {
			ex := ctx.excs.Put(classfile.ExceptionsAttr{Classes: ctx.classes.Run(len(m.Throws))})
			for _, t := range m.Throws {
				ex.Classes = append(ex.Classes, f.Pool.AddClass(t))
			}
			mem.Attributes = append(mem.Attributes, ex)
		}
		if m.Body == nil {
			continue
		}
		code, err := ctx.lowerBody(f, c, m)
		if err != nil {
			return nil, fmt.Errorf("jimple: lowering %s.%s: %w", c.Name, m.Name, err)
		}
		mem.Attributes = append(mem.Attributes, code)
	}
	if c.SourceFile != "" {
		f.Attributes = append(f.Attributes, &classfile.SourceFileAttr{NameIndex: f.Pool.AddUtf8(c.SourceFile)})
	}
	return f, nil
}

// rewindCode empties the code buffer for the next class. When the
// class the File still holds had more code than the buffer, the buffer
// is first replaced with one that holds all of it (at least doubling,
// so a growing class stream settles after a few replacements).
func (ctx *LowerCtx) rewindCode() {
	used := 0
	for _, m := range ctx.f.Methods {
		if code := m.Code(); code != nil {
			used += len(code.Code)
		}
	}
	if used > cap(ctx.code) {
		ctx.code = make([]byte, 0, max(used, 2*cap(ctx.code)))
	}
	ctx.code = ctx.code[:0]
}

// assemble lays out ins and encodes its code array at the end of the
// code buffer, capacity-limited so no Code attribute can grow into the
// next. A code array that does not fit gets an array of its own, of
// exactly its size — so a context that lowers one class allocates no
// more than assembling each code array into a fresh one.
func (ctx *LowerCtx) assemble(ins []*bytecode.Instruction) ([]byte, error) {
	n := len(ctx.code)
	code, err := bytecode.Assemble(ctx.code[n:n], ins, true)
	if err != nil {
		return nil, err
	}
	if len(code) <= cap(ctx.code)-n {
		ctx.code = ctx.code[:n+len(code)]
	}
	return code[:len(code):len(code)], nil
}

// memberAttrs counts the attributes m's method_info carries: Exceptions
// when it declares throws, Code when it has a body.
func memberAttrs(m *Method) int {
	n := 0
	if len(m.Throws) > 0 {
		n++
	}
	if m.Body != nil {
		n++
	}
	return n
}

// lowerer compiles one method body.
type lowerer struct {
	f     *classfile.File
	c     *Class
	m     *Method
	slots map[*Local]int
	next  int // next free local slot
	ins   []*bytecode.Instruction
	// reloc[i] is true when ins[i].Branch holds a *statement* index that
	// must be resolved to an instruction index before assembly. Raw
	// blocks pre-resolve their branches to instruction indices and are
	// marked false; bytecode.Assemble converts all instruction indices
	// to byte offsets.
	reloc     []bool
	stmtFirst []int
	paramSlot []int
	// origIndex maps a raw block's original pcs to instruction indices.
	origIndex map[int]int
	// descBuf and descs render descriptors without allocating once warm:
	// the text is built in descBuf and interned in descs.
	descBuf []byte
	descs   map[string]string
	// insArena chunk-allocates the emitted instructions, rewound per
	// body: pointers in ins stay valid while the body is compiled.
	insArena arena.Arena[bytecode.Instruction]
}

func (ctx *LowerCtx) lowerBody(f *classfile.File, c *Class, m *Method) (*classfile.CodeAttr, error) {
	// Reset the reused lowerer. Truncating ins/reloc and rewinding the
	// instruction arena keeps their capacity; nothing retains pointers into them once lowerBody
	// returns (the CodeAttr holds assembled bytes and copied entries).
	lw := &ctx.lw
	lw.f, lw.c, lw.m = f, c, m
	lw.next = 0
	if lw.slots == nil {
		lw.slots = make(map[*Local]int)
	} else {
		clear(lw.slots)
	}
	lw.ins = lw.ins[:0]
	lw.reloc = lw.reloc[:0]
	lw.insArena.Rewind()

	// Slot layout: receiver, parameters (by descriptor), then the
	// remaining declared locals. Identity statements bind locals to the
	// receiver/parameter slots.
	if !m.IsStatic() {
		lw.next = 1 // slot 0 = this
	}
	paramSlot := lw.paramSlot[:0]
	for _, p := range m.Params {
		paramSlot = append(paramSlot, lw.next)
		lw.next += p.Slots()
	}
	lw.paramSlot = paramSlot
	for _, s := range m.Body {
		id, ok := s.(*Identity)
		if !ok || id.Target == nil {
			continue
		}
		if id.Param < 0 {
			lw.slots[id.Target] = 0
		} else if id.Param < len(paramSlot) {
			lw.slots[id.Target] = paramSlot[id.Param]
		}
		// An identity for a parameter beyond the list gets a fresh slot
		// lazily (reading it is a verification error — intended).
	}
	for _, l := range m.Locals {
		lw.slot(l)
	}

	// Compile statements.
	if cap(lw.stmtFirst) < len(m.Body)+1 {
		lw.stmtFirst = make([]int, len(m.Body)+1)
	} else {
		lw.stmtFirst = lw.stmtFirst[:len(m.Body)+1]
	}
	for i, s := range m.Body {
		lw.stmtFirst[i] = len(lw.ins)
		lw.stmt(s)
	}
	lw.stmtFirst[len(m.Body)] = len(lw.ins)

	// Resolve statement-index branches to instruction indices.
	insIndexOf := func(stmtIdx int) int {
		if stmtIdx < 0 {
			stmtIdx = 0
		}
		if stmtIdx >= len(lw.stmtFirst) {
			stmtIdx = len(lw.stmtFirst) - 1
		}
		k := lw.stmtFirst[stmtIdx]
		if k >= len(lw.ins) {
			k = len(lw.ins) - 1
		}
		if k < 0 {
			k = 0
		}
		return k
	}
	for i, in := range lw.ins {
		if !lw.reloc[i] {
			continue
		}
		if in.Op.IsBranch() {
			in.Branch = int32(insIndexOf(int(in.Branch)))
		}
	}

	if len(lw.ins) == 0 {
		// An empty body lowers to an empty (illegal) code array.
		return ctx.codes.Put(classfile.CodeAttr{MaxStack: 0, MaxLocals: uint16(lw.next), Code: nil}), nil
	}

	code, err := ctx.assemble(lw.ins)
	if err != nil {
		return nil, err
	}
	maxStack := computeMaxStack(lw.ins, f.Pool, &ctx.ms)
	if int(m.RawMaxStack) > maxStack {
		maxStack = int(m.RawMaxStack)
	}
	maxLocals := lw.next
	if raw := maxRawLocal(lw.ins); raw+1 > maxLocals {
		maxLocals = raw + 2 // +2 keeps room for a wide value in the top slot
	}
	if int(m.RawMaxLocals) > maxLocals {
		maxLocals = int(m.RawMaxLocals)
	}
	attr := ctx.codes.Put(classfile.CodeAttr{
		MaxStack:  uint16(maxStack),
		MaxLocals: uint16(maxLocals),
		Code:      code,
	})
	// Debug info: map each statement's first instruction to a pseudo
	// source line (its 1-based statement index), like Soot's Jimple line
	// tags. Tools and stack traces downstream get meaningful positions.
	lnt := ctx.lines.Put(classfile.LineNumberTableAttr{Entries: ctx.lineEnts.Run(len(m.Body))})
	lastPC := -1
	for si := 0; si < len(m.Body); si++ {
		ii := lw.stmtFirst[si]
		if ii >= len(lw.ins) {
			break
		}
		pc := lw.ins[ii].PC
		if pc == lastPC {
			continue // statement emitted no code (identity)
		}
		lastPC = pc
		lnt.Entries = append(lnt.Entries, classfile.LineNumberEntry{
			StartPC: uint16(pc),
			Line:    uint16(si + 1),
		})
	}
	if len(lnt.Entries) > 0 {
		attr.Attributes = append(ctx.attrs.Run(1), lnt)
	}
	// Exception handlers of a raw-lifted body carry over; their catch
	// types are re-interned into the fresh pool.
	for _, h := range m.RawHandlers {
		nh := h
		if h.CatchType != 0 && c.OrigPool != nil {
			nh.CatchType = internConst(f.Pool, c.OrigPool, h.CatchType)
		}
		attr.Handlers = append(attr.Handlers, nh)
	}
	return attr, nil
}

// maxRawLocal scans emitted instructions for the highest local slot a
// raw block touches, so max_locals covers slots the structured layout
// never allocated.
func maxRawLocal(ins []*bytecode.Instruction) int {
	maxSlot := -1
	for _, in := range ins {
		op := in.Op
		if op == bytecode.Wide {
			op = in.WideOp
		}
		info, ok := bytecode.Lookup(op)
		if !ok {
			continue
		}
		switch info.Kind {
		case bytecode.OpLocalByte, bytecode.OpIinc, bytecode.OpWide:
			if int(in.Local) > maxSlot {
				maxSlot = int(in.Local)
			}
		case bytecode.OpNone:
			if slot, ok := shortFormSlot(op); ok && slot > maxSlot {
				maxSlot = slot
			}
		}
	}
	return maxSlot
}

// shortFormSlot extracts the implicit slot of xload_N / xstore_N forms.
func shortFormSlot(op bytecode.Opcode) (int, bool) {
	if op >= bytecode.Iload0 && op <= bytecode.Aload3 {
		return int(op-bytecode.Iload0) % 4, true
	}
	if op >= bytecode.Istore0 && op <= bytecode.Astore3 {
		return int(op-bytecode.Istore0) % 4, true
	}
	return 0, false
}

// slot returns (allocating if needed) the local-variable slot of l.
func (lw *lowerer) slot(l *Local) int {
	if s, ok := lw.slots[l]; ok {
		return s
	}
	s := lw.next
	lw.slots[l] = s
	lw.next += l.Type.Slots()
	if l.Type.Slots() == 0 { // defensive: void-typed local still takes one
		lw.next++
	}
	return s
}

// descInternMax bounds a context's descriptor intern table: descriptors
// naming a mutant's own class recur in no later class, so a long-lived
// context would otherwise grow the table without limit. A full table is
// dropped wholesale (entries are pure functions of their keys).
const descInternMax = 1 << 12

// intern returns the descriptor text b as a string, allocated only the
// first time the context sees the text.
func (lw *lowerer) intern(b []byte) string {
	if lw.descs == nil {
		lw.descs = make(map[string]string)
	}
	if s, ok := lw.descs[string(b)]; ok {
		return s
	}
	if len(lw.descs) >= descInternMax {
		clear(lw.descs)
	}
	s := string(b)
	lw.descs[s] = s
	return s
}

// typeDesc renders a field type in descriptor syntax.
func (lw *lowerer) typeDesc(t descriptor.Type) string {
	lw.descBuf = t.AppendTo(lw.descBuf[:0])
	return lw.intern(lw.descBuf)
}

// methodDesc renders a method signature in descriptor syntax.
func (lw *lowerer) methodDesc(m descriptor.Method) string {
	lw.descBuf = m.AppendTo(lw.descBuf[:0])
	return lw.intern(lw.descBuf)
}

func (lw *lowerer) emit(in bytecode.Instruction) {
	lw.ins = append(lw.ins, lw.insArena.Put(in))
	lw.reloc = append(lw.reloc, false)
}

func (lw *lowerer) emitBranch(op bytecode.Opcode, stmtTarget int) {
	lw.ins = append(lw.ins, lw.insArena.Put(bytecode.Instruction{Op: op, Branch: int32(stmtTarget)}))
	lw.reloc = append(lw.reloc, true)
}

func (lw *lowerer) op(op bytecode.Opcode) { lw.emit(bytecode.Instruction{Op: op}) }

func (lw *lowerer) cp(op bytecode.Opcode, idx uint16) {
	lw.emit(bytecode.Instruction{Op: op, CPIndex: idx})
}

// kindOf computes the computational kind of an expression:
// 'I','J','F','D','A' (or 'V' for void invokes).
func (lw *lowerer) kindOf(e Expr) byte {
	switch x := e.(type) {
	case *IntConst:
		return x.Kind
	case *FloatConst:
		return x.Kind
	case *StringConst, *NullConst, *ClassConst, *NewExpr, *NewArrayExpr:
		return 'A'
	case *UseLocal:
		return typeKind(x.L.Type)
	case *StaticFieldRef:
		return typeKind(x.Type)
	case *InstanceFieldRef:
		return typeKind(x.Type)
	case *ArrayRef:
		return typeKind(x.Elem)
	case *BinOp:
		return x.Kind
	case *Neg:
		return x.Kind
	case *Cast:
		return typeKind(x.To)
	case *InstanceOf:
		return 'I'
	case *ArrayLen:
		return 'I'
	case *Invoke:
		if x.Sig.Return.IsVoid() {
			return 'V'
		}
		return typeKind(x.Sig.Return)
	}
	return 'A'
}

func typeKind(t descriptor.Type) byte {
	if t.IsReference() {
		return 'A'
	}
	switch t.Kind {
	case 'J', 'F', 'D':
		return t.Kind
	case 'V':
		return 'V'
	default:
		return 'I'
	}
}

// loadLocal emits the load instruction for a slot of the given kind.
func (lw *lowerer) loadLocal(slot int, kind byte) {
	var base bytecode.Opcode
	switch kind {
	case 'I':
		base = bytecode.Iload
	case 'J':
		base = bytecode.Lload
	case 'F':
		base = bytecode.Fload
	case 'D':
		base = bytecode.Dload
	default:
		base = bytecode.Aload
	}
	lw.localOp(base, slot)
}

// storeLocal emits the store instruction for a slot of the given kind.
func (lw *lowerer) storeLocal(slot int, kind byte) {
	var base bytecode.Opcode
	switch kind {
	case 'I':
		base = bytecode.Istore
	case 'J':
		base = bytecode.Lstore
	case 'F':
		base = bytecode.Fstore
	case 'D':
		base = bytecode.Dstore
	default:
		base = bytecode.Astore
	}
	lw.localOp(base, slot)
}

// localOp emits the short form (xload_0..3) when available.
func (lw *lowerer) localOp(base bytecode.Opcode, slot int) {
	if slot >= 0 && slot <= 3 {
		var zero bytecode.Opcode
		switch base {
		case bytecode.Iload:
			zero = bytecode.Iload0
		case bytecode.Lload:
			zero = bytecode.Lload0
		case bytecode.Fload:
			zero = bytecode.Fload0
		case bytecode.Dload:
			zero = bytecode.Dload0
		case bytecode.Aload:
			zero = bytecode.Aload0
		case bytecode.Istore:
			zero = bytecode.Istore0
		case bytecode.Lstore:
			zero = bytecode.Lstore0
		case bytecode.Fstore:
			zero = bytecode.Fstore0
		case bytecode.Dstore:
			zero = bytecode.Dstore0
		case bytecode.Astore:
			zero = bytecode.Astore0
		}
		if zero != 0 {
			lw.op(zero + bytecode.Opcode(slot))
			return
		}
	}
	if slot > 255 {
		lw.emit(bytecode.Instruction{Op: bytecode.Wide, WideOp: base, Local: uint16(slot)})
		return
	}
	lw.emit(bytecode.Instruction{Op: base, Local: uint16(slot)})
}

// expr compiles an expression, leaving its value on the stack, and
// returns its kind.
func (lw *lowerer) expr(e Expr) byte {
	switch x := e.(type) {
	case *IntConst:
		if x.Kind == 'J' {
			switch x.V {
			case 0:
				lw.op(bytecode.Lconst0)
			case 1:
				lw.op(bytecode.Lconst1)
			default:
				lw.cp(bytecode.Ldc2W, lw.f.Pool.AddLong(x.V))
			}
			return 'J'
		}
		lw.pushInt(int32(x.V))
		return 'I'
	case *FloatConst:
		if x.Kind == 'D' {
			switch x.V {
			case 0:
				lw.op(bytecode.Dconst0)
			case 1:
				lw.op(bytecode.Dconst1)
			default:
				lw.cp(bytecode.Ldc2W, lw.f.Pool.AddDouble(x.V))
			}
			return 'D'
		}
		switch x.V {
		case 0:
			lw.op(bytecode.Fconst0)
		case 1:
			lw.op(bytecode.Fconst1)
		case 2:
			lw.op(bytecode.Fconst2)
		default:
			lw.ldc(lw.f.Pool.AddFloat(float32(x.V)))
		}
		return 'F'
	case *StringConst:
		lw.ldc(lw.f.Pool.AddString(x.V))
		return 'A'
	case *NullConst:
		lw.op(bytecode.AconstNull)
		return 'A'
	case *ClassConst:
		lw.ldc(lw.f.Pool.AddClass(x.Name))
		return 'A'
	case *UseLocal:
		k := typeKind(x.L.Type)
		lw.loadLocal(lw.slot(x.L), k)
		return k
	case *StaticFieldRef:
		lw.cp(bytecode.Getstatic, lw.f.Pool.AddFieldref(x.Class, x.Name, lw.typeDesc(x.Type)))
		return typeKind(x.Type)
	case *InstanceFieldRef:
		lw.loadLocal(lw.slot(x.Base), 'A')
		lw.cp(bytecode.Getfield, lw.f.Pool.AddFieldref(x.Class, x.Name, lw.typeDesc(x.Type)))
		return typeKind(x.Type)
	case *ArrayRef:
		lw.loadLocal(lw.slot(x.Base), 'A')
		lw.expr(x.Index)
		lw.op(arrayLoadOp(x.Elem))
		return typeKind(x.Elem)
	case *BinOp:
		if x.Op == OpCmp {
			k := lw.expr(x.L)
			lw.expr(x.R)
			switch k {
			case 'J':
				lw.op(bytecode.Lcmp)
			case 'F':
				lw.op(bytecode.Fcmpl)
			case 'D':
				lw.op(bytecode.Dcmpl)
			default:
				lw.op(bytecode.Isub) // int "cmp" degrades to subtraction
			}
			return 'I'
		}
		lw.expr(x.L)
		lw.expr(x.R)
		lw.op(binOpcode(x.Op, x.Kind))
		return x.Kind
	case *Neg:
		lw.expr(x.X)
		switch x.Kind {
		case 'J':
			lw.op(bytecode.Lneg)
		case 'F':
			lw.op(bytecode.Fneg)
		case 'D':
			lw.op(bytecode.Dneg)
		default:
			lw.op(bytecode.Ineg)
		}
		return x.Kind
	case *Cast:
		from := lw.expr(x.X)
		if x.To.IsReference() {
			name := x.To.ClassName
			if x.To.Dims > 0 {
				name = lw.typeDesc(x.To)
			}
			lw.cp(bytecode.Checkcast, lw.f.Pool.AddClass(name))
			return 'A'
		}
		lw.primConvert(from, typeKind(x.To))
		return typeKind(x.To)
	case *InstanceOf:
		lw.expr(x.X)
		lw.cp(bytecode.Instanceof, lw.f.Pool.AddClass(x.Of))
		return 'I'
	case *NewExpr:
		lw.cp(bytecode.New, lw.f.Pool.AddClass(x.Class))
		return 'A'
	case *NewArrayExpr:
		lw.expr(x.Size)
		if x.Elem.IsReference() {
			name := x.Elem.ClassName
			if x.Elem.Dims > 0 {
				name = lw.typeDesc(x.Elem)
			}
			lw.cp(bytecode.Anewarray, lw.f.Pool.AddClass(name))
		} else {
			lw.emit(bytecode.Instruction{Op: bytecode.Newarray, ArrayTyp: atypeOf(x.Elem)})
		}
		return 'A'
	case *ArrayLen:
		lw.expr(x.X)
		lw.op(bytecode.Arraylength)
		return 'I'
	case *Invoke:
		return lw.invoke(x)
	}
	// Unknown expression: leave the stack unbalanced (fuzzing noise).
	return 'A'
}

func (lw *lowerer) pushInt(v int32) {
	switch {
	case v >= -1 && v <= 5:
		lw.op(bytecode.Opcode(int(bytecode.Iconst0) + int(v)))
	case v >= -128 && v <= 127:
		lw.emit(bytecode.Instruction{Op: bytecode.Bipush, Imm: v})
	case v >= -32768 && v <= 32767:
		lw.emit(bytecode.Instruction{Op: bytecode.Sipush, Imm: v})
	default:
		lw.ldc(lw.f.Pool.AddInteger(v))
	}
}

func (lw *lowerer) ldc(idx uint16) {
	if idx <= 0xFF {
		lw.cp(bytecode.Ldc, idx)
	} else {
		lw.cp(bytecode.LdcW, idx)
	}
}

// primConvert emits the conversion opcode chain from one primitive kind
// to another (identity emits nothing; int-to-int subtypes emit i2b etc.
// only when the target type demands it, which typeKind already folded).
func (lw *lowerer) primConvert(from, to byte) {
	if from == to {
		return
	}
	if op, ok := primConversions[[2]byte{from, to}]; ok {
		lw.op(op)
	}
	// Conversions involving references have no opcode; the resulting
	// type confusion is the mutation's point.
}

// primConversions maps a (from, to) pair of primitive kinds to its
// conversion opcode.
var primConversions = map[[2]byte]bytecode.Opcode{
	{'I', 'J'}: bytecode.I2l, {'I', 'F'}: bytecode.I2f, {'I', 'D'}: bytecode.I2d,
	{'J', 'I'}: bytecode.L2i, {'J', 'F'}: bytecode.L2f, {'J', 'D'}: bytecode.L2d,
	{'F', 'I'}: bytecode.F2i, {'F', 'J'}: bytecode.F2l, {'F', 'D'}: bytecode.F2d,
	{'D', 'I'}: bytecode.D2i, {'D', 'J'}: bytecode.D2l, {'D', 'F'}: bytecode.D2f,
}

func (lw *lowerer) invoke(x *Invoke) byte {
	if x.Base != nil && x.Kind != InvokeStatic {
		lw.loadLocal(lw.slot(x.Base), 'A')
	}
	for _, a := range x.Args {
		lw.expr(a)
	}
	desc := lw.methodDesc(x.Sig)
	switch x.Kind {
	case InvokeStatic:
		lw.cp(bytecode.Invokestatic, lw.f.Pool.AddMethodref(x.Class, x.Name, desc))
	case InvokeVirtual:
		lw.cp(bytecode.Invokevirtual, lw.f.Pool.AddMethodref(x.Class, x.Name, desc))
	case InvokeSpecial:
		lw.cp(bytecode.Invokespecial, lw.f.Pool.AddMethodref(x.Class, x.Name, desc))
	case InvokeInterface:
		count := 1 + x.Sig.ParamSlots()
		lw.emit(bytecode.Instruction{
			Op:      bytecode.Invokeinterface,
			CPIndex: lw.f.Pool.AddInterfaceMethodref(x.Class, x.Name, desc),
			Count:   byte(count),
		})
	}
	if x.Sig.Return.IsVoid() {
		return 'V'
	}
	return typeKind(x.Sig.Return)
}

// stmt compiles one statement.
func (lw *lowerer) stmt(s Stmt) {
	switch x := s.(type) {
	case *Identity:
		// Parameter binding is a slot-assignment fact; no code. An
		// identity for a parameter beyond the descriptor still allocates
		// a (never-written) slot so later reads are verifiably wrong.
		if x.Target != nil {
			lw.slot(x.Target)
		}
	case *Assign:
		switch lhs := x.LHS.(type) {
		case *UseLocal:
			k := typeKind(lhs.L.Type)
			rk := lw.expr(x.RHS)
			if rk != 'V' {
				lw.storeLocal(lw.slot(lhs.L), k)
			}
		case *StaticFieldRef:
			lw.expr(x.RHS)
			lw.cp(bytecode.Putstatic, lw.f.Pool.AddFieldref(lhs.Class, lhs.Name, lw.typeDesc(lhs.Type)))
		case *InstanceFieldRef:
			lw.loadLocal(lw.slot(lhs.Base), 'A')
			lw.expr(x.RHS)
			lw.cp(bytecode.Putfield, lw.f.Pool.AddFieldref(lhs.Class, lhs.Name, lw.typeDesc(lhs.Type)))
		case *ArrayRef:
			lw.loadLocal(lw.slot(lhs.Base), 'A')
			lw.expr(lhs.Index)
			lw.expr(x.RHS)
			lw.op(arrayStoreOp(lhs.Elem))
		}
	case *InvokeStmt:
		k := lw.invoke(x.Call)
		switch k {
		case 'V':
		case 'J', 'D':
			lw.op(bytecode.Pop2)
		default:
			lw.op(bytecode.Pop)
		}
	case *Return:
		if x.Value == nil {
			lw.op(bytecode.Return)
			return
		}
		k := lw.expr(x.Value)
		switch k {
		case 'I':
			lw.op(bytecode.Ireturn)
		case 'J':
			lw.op(bytecode.Lreturn)
		case 'F':
			lw.op(bytecode.Freturn)
		case 'D':
			lw.op(bytecode.Dreturn)
		default:
			lw.op(bytecode.Areturn)
		}
	case *If:
		lw.lowerIf(x)
	case *Goto:
		lw.emitBranch(bytecode.Goto, x.Target)
	case *Throw:
		lw.expr(x.Value)
		lw.op(bytecode.Athrow)
	case *Nop:
		lw.op(bytecode.Nop)
	case *EnterMonitor:
		lw.expr(x.X)
		lw.op(bytecode.Monitorenter)
	case *ExitMonitor:
		lw.expr(x.X)
		lw.op(bytecode.Monitorexit)
	case *Raw:
		lw.lowerRaw(x)
	}
}

func (lw *lowerer) lowerIf(x *If) {
	lk := lw.kindOf(x.L)
	// Reference comparisons.
	if lk == 'A' {
		if _, isNull := x.R.(*NullConst); isNull {
			lw.expr(x.L)
			if x.Op == CondEq {
				lw.emitBranch(bytecode.Ifnull, x.Target)
			} else {
				lw.emitBranch(bytecode.Ifnonnull, x.Target)
			}
			return
		}
		lw.expr(x.L)
		lw.expr(x.R)
		if x.Op == CondEq {
			lw.emitBranch(bytecode.IfAcmpeq, x.Target)
		} else {
			lw.emitBranch(bytecode.IfAcmpne, x.Target)
		}
		return
	}
	// Wide/float comparisons go through cmp then a zero branch.
	if lk == 'J' || lk == 'F' || lk == 'D' {
		lw.expr(x.L)
		lw.expr(x.R)
		switch lk {
		case 'J':
			lw.op(bytecode.Lcmp)
		case 'F':
			lw.op(bytecode.Fcmpl)
		case 'D':
			lw.op(bytecode.Dcmpl)
		}
		lw.emitBranch(zeroBranch(x.Op), x.Target)
		return
	}
	// Integer comparisons: use the single-operand form against zero.
	if rc, ok := x.R.(*IntConst); ok && rc.V == 0 && rc.Kind == 'I' {
		lw.expr(x.L)
		lw.emitBranch(zeroBranch(x.Op), x.Target)
		return
	}
	lw.expr(x.L)
	lw.expr(x.R)
	var op bytecode.Opcode
	switch x.Op {
	case CondEq:
		op = bytecode.IfIcmpeq
	case CondNe:
		op = bytecode.IfIcmpne
	case CondLt:
		op = bytecode.IfIcmplt
	case CondGe:
		op = bytecode.IfIcmpge
	case CondGt:
		op = bytecode.IfIcmpgt
	default:
		op = bytecode.IfIcmple
	}
	lw.emitBranch(op, x.Target)
}

func zeroBranch(op CondOp) bytecode.Opcode {
	switch op {
	case CondEq:
		return bytecode.Ifeq
	case CondNe:
		return bytecode.Ifne
	case CondLt:
		return bytecode.Iflt
	case CondGe:
		return bytecode.Ifge
	case CondGt:
		return bytecode.Ifgt
	default:
		return bytecode.Ifle
	}
}

// lowerRaw re-emits an opaque instruction block. Branches whose targets
// fall inside the block are converted to relocatable index form;
// branches escaping the block are clamped to the block's last
// instruction (fuzzing noise when a mutation tore the block apart).
func (lw *lowerer) lowerRaw(x *Raw) {
	base := len(lw.ins)
	if lw.origIndex == nil {
		lw.origIndex = make(map[int]int, len(x.Ins))
	} else {
		clear(lw.origIndex)
	}
	origIndex := lw.origIndex // original pc -> new index
	for i, in := range x.Ins {
		origIndex[in.PC] = base + i
	}
	for _, in := range x.Ins {
		cp := *in
		cp.SwitchKeys = append([]int32(nil), in.SwitchKeys...)
		cp.SwitchOffsets = append([]int32(nil), in.SwitchOffsets...)
		// Re-intern constants referenced by the raw instruction into the
		// fresh pool.
		if lw.c.OrigPool != nil && cp.CPIndex != 0 {
			info, _ := bytecode.Lookup(cp.Op)
			switch info.Kind {
			case bytecode.OpCPByte, bytecode.OpCPShort, bytecode.OpInvokeInterface, bytecode.OpMultianewarray:
				cp.CPIndex = internConst(lw.f.Pool, lw.c.OrigPool, cp.CPIndex)
				if cp.Op == bytecode.Ldc && cp.CPIndex > 0xFF {
					cp.Op = bytecode.LdcW
				}
			}
		}
		if cp.Op.IsBranch() {
			if ni, ok := origIndex[in.PC+int(in.Branch)]; ok {
				cp.Branch = int32(ni)
			} else {
				cp.Branch = int32(base + len(x.Ins) - 1)
			}
		}
		if cp.Op == bytecode.Tableswitch || cp.Op == bytecode.Lookupswitch {
			fix := func(off int32) int32 {
				if ni, ok := origIndex[in.PC+int(off)]; ok {
					return int32(ni)
				}
				return int32(base + len(x.Ins) - 1)
			}
			cp.SwitchDefault = fix(in.SwitchDefault)
			for i := range cp.SwitchOffsets {
				cp.SwitchOffsets[i] = fix(in.SwitchOffsets[i])
			}
		}
		// reloc=false: branches now hold instruction indices, which the
		// assembler converts directly (the statement-index resolver must
		// not touch them).
		lw.ins = append(lw.ins, lw.insArena.Put(cp))
		lw.reloc = append(lw.reloc, false)
	}
}

// internConst copies the constant at src[idx] into dst, returning its
// new index. Constants lowering cannot re-intern (method handles,
// invokedynamic) keep the original index, which may dangle — acceptable
// fuzzing noise for raw passthrough.
func internConst(dst, src *classfile.ConstPool, idx uint16) uint16 {
	c := src.Get(idx)
	if c == nil {
		return idx
	}
	switch c.Tag {
	case classfile.TagUtf8:
		return dst.AddUtf8(c.Str)
	case classfile.TagInteger:
		return dst.AddInteger(c.Int)
	case classfile.TagFloat:
		return dst.AddFloat(c.Float)
	case classfile.TagLong:
		return dst.AddLong(c.Long)
	case classfile.TagDouble:
		return dst.AddDouble(c.Double)
	case classfile.TagClass:
		if n, ok := src.ClassName(idx); ok {
			return dst.AddClass(n)
		}
	case classfile.TagString:
		if s, ok := src.Utf8(c.Ref1); ok {
			return dst.AddString(s)
		}
	case classfile.TagNameAndType:
		if n, d, ok := src.NameAndType(idx); ok {
			return dst.AddNameAndType(n, d)
		}
	case classfile.TagFieldref:
		if cl, n, d, ok := src.MemberRef(idx); ok {
			return dst.AddFieldref(cl, n, d)
		}
	case classfile.TagMethodref:
		if cl, n, d, ok := src.MemberRef(idx); ok {
			return dst.AddMethodref(cl, n, d)
		}
	case classfile.TagInterfaceMethodref:
		if cl, n, d, ok := src.MemberRef(idx); ok {
			return dst.AddInterfaceMethodref(cl, n, d)
		}
	}
	return idx
}

// binOpcode selects the arithmetic opcode for an operator and kind.
func binOpcode(op BinOpKind, kind byte) bytecode.Opcode {
	// The iadd family is laid out I, J, F, D consecutively.
	off := bytecode.Opcode(0)
	switch kind {
	case 'J':
		off = 1
	case 'F':
		off = 2
	case 'D':
		off = 3
	}
	intOnly := func(i, l bytecode.Opcode) bytecode.Opcode {
		if kind == 'J' {
			return l
		}
		return i
	}
	switch op {
	case OpAdd:
		return bytecode.Iadd + off
	case OpSub:
		return bytecode.Isub + off
	case OpMul:
		return bytecode.Imul + off
	case OpDiv:
		return bytecode.Idiv + off
	case OpRem:
		return bytecode.Irem + off
	case OpShl:
		return intOnly(bytecode.Ishl, bytecode.Lshl)
	case OpShr:
		return intOnly(bytecode.Ishr, bytecode.Lshr)
	case OpUshr:
		return intOnly(bytecode.Iushr, bytecode.Lushr)
	case OpAnd:
		return intOnly(bytecode.Iand, bytecode.Land)
	case OpOr:
		return intOnly(bytecode.Ior, bytecode.Lor)
	case OpXor:
		return intOnly(bytecode.Ixor, bytecode.Lxor)
	}
	return bytecode.Iadd + off
}

func arrayLoadOp(elem descriptor.Type) bytecode.Opcode {
	if elem.IsReference() {
		return bytecode.Aaload
	}
	switch elem.Kind {
	case 'B', 'Z':
		return bytecode.Baload
	case 'C':
		return bytecode.Caload
	case 'S':
		return bytecode.Saload
	case 'J':
		return bytecode.Laload
	case 'F':
		return bytecode.Faload
	case 'D':
		return bytecode.Daload
	default:
		return bytecode.Iaload
	}
}

func arrayStoreOp(elem descriptor.Type) bytecode.Opcode {
	if elem.IsReference() {
		return bytecode.Aastore
	}
	switch elem.Kind {
	case 'B', 'Z':
		return bytecode.Bastore
	case 'C':
		return bytecode.Castore
	case 'S':
		return bytecode.Sastore
	case 'J':
		return bytecode.Lastore
	case 'F':
		return bytecode.Fastore
	case 'D':
		return bytecode.Dastore
	default:
		return bytecode.Iastore
	}
}

func atypeOf(elem descriptor.Type) bytecode.ArrayTypeCode {
	switch elem.Kind {
	case 'Z':
		return bytecode.TBoolean
	case 'C':
		return bytecode.TChar
	case 'F':
		return bytecode.TFloat
	case 'D':
		return bytecode.TDouble
	case 'B':
		return bytecode.TByte
	case 'S':
		return bytecode.TShort
	case 'J':
		return bytecode.TLong
	default:
		return bytecode.TInt
	}
}

// maxStackScratch holds computeMaxStack's working storage so a reused
// LowerCtx does not reallocate it per method.
type maxStackScratch struct {
	pcIdx map[int]int
	depth []int
	work  []int
}

// reset sizes the scratch for n instructions and returns the cleared
// pc index, the depth array (all -1), and the empty worklist. The
// caller stores the worklist back after use to keep its capacity.
func (sc *maxStackScratch) reset(n int) (map[int]int, []int, []int) {
	if sc.pcIdx == nil {
		sc.pcIdx = make(map[int]int, n)
	} else {
		clear(sc.pcIdx)
	}
	if cap(sc.depth) < n {
		sc.depth = make([]int, n)
	} else {
		sc.depth = sc.depth[:n]
	}
	for i := range sc.depth {
		sc.depth[i] = -1
	}
	return sc.pcIdx, sc.depth, sc.work[:0]
}

// computeMaxStack simulates stack depth over the assembled instructions
// to set max_stack. The instructions must already carry final PCs and
// byte-offset branch targets (i.e. have been through Assemble), so they
// are identical to what decoding the emitted code would yield. On any
// irregularity it returns a generous default — the real verifier (in
// internal/jvm) is the arbiter of validity.
func computeMaxStack(ins []*bytecode.Instruction, cp *classfile.ConstPool, sc *maxStackScratch) int {
	const fallback = 16
	if len(ins) == 0 {
		return fallback
	}
	pcIdx, depth, work := sc.reset(len(ins))
	defer func() { sc.work = work }()
	for i, in := range ins {
		pcIdx[in.PC] = i
	}
	maxD := 0
	depth[0] = 0
	work = append(work, 0)
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		in := ins[i]
		d := depth[i]
		pop, push, ok := stackEffect(in, cp)
		if !ok {
			return fallback
		}
		nd := d - pop
		if nd < 0 {
			return fallback
		}
		nd += push
		if nd > maxD {
			maxD = nd
		}
		propagate := func(j, dep int) {
			if j < 0 || j >= len(ins) {
				return
			}
			if depth[j] == -1 {
				depth[j] = dep
				work = append(work, j)
			}
		}
		if !in.Op.EndsBlock() {
			propagate(i+1, nd)
		}
		for k := range in.NumTargets() {
			if j, ok := pcIdx[in.Target(k)]; ok {
				propagate(j, nd)
			} else {
				return fallback
			}
		}
	}
	return maxD
}

// stackEffect resolves an instruction's pop/push slot counts, consulting
// the pool for descriptor-dependent instructions.
func stackEffect(in *bytecode.Instruction, cp *classfile.ConstPool) (pop, push int, ok bool) {
	op := in.Op
	if op == bytecode.Wide {
		op = in.WideOp
	}
	info, found := bytecode.Lookup(op)
	if !found {
		return 0, 0, false
	}
	fixed := func(v int8) (int, bool) {
		if v == bytecode.VariableStack {
			return 0, false
		}
		return int(v), true
	}
	if p, okp := fixed(info.Pop); okp {
		if q, okq := fixed(info.Push); okq {
			return p, q, true
		}
	}
	switch op {
	case bytecode.Getstatic, bytecode.Getfield, bytecode.Putstatic, bytecode.Putfield:
		_, _, desc, okr := cp.MemberRef(in.CPIndex)
		if !okr {
			return 0, 0, false
		}
		ft, err := descriptor.ParseField(desc)
		if err != nil {
			return 0, 0, false
		}
		n := ft.Slots()
		switch op {
		case bytecode.Getstatic:
			return 0, n, true
		case bytecode.Getfield:
			return 1, n, true
		case bytecode.Putstatic:
			return n, 0, true
		default:
			return n + 1, 0, true
		}
	case bytecode.Invokevirtual, bytecode.Invokespecial, bytecode.Invokestatic, bytecode.Invokeinterface:
		_, _, desc, okr := cp.MemberRef(in.CPIndex)
		if !okr {
			return 0, 0, false
		}
		pop, push, ok := descriptor.MethodSlots(desc)
		if !ok {
			return 0, 0, false
		}
		if op != bytecode.Invokestatic {
			pop++
		}
		return pop, push, true
	case bytecode.Invokedynamic:
		c := cp.Get(in.CPIndex)
		if c == nil {
			return 0, 0, false
		}
		_, desc, okr := cp.NameAndType(c.Ref2)
		if !okr {
			return 0, 0, false
		}
		return descriptor.MethodSlots(desc)
	case bytecode.Multianewarray:
		return int(in.Count), 1, true
	}
	return 0, 0, false
}
