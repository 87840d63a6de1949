package jimple

import (
	"fmt"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/descriptor"
)

// Lift decompiles a classfile into the Jimple model. Class structure
// (names, flags, hierarchy, fields, method signatures, throws clauses)
// always lifts exactly. Method bodies are decompiled into typed
// statements when they match the statement shapes this package's
// lowering emits (and the common javac patterns built from them); any
// body the decompiler cannot type becomes a single opaque Raw statement
// that lowers back verbatim, so Lift∘Lower never loses code.
func Lift(f *classfile.File) (*Class, error) {
	name := f.Name()
	if name == "" {
		return nil, fmt.Errorf("jimple: classfile has no resolvable name")
	}
	c := &Class{
		Name:      name,
		Super:     f.SuperName(),
		Modifiers: f.AccessFlags,
		Major:     f.Major,
		Minor:     f.Minor,
		OrigPool:  f.Pool,
	}
	c.Interfaces = append(c.Interfaces, f.InterfaceNames()...)
	for _, a := range f.Attributes {
		if sf, ok := a.(*classfile.SourceFileAttr); ok {
			if n, ok := f.Pool.Utf8(sf.NameIndex); ok {
				c.SourceFile = n
			}
		}
	}
	for _, fl := range f.Fields {
		ft, err := descriptor.ParseField(fl.Descriptor(f.Pool))
		if err != nil {
			// Keep the field with an opaque object type; the mutator layer
			// may fix or further break it.
			ft = descriptor.Object("java/lang/Object")
		}
		c.Fields = append(c.Fields, &Field{
			Name:      fl.Name(f.Pool),
			Type:      ft,
			Modifiers: fl.AccessFlags,
		})
	}
	for _, mm := range f.Methods {
		md, err := descriptor.ParseMethod(mm.Descriptor(f.Pool))
		if err != nil {
			md = descriptor.Method{Return: descriptor.Void}
		}
		m := &Method{
			Name:      mm.Name(f.Pool),
			Params:    md.Params,
			Return:    md.Return,
			Modifiers: mm.AccessFlags,
		}
		if ex := mm.Exceptions(); ex != nil {
			for _, ci := range ex.Classes {
				if n, ok := f.Pool.ClassName(ci); ok {
					m.Throws = append(m.Throws, n)
				}
			}
		}
		if code := mm.Code(); code != nil {
			liftBody(f, m, code)
		}
		c.Methods = append(c.Methods, m)
	}
	return c, nil
}

// liftBody fills m.Body, either structured or as one Raw statement.
func liftBody(f *classfile.File, m *Method, code *classfile.CodeAttr) {
	if len(code.Code) == 0 {
		m.Body = []Stmt{}
		return
	}
	ins, err := bytecode.Decode(code.Code)
	if err != nil {
		// Undecodable code cannot round-trip as instructions; preserve
		// nothing and let the class reject (it would anyway).
		m.Body = []Stmt{}
		return
	}
	l := &lifter{f: f, m: m, code: code, ins: ins}
	if body, ok := l.structured(); ok {
		m.Locals = l.locals
		m.Body = body
		return
	}
	// Fallback: the whole body as one opaque block (exception handlers
	// are only representable this way).
	m.Locals = nil
	m.Body = []Stmt{&Raw{Ins: ins}}
	m.RawHandlers = append([]classfile.ExceptionHandler(nil), code.Handlers...)
	m.RawMaxStack = code.MaxStack
	m.RawMaxLocals = code.MaxLocals
}

// lifter decompiles one body.
type lifter struct {
	f      *classfile.File
	m      *Method
	code   *classfile.CodeAttr
	ins    []*bytecode.Instruction
	locals []*Local
	bySlot map[int]*Local
	tmpN   int
}

// localForSlot finds or creates the local bound to a slot.
func (l *lifter) localForSlot(slot int, t descriptor.Type) *Local {
	if lo, ok := l.bySlot[slot]; ok {
		return lo
	}
	lo := &Local{Name: fmt.Sprintf("r%d", slot), Type: t}
	l.bySlot[slot] = lo
	l.locals = append(l.locals, lo)
	return lo
}

func (l *lifter) newTemp(t descriptor.Type) *Local {
	l.tmpN++
	lo := &Local{Name: fmt.Sprintf("$t%d", l.tmpN), Type: t}
	l.locals = append(l.locals, lo)
	return lo
}

// structured attempts the typed decompilation. It returns ok=false when
// any part of the body falls outside the supported shapes.
func (l *lifter) structured() ([]Stmt, bool) {
	if len(l.code.Handlers) > 0 {
		return nil, false // traps only round-trip through Raw
	}
	l.bySlot = map[int]*Local{}

	// Identity prologue: bind receiver and parameters to their slots.
	var body []Stmt
	slot := 0
	if !l.m.IsStatic() {
		this := l.localForSlot(0, descriptor.Object(l.f.Name()))
		this.Name = "r0"
		body = append(body, &Identity{Target: this, Param: -1})
		slot = 1
	}
	for i, p := range l.m.Params {
		lo := l.localForSlot(slot, p)
		body = append(body, &Identity{Target: lo, Param: i})
		slot += p.Slots()
	}
	nIdentity := len(body)

	// Split into segments at stack-depth-zero boundaries.
	segStarts, ok := l.segment()
	if !ok {
		return nil, false
	}
	// Map each segment's starting pc to its statement index.
	pcToStmt := map[int]int{}
	for i, s := range segStarts {
		pcToStmt[l.ins[s].PC] = nIdentity + i
	}

	for i, start := range segStarts {
		end := len(l.ins)
		if i+1 < len(segStarts) {
			end = segStarts[i+1]
		}
		st, ok := l.liftSegment(l.ins[start:end], pcToStmt)
		if !ok {
			return nil, false
		}
		body = append(body, st)
	}
	return body, true
}

// segment computes instruction indices that start statements: points
// where the simulated stack depth is zero. All branch targets must land
// on segment starts.
func (l *lifter) segment() ([]int, bool) {
	depth := 0
	var starts []int
	startSet := map[int]bool{}
	for i, in := range l.ins {
		if depth == 0 {
			starts = append(starts, i)
			startSet[in.PC] = true
		}
		pop, push, ok := stackEffect(in, l.f.Pool)
		if !ok {
			return nil, false
		}
		depth += push - pop
		if depth < 0 {
			return nil, false
		}
		// Conditional/unconditional control transfer must occur at depth 0
		// so statements stay self-contained.
		if (in.Op.IsBranch() || in.Op.EndsBlock()) && depth != 0 {
			return nil, false
		}
	}
	if depth != 0 {
		return nil, false
	}
	// Branch targets must be statement starts.
	for _, in := range l.ins {
		for k := range in.NumTargets() {
			if !startSet[in.Target(k)] {
				return nil, false
			}
		}
	}
	return starts, true
}

// liftSegment converts one depth-0-to-depth-0 instruction run into a
// statement by symbolic stack evaluation.
func (l *lifter) liftSegment(seg []*bytecode.Instruction, pcToStmt map[int]int) (Stmt, bool) {
	cp := l.f.Pool
	var stack []Expr
	push := func(e Expr) { stack = append(stack, e) }
	pop := func() Expr {
		if len(stack) == 0 {
			return nil
		}
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return e
	}
	target := func(in *bytecode.Instruction) (int, bool) {
		t, ok := pcToStmt[in.PC+int(in.Branch)]
		return t, ok
	}

	for idx, in := range seg {
		last := idx == len(seg)-1
		op := in.Op
		switch {
		case op == bytecode.Nop:
			if last && len(seg) == 1 {
				return &Nop{}, true
			}
		case op == bytecode.AconstNull:
			push(&NullConst{})
		case op >= bytecode.IconstM1 && op <= bytecode.Iconst5:
			push(&IntConst{V: int64(op) - int64(bytecode.Iconst0), Kind: 'I'})
		case op == bytecode.Lconst0 || op == bytecode.Lconst1:
			push(&IntConst{V: int64(op - bytecode.Lconst0), Kind: 'J'})
		case op >= bytecode.Fconst0 && op <= bytecode.Fconst2:
			push(&FloatConst{V: float64(op - bytecode.Fconst0), Kind: 'F'})
		case op == bytecode.Dconst0 || op == bytecode.Dconst1:
			push(&FloatConst{V: float64(op - bytecode.Dconst0), Kind: 'D'})
		case op == bytecode.Bipush || op == bytecode.Sipush:
			push(&IntConst{V: int64(in.Imm), Kind: 'I'})
		case op == bytecode.Ldc || op == bytecode.LdcW || op == bytecode.Ldc2W:
			c := cp.Get(in.CPIndex)
			if c == nil {
				return nil, false
			}
			switch c.Tag {
			case classfile.TagInteger:
				push(&IntConst{V: int64(c.Int), Kind: 'I'})
			case classfile.TagLong:
				push(&IntConst{V: c.Long, Kind: 'J'})
			case classfile.TagFloat:
				push(&FloatConst{V: float64(c.Float), Kind: 'F'})
			case classfile.TagDouble:
				push(&FloatConst{V: c.Double, Kind: 'D'})
			case classfile.TagString:
				s, _ := cp.Utf8(c.Ref1)
				push(&StringConst{V: s})
			case classfile.TagClass:
				n, _ := cp.Utf8(c.Ref1)
				push(&ClassConst{Name: n})
			default:
				return nil, false
			}

		case op >= bytecode.Iload && op <= bytecode.Aload: // xload with operand
			push(&UseLocal{L: l.localForSlot(int(in.Local), loadType(op))})
		case op >= bytecode.Iload0 && op <= bytecode.Aload3:
			base, slot := shortLoad(op)
			push(&UseLocal{L: l.localForSlot(slot, loadType(base))})

		case op == bytecode.Getstatic:
			cls, nm, d, ok := cp.MemberRef(in.CPIndex)
			if !ok {
				return nil, false
			}
			ft, err := descriptor.ParseField(d)
			if err != nil {
				return nil, false
			}
			push(&StaticFieldRef{Class: cls, Name: nm, Type: ft})
		case op == bytecode.Getfield:
			cls, nm, d, ok := cp.MemberRef(in.CPIndex)
			if !ok {
				return nil, false
			}
			ft, err := descriptor.ParseField(d)
			if err != nil {
				return nil, false
			}
			base, ok := pop().(*UseLocal)
			if !ok {
				return nil, false
			}
			push(&InstanceFieldRef{Base: base.L, Class: cls, Name: nm, Type: ft})

		case op == bytecode.New:
			n, ok := cp.ClassName(in.CPIndex)
			if !ok {
				return nil, false
			}
			push(&NewExpr{Class: n})
		case op == bytecode.Dup:
			top := pop()
			if top == nil {
				return nil, false
			}
			switch top.(type) {
			case *UseLocal, *IntConst, *FloatConst, *StringConst, *NullConst:
				push(top)
				push(top)
			default:
				return nil, false // dup of effectful expressions needs temps
			}
		case op == bytecode.Arraylength:
			x := pop()
			if x == nil {
				return nil, false
			}
			push(&ArrayLen{X: x})
		case op == bytecode.Newarray:
			size := pop()
			if size == nil {
				return nil, false
			}
			ft, err := descriptor.ParseField(in.ArrayTyp.Descriptor())
			if err != nil {
				return nil, false
			}
			push(&NewArrayExpr{Elem: ft, Size: size})
		case op == bytecode.Anewarray:
			n, ok := cp.ClassName(in.CPIndex)
			if !ok {
				return nil, false
			}
			size := pop()
			if size == nil {
				return nil, false
			}
			push(&NewArrayExpr{Elem: descriptor.Object(n), Size: size})
		case op == bytecode.Checkcast:
			n, ok := cp.ClassName(in.CPIndex)
			if !ok {
				return nil, false
			}
			x := pop()
			if x == nil {
				return nil, false
			}
			to := descriptor.Object(n)
			if len(n) > 0 && n[0] == '[' {
				if ft, err := descriptor.ParseField(n); err == nil {
					to = ft
				}
			}
			push(&Cast{X: x, To: to})
		case op == bytecode.Instanceof:
			n, ok := cp.ClassName(in.CPIndex)
			if !ok {
				return nil, false
			}
			x := pop()
			if x == nil {
				return nil, false
			}
			push(&InstanceOf{X: x, Of: n})

		case isBinop(op):
			r := pop()
			lv := pop()
			if r == nil || lv == nil {
				return nil, false
			}
			bop, kind := binopOf(op)
			push(&BinOp{Op: bop, L: lv, R: r, Kind: kind})
		case op == bytecode.Ineg || op == bytecode.Lneg || op == bytecode.Fneg || op == bytecode.Dneg:
			x := pop()
			if x == nil {
				return nil, false
			}
			kinds := map[bytecode.Opcode]byte{bytecode.Ineg: 'I', bytecode.Lneg: 'J', bytecode.Fneg: 'F', bytecode.Dneg: 'D'}
			push(&Neg{X: x, Kind: kinds[op]})
		case isPrimConv(op):
			x := pop()
			if x == nil {
				return nil, false
			}
			push(&Cast{X: x, To: convTarget(op)})
		case op == bytecode.Lcmp || op == bytecode.Fcmpl || op == bytecode.Fcmpg ||
			op == bytecode.Dcmpl || op == bytecode.Dcmpg:
			r := pop()
			lv := pop()
			if r == nil || lv == nil {
				return nil, false
			}
			kind := byte('J')
			if op == bytecode.Fcmpl || op == bytecode.Fcmpg {
				kind = 'F'
			} else if op == bytecode.Dcmpl || op == bytecode.Dcmpg {
				kind = 'D'
			}
			push(&BinOp{Op: OpCmp, L: lv, R: r, Kind: kind})

		case op >= bytecode.Iaload && op <= bytecode.Saload:
			i := pop()
			base, ok := pop().(*UseLocal)
			if i == nil || !ok {
				return nil, false
			}
			push(&ArrayRef{Base: base.L, Index: i, Elem: arrayElemOf(op)})

		case op.IsInvoke() && op != bytecode.Invokedynamic:
			cls, nm, d, ok := cp.MemberRef(in.CPIndex)
			if !ok {
				return nil, false
			}
			sig, err := descriptor.ParseMethod(d)
			if err != nil {
				return nil, false
			}
			args := make([]Expr, len(sig.Params))
			for i := len(args) - 1; i >= 0; i-- {
				args[i] = pop()
				if args[i] == nil {
					return nil, false
				}
			}
			inv := &Invoke{Class: cls, Name: nm, Sig: sig, Args: args}
			switch op {
			case bytecode.Invokestatic:
				inv.Kind = InvokeStatic
			case bytecode.Invokevirtual:
				inv.Kind = InvokeVirtual
			case bytecode.Invokespecial:
				inv.Kind = InvokeSpecial
			case bytecode.Invokeinterface:
				inv.Kind = InvokeInterface
			}
			if op != bytecode.Invokestatic {
				recv, ok := pop().(*UseLocal)
				if !ok {
					return nil, false
				}
				inv.Base = recv.L
			}
			if last {
				if !sig.Return.IsVoid() {
					return nil, false // value dropped implicitly? needs a pop
				}
				if len(stack) != 0 {
					return nil, false
				}
				return &InvokeStmt{Call: inv}, true
			}
			push(inv)
		case op == bytecode.Pop:
			x := pop()
			if x == nil {
				return nil, false
			}
			if inv, ok := x.(*Invoke); ok && last && len(stack) == 0 {
				return &InvokeStmt{Call: inv}, true
			}
			return nil, false
		case op == bytecode.Pop2:
			x := pop()
			if x == nil {
				return nil, false
			}
			if inv, ok := x.(*Invoke); ok && last && len(stack) == 0 {
				return &InvokeStmt{Call: inv}, true
			}
			return nil, false

		// --- terminators (must be last in the segment) ---------------------
		case op >= bytecode.Istore && op <= bytecode.Astore:
			v := pop()
			if v == nil || !last || len(stack) != 0 {
				return nil, false
			}
			lo := l.localForSlot(int(in.Local), storeType(op, v))
			return &Assign{LHS: &UseLocal{L: lo}, RHS: v}, true
		case op >= bytecode.Istore0 && op <= bytecode.Astore3:
			base, slot := shortStore(op)
			v := pop()
			if v == nil || !last || len(stack) != 0 {
				return nil, false
			}
			lo := l.localForSlot(slot, storeType(base, v))
			return &Assign{LHS: &UseLocal{L: lo}, RHS: v}, true
		case op == bytecode.Putstatic:
			cls, nm, d, ok := cp.MemberRef(in.CPIndex)
			if !ok {
				return nil, false
			}
			ft, err := descriptor.ParseField(d)
			if err != nil {
				return nil, false
			}
			v := pop()
			if v == nil || !last || len(stack) != 0 {
				return nil, false
			}
			return &Assign{LHS: &StaticFieldRef{Class: cls, Name: nm, Type: ft}, RHS: v}, true
		case op == bytecode.Putfield:
			cls, nm, d, ok := cp.MemberRef(in.CPIndex)
			if !ok {
				return nil, false
			}
			ft, err := descriptor.ParseField(d)
			if err != nil {
				return nil, false
			}
			v := pop()
			base, okb := pop().(*UseLocal)
			if v == nil || !okb || !last || len(stack) != 0 {
				return nil, false
			}
			return &Assign{LHS: &InstanceFieldRef{Base: base.L, Class: cls, Name: nm, Type: ft}, RHS: v}, true
		case op >= bytecode.Iastore && op <= bytecode.Sastore:
			v := pop()
			i := pop()
			base, okb := pop().(*UseLocal)
			if v == nil || i == nil || !okb || !last || len(stack) != 0 {
				return nil, false
			}
			return &Assign{LHS: &ArrayRef{Base: base.L, Index: i, Elem: arrayElemOf(op)}, RHS: v}, true
		case op == bytecode.Iinc:
			if !last || len(stack) != 0 {
				return nil, false
			}
			lo := l.localForSlot(int(in.Local), descriptor.Int)
			return &Assign{
				LHS: &UseLocal{L: lo},
				RHS: &BinOp{Op: OpAdd, L: &UseLocal{L: lo}, R: &IntConst{V: int64(in.Imm), Kind: 'I'}, Kind: 'I'},
			}, true
		case op == bytecode.Return:
			if !last || len(stack) != 0 {
				return nil, false
			}
			return &Return{}, true
		case op.IsReturn(): // value returns
			v := pop()
			if v == nil || !last || len(stack) != 0 {
				return nil, false
			}
			return &Return{Value: v}, true
		case op == bytecode.Athrow:
			v := pop()
			if v == nil || !last || len(stack) != 0 {
				return nil, false
			}
			return &Throw{Value: v}, true
		case op == bytecode.Goto:
			t, ok := target(in)
			if !ok || !last || len(stack) != 0 {
				return nil, false
			}
			return &Goto{Target: t}, true
		case op.IsConditionalBranch():
			t, ok := target(in)
			if !ok || !last {
				return nil, false
			}
			st, okc := liftCond(op, t, &stack)
			if !okc || len(stack) != 0 {
				return nil, false
			}
			return st, true
		case op == bytecode.Monitorenter:
			v := pop()
			if v == nil || !last || len(stack) != 0 {
				return nil, false
			}
			return &EnterMonitor{X: v}, true
		case op == bytecode.Monitorexit:
			v := pop()
			if v == nil || !last || len(stack) != 0 {
				return nil, false
			}
			return &ExitMonitor{X: v}, true

		default:
			return nil, false
		}
	}
	// A segment that ends without a recognised terminator (e.g. lone nop
	// already handled): only acceptable when nothing is pending.
	if len(stack) == 0 && len(seg) == 1 && seg[0].Op == bytecode.Nop {
		return &Nop{}, true
	}
	return nil, false
}

func liftCond(op bytecode.Opcode, target int, stack *[]Expr) (Stmt, bool) {
	pop := func() Expr {
		s := *stack
		if len(s) == 0 {
			return nil
		}
		e := s[len(s)-1]
		*stack = s[:len(s)-1]
		return e
	}
	cond := map[bytecode.Opcode]CondOp{
		bytecode.Ifeq: CondEq, bytecode.Ifne: CondNe, bytecode.Iflt: CondLt,
		bytecode.Ifge: CondGe, bytecode.Ifgt: CondGt, bytecode.Ifle: CondLe,
		bytecode.IfIcmpeq: CondEq, bytecode.IfIcmpne: CondNe, bytecode.IfIcmplt: CondLt,
		bytecode.IfIcmpge: CondGe, bytecode.IfIcmpgt: CondGt, bytecode.IfIcmple: CondLe,
		bytecode.IfAcmpeq: CondEq, bytecode.IfAcmpne: CondNe,
		bytecode.Ifnull: CondEq, bytecode.Ifnonnull: CondNe,
	}
	c, ok := cond[op]
	if !ok {
		return nil, false
	}
	switch op {
	case bytecode.Ifeq, bytecode.Ifne, bytecode.Iflt, bytecode.Ifge, bytecode.Ifgt, bytecode.Ifle:
		lv := pop()
		if lv == nil {
			return nil, false
		}
		return &If{Op: c, L: lv, R: &IntConst{V: 0, Kind: 'I'}, Target: target}, true
	case bytecode.Ifnull, bytecode.Ifnonnull:
		lv := pop()
		if lv == nil {
			return nil, false
		}
		return &If{Op: c, L: lv, R: &NullConst{}, Target: target}, true
	default:
		r := pop()
		lv := pop()
		if r == nil || lv == nil {
			return nil, false
		}
		return &If{Op: c, L: lv, R: r, Target: target}, true
	}
}

func loadType(base bytecode.Opcode) descriptor.Type {
	switch base {
	case bytecode.Iload:
		return descriptor.Int
	case bytecode.Lload:
		return descriptor.Long
	case bytecode.Fload:
		return descriptor.Float
	case bytecode.Dload:
		return descriptor.Double
	default:
		return descriptor.Object("java/lang/Object")
	}
}

func storeType(base bytecode.Opcode, v Expr) descriptor.Type {
	switch base {
	case bytecode.Istore:
		return descriptor.Int
	case bytecode.Lstore:
		return descriptor.Long
	case bytecode.Fstore:
		return descriptor.Float
	case bytecode.Dstore:
		return descriptor.Double
	}
	// Reference store: prefer a more precise type from the value.
	switch x := v.(type) {
	case *NewExpr:
		return descriptor.Object(x.Class)
	case *StringConst:
		return descriptor.Object("java/lang/String")
	case *Cast:
		return x.To
	case *StaticFieldRef:
		return x.Type
	case *InstanceFieldRef:
		return x.Type
	case *Invoke:
		return x.Sig.Return
	case *NewArrayExpr:
		return descriptor.Array(x.Elem, 1)
	}
	return descriptor.Object("java/lang/Object")
}

func shortLoad(op bytecode.Opcode) (bytecode.Opcode, int) {
	switch {
	case op >= bytecode.Iload0 && op <= bytecode.Iload3:
		return bytecode.Iload, int(op - bytecode.Iload0)
	case op >= bytecode.Lload0 && op <= bytecode.Lload3:
		return bytecode.Lload, int(op - bytecode.Lload0)
	case op >= bytecode.Fload0 && op <= bytecode.Fload3:
		return bytecode.Fload, int(op - bytecode.Fload0)
	case op >= bytecode.Dload0 && op <= bytecode.Dload3:
		return bytecode.Dload, int(op - bytecode.Dload0)
	default:
		return bytecode.Aload, int(op - bytecode.Aload0)
	}
}

func shortStore(op bytecode.Opcode) (bytecode.Opcode, int) {
	switch {
	case op >= bytecode.Istore0 && op <= bytecode.Istore3:
		return bytecode.Istore, int(op - bytecode.Istore0)
	case op >= bytecode.Lstore0 && op <= bytecode.Lstore3:
		return bytecode.Lstore, int(op - bytecode.Lstore0)
	case op >= bytecode.Fstore0 && op <= bytecode.Fstore3:
		return bytecode.Fstore, int(op - bytecode.Fstore0)
	case op >= bytecode.Dstore0 && op <= bytecode.Dstore3:
		return bytecode.Dstore, int(op - bytecode.Dstore0)
	default:
		return bytecode.Astore, int(op - bytecode.Astore0)
	}
}

func isBinop(op bytecode.Opcode) bool {
	return op >= bytecode.Iadd && op <= bytecode.Lxor && op != bytecode.Ineg &&
		op != bytecode.Lneg && op != bytecode.Fneg && op != bytecode.Dneg
}

func binopOf(op bytecode.Opcode) (BinOpKind, byte) {
	kind := byte('I')
	switch (op - bytecode.Iadd) % 4 {
	case 1:
		kind = 'J'
	case 2:
		kind = 'F'
	case 3:
		kind = 'D'
	}
	switch {
	case op >= bytecode.Iadd && op <= bytecode.Dadd:
		return OpAdd, kind
	case op >= bytecode.Isub && op <= bytecode.Dsub:
		return OpSub, kind
	case op >= bytecode.Imul && op <= bytecode.Dmul:
		return OpMul, kind
	case op >= bytecode.Idiv && op <= bytecode.Ddiv:
		return OpDiv, kind
	case op >= bytecode.Irem && op <= bytecode.Drem:
		return OpRem, kind
	case op == bytecode.Ishl || op == bytecode.Lshl:
		return OpShl, shiftKind(op, bytecode.Ishl)
	case op == bytecode.Ishr || op == bytecode.Lshr:
		return OpShr, shiftKind(op, bytecode.Ishr)
	case op == bytecode.Iushr || op == bytecode.Lushr:
		return OpUshr, shiftKind(op, bytecode.Iushr)
	case op == bytecode.Iand || op == bytecode.Land:
		return OpAnd, shiftKind(op, bytecode.Iand)
	case op == bytecode.Ior || op == bytecode.Lor:
		return OpOr, shiftKind(op, bytecode.Ior)
	case op == bytecode.Ixor || op == bytecode.Lxor:
		return OpXor, shiftKind(op, bytecode.Ixor)
	}
	return OpAdd, 'I'
}

func shiftKind(op, intForm bytecode.Opcode) byte {
	if op == intForm {
		return 'I'
	}
	return 'J'
}

func isPrimConv(op bytecode.Opcode) bool {
	return op >= bytecode.I2l && op <= bytecode.I2s
}

func convTarget(op bytecode.Opcode) descriptor.Type {
	switch op {
	case bytecode.I2l, bytecode.F2l, bytecode.D2l:
		return descriptor.Long
	case bytecode.I2f, bytecode.L2f, bytecode.D2f:
		return descriptor.Float
	case bytecode.I2d, bytecode.L2d, bytecode.F2d:
		return descriptor.Double
	case bytecode.I2b:
		return descriptor.Byte
	case bytecode.I2c:
		return descriptor.Char
	case bytecode.I2s:
		return descriptor.Short
	default:
		return descriptor.Int
	}
}

func arrayElemOf(op bytecode.Opcode) descriptor.Type {
	switch op {
	case bytecode.Iaload, bytecode.Iastore:
		return descriptor.Int
	case bytecode.Laload, bytecode.Lastore:
		return descriptor.Long
	case bytecode.Faload, bytecode.Fastore:
		return descriptor.Float
	case bytecode.Daload, bytecode.Dastore:
		return descriptor.Double
	case bytecode.Baload, bytecode.Bastore:
		return descriptor.Byte
	case bytecode.Caload, bytecode.Castore:
		return descriptor.Char
	case bytecode.Saload, bytecode.Sastore:
		return descriptor.Short
	default:
		return descriptor.Object("java/lang/Object")
	}
}
