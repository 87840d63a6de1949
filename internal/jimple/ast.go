// Package jimple is the repository's Soot substitute: a typed,
// statement-level intermediate representation of Java classes (modelled
// on Soot's Jimple) with lowering to real classfiles and lifting back.
// The mutation operators of internal/mutation rewrite this IR — exactly
// the level at which the paper's 129 mutators operate — and the
// hierarchical reducer of internal/reduce deletes its statements,
// fields and methods.
package jimple

import (
	"fmt"
	"slices"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/descriptor"
)

// Class is the mutable class model (the SootClass analogue).
type Class struct {
	Name       string // internal name
	Super      string // internal name; "" only for java/lang/Object
	Interfaces []string
	Modifiers  classfile.Flags
	Major      uint16
	Minor      uint16
	SourceFile string
	Fields     []*Field
	Methods    []*Method
	// OrigPool is the constant pool of the classfile this model was
	// lifted from, if any. Raw statements keep indices into it; lowering
	// re-interns those constants into the fresh pool.
	OrigPool *classfile.ConstPool

	// owned lists the methods whose header OwnMethod or OwnBody copied
	// for this class, each marked when its body is private too;
	// ownedFields lists the fields OwnField copied. Every other entry of
	// Methods and Fields may be shared with the class it was cloned
	// from or with its own clones.
	owned       []ownedMethod
	ownedFields []*Field
	// source is the method list of the class this one was cloned from
	// (nil for a class that is not a clone). A LowerCtx reuses recorded
	// lowerings only for clones, and records only the bodies a clone
	// shares with its source. Holding the list, not the class, pins one
	// generation: a lineage of clones does not keep its ancestors alive.
	source []*Method
}

// ownedMethod is one method a class owns: always its header, and its
// Body, Locals and RawHandlers too when body is set.
type ownedMethod struct {
	m    *Method
	body bool
}

// Field is one declared field.
type Field struct {
	Name      string
	Type      descriptor.Type
	Modifiers classfile.Flags
}

// Method is one declared method. Params excludes the receiver. Body is
// nil for abstract/native methods; a non-nil empty body is an
// (illegal) empty code array, which the fuzzer may want.
type Method struct {
	Name      string
	Params    []descriptor.Type
	Return    descriptor.Type
	Modifiers classfile.Flags
	Throws    []string
	Locals    []*Local
	Body      []Stmt
	// RawHandlers/RawMaxStack/RawMaxLocals carry the exception table and
	// frame sizes of a body lifted as a single Raw statement (the only
	// form in which traps round-trip). CatchType indices refer to the
	// owning Class's OrigPool.
	RawHandlers  []classfile.ExceptionHandler
	RawMaxStack  uint16
	RawMaxLocals uint16
}

// Descriptor renders the method descriptor.
func (m *Method) Descriptor() string {
	return descriptor.Method{Params: m.Params, Return: m.Return}.String()
}

// IsStatic reports whether the method is static.
func (m *Method) IsStatic() bool { return m.Modifiers.Has(classfile.AccStatic) }

// Local is one method-local variable (including receiver/parameters,
// which are bound by Identity statements).
type Local struct {
	Name string
	Type descriptor.Type
}

// NewLocal appends a fresh local to the method and returns it.
func (m *Method) NewLocal(name string, t descriptor.Type) *Local {
	l := &Local{Name: name, Type: t}
	m.Locals = append(m.Locals, l)
	return l
}

// --- expressions ------------------------------------------------------------

// Expr is a Jimple expression (right-hand side value).
type Expr interface{ isExpr() }

// IntConst is an int or long constant (Kind 'I' or 'J').
type IntConst struct {
	V    int64
	Kind byte
}

// FloatConst is a float or double constant (Kind 'F' or 'D').
type FloatConst struct {
	V    float64
	Kind byte
}

// StringConst is a string literal.
type StringConst struct{ V string }

// NullConst is the null literal.
type NullConst struct{}

// ClassConst is a class literal (ldc of a Class constant).
type ClassConst struct{ Name string }

// UseLocal reads a local variable.
type UseLocal struct{ L *Local }

// StaticFieldRef names a static field (readable and assignable).
type StaticFieldRef struct {
	Class string
	Name  string
	Type  descriptor.Type
}

// InstanceFieldRef names an instance field of a local's object.
type InstanceFieldRef struct {
	Base  *Local
	Class string
	Name  string
	Type  descriptor.Type
}

// ArrayRef indexes an array held in a local.
type ArrayRef struct {
	Base  *Local
	Index Expr
	Elem  descriptor.Type
}

// BinOp operators.
type BinOpKind string

// Binary operators. Cmp* are the long/float comparison operators that
// produce an int.
const (
	OpAdd  BinOpKind = "+"
	OpSub  BinOpKind = "-"
	OpMul  BinOpKind = "*"
	OpDiv  BinOpKind = "/"
	OpRem  BinOpKind = "%"
	OpAnd  BinOpKind = "&"
	OpOr   BinOpKind = "|"
	OpXor  BinOpKind = "^"
	OpShl  BinOpKind = "<<"
	OpShr  BinOpKind = ">>"
	OpUshr BinOpKind = ">>>"
	OpCmp  BinOpKind = "cmp"
)

// BinOp combines two values of the same primitive kind.
type BinOp struct {
	Op   BinOpKind
	L, R Expr
	Kind byte // 'I','J','F','D'
}

// Neg negates a primitive value.
type Neg struct {
	X    Expr
	Kind byte
}

// Cast is a checkcast (reference To) or primitive conversion.
type Cast struct {
	X  Expr
	To descriptor.Type
}

// InstanceOf tests a reference against a class.
type InstanceOf struct {
	X  Expr
	Of string
}

// NewExpr allocates an object (without constructing it; pair with a
// SpecialInvoke of <init>).
type NewExpr struct{ Class string }

// NewArrayExpr allocates a one-dimensional array.
type NewArrayExpr struct {
	Elem descriptor.Type
	Size Expr
}

// ArrayLen reads an array's length.
type ArrayLen struct{ X Expr }

// InvokeKind distinguishes the invocation instructions.
type InvokeKind int

// Invocation kinds.
const (
	InvokeStatic InvokeKind = iota
	InvokeVirtual
	InvokeSpecial
	InvokeInterface
)

// Invoke calls a method; Base is nil for static calls.
type Invoke struct {
	Kind  InvokeKind
	Class string
	Name  string
	Sig   descriptor.Method
	Base  *Local
	Args  []Expr
}

func (*IntConst) isExpr()         {}
func (*FloatConst) isExpr()       {}
func (*StringConst) isExpr()      {}
func (*NullConst) isExpr()        {}
func (*ClassConst) isExpr()       {}
func (*UseLocal) isExpr()         {}
func (*StaticFieldRef) isExpr()   {}
func (*InstanceFieldRef) isExpr() {}
func (*ArrayRef) isExpr()         {}
func (*BinOp) isExpr()            {}
func (*Neg) isExpr()              {}
func (*Cast) isExpr()             {}
func (*InstanceOf) isExpr()       {}
func (*NewExpr) isExpr()          {}
func (*NewArrayExpr) isExpr()     {}
func (*ArrayLen) isExpr()         {}
func (*Invoke) isExpr()           {}

// LValue is an assignable location.
type LValue interface{ isLValue() }

func (*UseLocal) isLValue()         {}
func (*StaticFieldRef) isLValue()   {}
func (*InstanceFieldRef) isLValue() {}
func (*ArrayRef) isLValue()         {}

// --- statements --------------------------------------------------------------

// Stmt is one Jimple statement. Branch targets are statement indices
// within the owning method's Body.
type Stmt interface{ isStmt() }

// Identity binds a local to the receiver or a parameter:
// r0 := @this / r1 := @parameter0: type.
type Identity struct {
	Target *Local
	// Param is the parameter index, or -1 for @this.
	Param int
}

// Assign stores RHS into LHS.
type Assign struct {
	LHS LValue
	RHS Expr
}

// InvokeStmt evaluates a call for effect.
type InvokeStmt struct{ Call *Invoke }

// Return leaves the method; Value is nil for void.
type Return struct{ Value Expr }

// CondOp is a comparison operator for If statements.
type CondOp string

// Comparison operators.
const (
	CondEq CondOp = "=="
	CondNe CondOp = "!="
	CondLt CondOp = "<"
	CondGe CondOp = ">="
	CondGt CondOp = ">"
	CondLe CondOp = "<="
)

// If conditionally branches to the statement at index Target.
type If struct {
	Op     CondOp
	L, R   Expr
	Target int
}

// Goto unconditionally branches to the statement at index Target.
type Goto struct{ Target int }

// Throw raises a throwable value.
type Throw struct{ Value Expr }

// Nop does nothing.
type Nop struct{}

// EnterMonitor / ExitMonitor are the synchronization statements.
type EnterMonitor struct{ X Expr }

// ExitMonitor releases a monitor.
type ExitMonitor struct{ X Expr }

// Raw is an opaque instruction sequence that lifting could not type.
// Its branches must stay inside the sequence; lowering re-emits it
// verbatim (re-assembled at its new position).
type Raw struct{ Ins []*bytecode.Instruction }

func (*Identity) isStmt()     {}
func (*Assign) isStmt()       {}
func (*InvokeStmt) isStmt()   {}
func (*Return) isStmt()       {}
func (*If) isStmt()           {}
func (*Goto) isStmt()         {}
func (*Throw) isStmt()        {}
func (*Nop) isStmt()          {}
func (*EnterMonitor) isStmt() {}
func (*ExitMonitor) isStmt()  {}
func (*Raw) isStmt()          {}

// --- construction helpers ----------------------------------------------------

// NewClass starts an empty public class extending Object at version 51
// (the fixed major version of the evaluation, §3.1.1).
func NewClass(name string) *Class {
	return &Class{
		Name:      name,
		Super:     "java/lang/Object",
		Modifiers: classfile.AccPublic | classfile.AccSuper,
		Major:     classfile.MajorJava7,
	}
}

// AddField appends a field.
func (c *Class) AddField(flags classfile.Flags, name string, t descriptor.Type) *Field {
	f := &Field{Name: name, Type: t, Modifiers: flags}
	c.Fields = append(c.Fields, f)
	return f
}

// AddMethod appends an empty-bodied method.
func (c *Class) AddMethod(flags classfile.Flags, name string, params []descriptor.Type, ret descriptor.Type) *Method {
	m := &Method{Name: name, Params: params, Return: ret, Modifiers: flags}
	c.Methods = append(c.Methods, m)
	return m
}

// FindMethod returns the first method with the given name, or nil.
func (c *Class) FindMethod(name string) *Method {
	for _, m := range c.Methods {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// IsInterface reports whether the class is declared as an interface.
func (c *Class) IsInterface() bool { return c.Modifiers.Has(classfile.AccInterface) }

// Clone returns a copy-on-write copy: the class header and the
// interface, field and method *lists* are the clone's own, but the
// *Field and *Method values are shared with c. A mutator changes at
// most one field or one or two methods, so deep-copying every member
// of every mutant would be almost all waste.
//
// The rules that keep sharing safe: nothing writes to a class once it
// has been cloned (a class in a seed pool is frozen), and a clone
// writes to a member only after taking ownership of the part it
// writes. OwnField makes a field private. OwnMethod makes a method's
// header private (name, modifiers, params, return type, throws) and
// lets the caller replace its Body, Locals and RawHandlers wholesale;
// OwnBody also makes those slices' contents — statements, expressions
// and locals — private, for writers that edit them. Replacing,
// reordering or deleting entries of the lists themselves needs no
// ownership.
func (c *Class) Clone() *Class {
	return &Class{
		Name:       c.Name,
		Super:      c.Super,
		Interfaces: append([]string(nil), c.Interfaces...),
		Modifiers:  c.Modifiers,
		Major:      c.Major,
		Minor:      c.Minor,
		SourceFile: c.SourceFile,
		OrigPool:   c.OrigPool,
		Fields:     append([]*Field(nil), c.Fields...),
		Methods:    append([]*Method(nil), c.Methods...),
		source:     c.Methods,
	}
}

// OwnField makes c.Fields[i] private to c and returns it: a field c
// may share with the class it was cloned from is replaced by a copy;
// one c already owns is returned as is.
func (c *Class) OwnField(i int) *Field {
	f := c.Fields[i]
	if slices.Contains(c.ownedFields, f) {
		return f
	}
	cp := *f
	f = &cp
	c.Fields[i] = f
	c.ownedFields = append(c.ownedFields, f)
	return f
}

// OwnMethod makes c.Methods[i]'s header private to c and returns the
// method: a method c may share is replaced by a header copy (see
// Method.header), one c already owns is returned as is. The caller may
// write the header — including Params and Throws in place — and may
// replace or swap Body, Locals and RawHandlers wholesale, but must not
// write into them: they may still be shared. Because the caller may
// hand those slices to another method, a body c owned counts as shared
// again afterwards, and the next OwnBody of this method copies it.
func (c *Class) OwnMethod(i int) *Method {
	o := c.own(i)
	o.body = false
	return o.m
}

// OwnBody makes all of c.Methods[i] private to c — its header as
// OwnMethod does, and a deep copy of its Body, Locals and RawHandlers
// with locals remapped — and returns it. Every writer of a body's or a
// locals list's contents goes through OwnBody. A method whose header c
// already owns gets its body copied in place.
func (c *Class) OwnBody(i int) *Method {
	o := c.own(i)
	if !o.body {
		o.m.copyBody()
		o.body = true
	}
	return o.m
}

// own makes c.Methods[i]'s header private to c, as OwnMethod
// describes, and returns its entry in c.owned.
func (c *Class) own(i int) *ownedMethod {
	if k := c.ownedIndex(c.Methods[i]); k >= 0 {
		return &c.owned[k]
	}
	m := c.Methods[i].header()
	c.Methods[i] = m
	c.owned = append(c.owned, ownedMethod{m: m})
	return &c.owned[len(c.owned)-1]
}

// DuplicateMethod appends a header copy of c.Methods[i] that shares
// the original's body. Since two methods now share that body, neither
// counts as owning it: a later OwnBody of either copies.
func (c *Class) DuplicateMethod(i int) {
	src := c.Methods[i]
	if k := c.ownedIndex(src); k >= 0 {
		c.owned[k].body = false
	}
	c.Methods = append(c.Methods, src.header())
}

// ownedIndex returns m's index in c.owned, or -1.
func (c *Class) ownedIndex(m *Method) int {
	for k, o := range c.owned {
		if o.m == m {
			return k
		}
	}
	return -1
}

// header returns a copy of m that owns its Params and Throws and
// shares Body, Locals and RawHandlers with m. The shared slices are
// capacity-clipped, so an append through the copy reallocates instead
// of writing into m's arrays.
func (m *Method) header() *Method {
	out := *m
	out.Params = append([]descriptor.Type(nil), m.Params...)
	out.Throws = append([]string(nil), m.Throws...)
	out.Locals = slices.Clip(m.Locals)
	out.Body = slices.Clip(m.Body)
	out.RawHandlers = slices.Clip(m.RawHandlers)
	return &out
}

// copyBody replaces m's Body, Locals and RawHandlers with deep copies,
// remapping every local the statements reference onto the copies.
func (m *Method) copyBody() {
	lm := &localMap{from: m.Locals}
	var locals []*Local
	if len(m.Locals) > 0 {
		backing := make([]Local, len(m.Locals))
		locals = make([]*Local, len(m.Locals))
		for i, l := range m.Locals {
			backing[i] = Local{Name: l.Name, Type: l.Type}
			locals[i] = &backing[i]
		}
		lm.to = locals
	}
	m.Locals = locals
	m.RawHandlers = append([]classfile.ExceptionHandler(nil), m.RawHandlers...)
	if m.Body != nil {
		body := make([]Stmt, len(m.Body))
		for i, s := range m.Body {
			body[i] = cloneStmt(s, lm)
		}
		m.Body = body
	}
}

// localMap remaps a method's locals while it is cloned: declared locals
// map position-wise onto the copy's (the last declaration wins when one
// local is declared twice), and a statement referencing a local that is
// not declared — a mutation may have removed the declaration — gets one
// fresh copy shared by all its references.
type localMap struct {
	from, to           []*Local
	extraFrom, extraTo []*Local
}

func cloneLocal(l *Local, lm *localMap) *Local {
	if l == nil {
		return nil
	}
	for i := len(lm.from) - 1; i >= 0; i-- {
		if lm.from[i] == l {
			return lm.to[i]
		}
	}
	for i, x := range lm.extraFrom {
		if x == l {
			return lm.extraTo[i]
		}
	}
	nl := &Local{Name: l.Name, Type: l.Type}
	lm.extraFrom = append(lm.extraFrom, l)
	lm.extraTo = append(lm.extraTo, nl)
	return nl
}

func cloneExpr(e Expr, lm *localMap) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *IntConst:
		c := *x
		return &c
	case *FloatConst:
		c := *x
		return &c
	case *StringConst:
		c := *x
		return &c
	case *NullConst:
		return &NullConst{}
	case *ClassConst:
		c := *x
		return &c
	case *UseLocal:
		return &UseLocal{L: cloneLocal(x.L, lm)}
	case *StaticFieldRef:
		c := *x
		return &c
	case *InstanceFieldRef:
		c := *x
		c.Base = cloneLocal(x.Base, lm)
		return &c
	case *ArrayRef:
		return &ArrayRef{Base: cloneLocal(x.Base, lm), Index: cloneExpr(x.Index, lm), Elem: x.Elem}
	case *BinOp:
		return &BinOp{Op: x.Op, L: cloneExpr(x.L, lm), R: cloneExpr(x.R, lm), Kind: x.Kind}
	case *Neg:
		return &Neg{X: cloneExpr(x.X, lm), Kind: x.Kind}
	case *Cast:
		return &Cast{X: cloneExpr(x.X, lm), To: x.To}
	case *InstanceOf:
		return &InstanceOf{X: cloneExpr(x.X, lm), Of: x.Of}
	case *NewExpr:
		c := *x
		return &c
	case *NewArrayExpr:
		return &NewArrayExpr{Elem: x.Elem, Size: cloneExpr(x.Size, lm)}
	case *ArrayLen:
		return &ArrayLen{X: cloneExpr(x.X, lm)}
	case *Invoke:
		return cloneInvoke(x, lm)
	}
	panic(fmt.Sprintf("jimple: cloneExpr of unknown %T", e))
}

func cloneInvoke(x *Invoke, lm *localMap) *Invoke {
	ni := &Invoke{Kind: x.Kind, Class: x.Class, Name: x.Name, Sig: x.Sig, Base: cloneLocal(x.Base, lm)}
	ni.Sig.Params = append([]descriptor.Type(nil), x.Sig.Params...)
	for _, a := range x.Args {
		ni.Args = append(ni.Args, cloneExpr(a, lm))
	}
	return ni
}

func cloneStmt(s Stmt, lm *localMap) Stmt {
	switch x := s.(type) {
	case *Identity:
		return &Identity{Target: cloneLocal(x.Target, lm), Param: x.Param}
	case *Assign:
		return &Assign{LHS: cloneExpr(x.LHS.(Expr), lm).(LValue), RHS: cloneExpr(x.RHS, lm)}
	case *InvokeStmt:
		return &InvokeStmt{Call: cloneInvoke(x.Call, lm)}
	case *Return:
		return &Return{Value: cloneExpr(x.Value, lm)}
	case *If:
		return &If{Op: x.Op, L: cloneExpr(x.L, lm), R: cloneExpr(x.R, lm), Target: x.Target}
	case *Goto:
		return &Goto{Target: x.Target}
	case *Throw:
		return &Throw{Value: cloneExpr(x.Value, lm)}
	case *Nop:
		return &Nop{}
	case *EnterMonitor:
		return &EnterMonitor{X: cloneExpr(x.X, lm)}
	case *ExitMonitor:
		return &ExitMonitor{X: cloneExpr(x.X, lm)}
	case *Raw:
		ins := make([]*bytecode.Instruction, len(x.Ins))
		for i, in := range x.Ins {
			cp := *in
			cp.SwitchKeys = append([]int32(nil), in.SwitchKeys...)
			cp.SwitchOffsets = append([]int32(nil), in.SwitchOffsets...)
			ins[i] = &cp
		}
		return &Raw{Ins: ins}
	}
	panic(fmt.Sprintf("jimple: cloneStmt of unknown %T", s))
}

// RetargetAfterRemoval rewrites branch targets in body after the
// statement at index idx was removed: targets past idx shift down by
// one; targets equal to idx now point at the statement that followed it
// (clamped to the last statement).
func RetargetAfterRemoval(body []Stmt, idx int) {
	adjust := func(t int) int {
		if t > idx {
			return t - 1
		}
		if t == idx {
			if t >= len(body) {
				return len(body) - 1
			}
		}
		return t
	}
	for _, s := range body {
		switch x := s.(type) {
		case *If:
			x.Target = adjust(x.Target)
		case *Goto:
			x.Target = adjust(x.Target)
		}
	}
}

// RetargetAfterInsertion shifts branch targets at or past idx up by one
// after a statement was inserted at idx.
func RetargetAfterInsertion(body []Stmt, idx int) {
	for _, s := range body {
		switch x := s.(type) {
		case *If:
			if x.Target >= idx {
				x.Target++
			}
		case *Goto:
			if x.Target >= idx {
				x.Target++
			}
		}
	}
}
