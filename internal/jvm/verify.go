package jvm

import (
	"errors"
	"fmt"

	"repro/internal/bytecode"
	"repro/internal/classfile"
	"repro/internal/descriptor"
)

// Verification type domain. The verifier performs the inference-style
// dataflow analysis of JVMS §4.10.2 (the pre-StackMapTable algorithm,
// which all five simulated VMs can apply to any version): abstract
// operand stacks and local variable arrays over a small type lattice.
type vtKind byte

const (
	vtUndef    vtKind = 0   // unset local slot
	vtInt      vtKind = 'I' // int family (boolean/byte/char/short/int)
	vtFloat    vtKind = 'F'
	vtLong     vtKind = 'J' // first slot
	vtDouble   vtKind = 'D' // first slot
	vtWide2    vtKind = '2' // second slot of long/double
	vtRef      vtKind = 'A' // reference; cls names the class if known
	vtNull     vtKind = 'N' // null constant
	vtUninit   vtKind = 'U' // uninitialized object from `new` at pc
	vtRetAddr  vtKind = 'R' // jsr return address
	vtConflict vtKind = 'X' // merge conflict; unusable
)

// vt is one abstract slot value.
type vt struct {
	kind vtKind
	cls  string // internal class name for vtRef/vtUninit when known
	pc   int    // allocation site for vtUninit (-1 = uninitializedThis)
}

func (v vt) isWideFirst() bool { return v.kind == vtLong || v.kind == vtDouble }

func (v vt) isRefLike() bool {
	return v.kind == vtRef || v.kind == vtNull || v.kind == vtUninit
}

func (v vt) String() string {
	switch v.kind {
	case vtUndef:
		return "_"
	case vtRef:
		if v.cls == "" {
			return "ref"
		}
		return "ref(" + v.cls + ")"
	case vtNull:
		return "null"
	case vtUninit:
		if v.pc < 0 {
			return "uninitThis"
		}
		return fmt.Sprintf("uninit(%s@%d)", v.cls, v.pc)
	case vtConflict:
		return "top"
	default:
		return string(rune(v.kind))
	}
}

func refOf(cls string) vt { return vt{kind: vtRef, cls: cls} }

// typeOfDesc maps a descriptor type to its verification slot value(s).
// Plain class references carry their internal name; arrays keep the
// bracketed descriptor form (matching anewarray/newarray results).
func typeOfDesc(t descriptor.Type) vt {
	if t.IsReference() {
		if t.Dims == 0 && t.Kind == 'L' {
			return refOf(t.ClassName)
		}
		return refOf(t.String())
	}
	switch t.Kind {
	case 'J':
		return vt{kind: vtLong}
	case 'D':
		return vt{kind: vtDouble}
	case 'F':
		return vt{kind: vtFloat}
	default:
		return vt{kind: vtInt}
	}
}

// frame is one abstract machine state.
type frame struct {
	stack  []vt
	locals []vt
}

// copyFrom overwrites f with src's state, reusing f's slice capacity.
// A frame without room for src's stack or locals gets one array for
// both, with twice the room, so a pooled frame reused for larger
// methods regrows a few times rather than at every size; each part is
// capacity-limited so a push cannot reach the locals.
func (f *frame) copyFrom(src *frame) *frame {
	if ns, nl := len(src.stack), len(src.locals); cap(f.stack) < ns || cap(f.locals) < nl {
		buf := make([]vt, 2*(ns+nl))
		f.stack, f.locals = buf[:0:2*ns], buf[2*ns:2*ns]
	}
	f.stack = append(f.stack[:0], src.stack...)
	f.locals = append(f.locals[:0], src.locals...)
	return f
}

// verifyError is the internal signal carrying a verification failure.
type verifyError struct {
	errName string
	msg     string
}

func (e *verifyError) Error() string { return e.errName + ": " + e.msg }

// verifier runs the dataflow analysis over a single method.
type verifier struct {
	vm   *VM
	ex   *execState
	m    *classfile.Member
	code *classfile.CodeAttr
	ins  []*bytecode.Instruction
	// pcIndex maps a byte PC to the instruction index: a shared,
	// read-only view from the VM's decode cache.
	pcIndex pcTable
	// in holds the merged entry frame per instruction index.
	in   []*frame
	work []int
	md   descriptor.Method
	err  *verifyError
	// scratch is the working frame step simulates into, reused across
	// worklist steps so the per-step clone of the entry state does not
	// allocate (successor merges copy out of it, never retain it).
	scratch frame
}

// verifyScratch recycles the verifier's working storage across
// runVerifier calls on one VM: the verifier value itself, a free list
// of frames (whose stack/locals slices keep their capacity), the
// per-instruction entry-frame slice, the worklist, and the parameter
// lists of the verified method's descriptor and of the descriptor of
// the invoke being simulated. Nothing a run produces retains these —
// Outcomes carry only formatted strings — so the next run can
// overwrite them freely.
type verifyScratch struct {
	v      verifier
	frames []*frame
	// chunk is the size of the next block of frames getFrame allocates
	// when the free list runs dry.
	chunk        int
	in           []*frame
	work         []int
	params       []descriptor.Type
	invokeParams []descriptor.Type
}

// getFrame pops a pooled frame, refilling an empty pool with a block of
// fresh frames that doubles each time, so a VM warming up to its
// largest method allocates frames a few times rather than once each.
// Callers must overwrite stack and locals before reading them.
func (s *verifyScratch) getFrame() *frame {
	if len(s.frames) == 0 {
		s.chunk = max(8, 2*s.chunk)
		block := make([]frame, s.chunk)
		for i := range block {
			s.frames = append(s.frames, &block[i])
		}
	}
	n := len(s.frames)
	f := s.frames[n-1]
	s.frames = s.frames[:n-1]
	return f
}

func (s *verifyScratch) putFrame(f *frame) {
	s.frames = append(s.frames, f)
}

// release harvests v's frames back into the free list and detaches v
// from the method it verified, so the scratch retains slice capacity
// but no pointers into the verified class.
func (s *verifyScratch) release(v *verifier) {
	if v.in != nil {
		for i, f := range v.in {
			if f != nil {
				s.frames = append(s.frames, f)
				v.in[i] = nil
			}
		}
		s.in = v.in[:0]
	}
	if v.work != nil {
		s.work = v.work[:0]
	}
	v.ex, v.m, v.code = nil, nil, nil
	v.ins, v.pcIndex = nil, nil
	v.in, v.work, v.err = nil, nil, nil
	v.md = descriptor.Method{}
}

// runVerifier verifies one method body; nil result means it passed.
func (vm *VM) runVerifier(ex *execState, m *classfile.Member) *Outcome {
	vm.st(pVerifyEnter)
	s := &vm.vscratch
	v := &s.v
	sc := v.scratch // keep the step frame's capacity across runs
	*v = verifier{vm: vm, ex: ex, m: m, code: m.Code(), scratch: sc}
	out := v.run()
	s.release(v)
	if out == nil {
		vm.st(pVerifyOk)
	} else {
		vm.st(pVerifyRejected)
		vm.stVerifyErr(out.Error)
	}
	return out
}

func (v *verifier) fail(errName, format string, args ...any) {
	if v.err == nil {
		v.err = &verifyError{errName: errName, msg: fmt.Sprintf(format, args...)}
	}
}

func (v *verifier) run() *Outcome {
	vm := v.vm
	mname := v.m.Name(v.ex.f.Pool)
	mdesc := v.m.Descriptor(v.ex.f.Pool)

	if vm.br(bVerifyCodeempty, len(v.code.Code) == 0) {
		return &Outcome{Phase: PhaseLinking, Error: ErrClassFormat,
			Message: fmt.Sprintf("method %s has an empty code array", mname)}
	}

	md, err := descriptor.ParseMethodInto(mdesc, vm.vscratch.params)
	if vm.br(bVerifyDesc, err != nil) {
		return &Outcome{Phase: PhaseLinking, Error: ErrClassFormat,
			Message: fmt.Sprintf("method %s has malformed descriptor", mname)}
	}
	vm.vscratch.params = md.Params
	v.md = md

	dec := vm.decodeCode(v.code.Code)
	if vm.br(bVerifyDecodable, dec.err != nil) {
		return &Outcome{Phase: PhaseLinking, Error: ErrVerify,
			Message: fmt.Sprintf("method %s: %v", mname, dec.err)}
	}
	ins := dec.ins
	v.ins = ins
	v.pcIndex = dec.pcIndex

	// Branch targets must land on instruction boundaries.
	for _, in := range ins {
		for k := range in.NumTargets() {
			t := in.Target(k)
			if _, ok := v.pcIndex.at(t); vm.br(bVerifyBranchtarget, !ok) {
				return &Outcome{Phase: PhaseLinking, Error: ErrVerify,
					Message: fmt.Sprintf("method %s: branch into the middle of an instruction (pc %d)", mname, t)}
			}
		}
		if (in.Op == bytecode.Jsr || in.Op == bytecode.JsrW || in.Op == bytecode.Ret ||
			(in.Op == bytecode.Wide && in.WideOp == bytecode.Ret)) &&
			v.vm.Spec.Policy.ForbidJsrRet && v.ex.f.Major >= 51 {
			vm.st(pVerifyJsrret)
			return &Outcome{Phase: PhaseLinking, Error: ErrVerify,
				Message: fmt.Sprintf("method %s uses jsr/ret in a version %d classfile", mname, v.ex.f.Major)}
		}
	}

	// Exception handler sanity.
	for _, h := range v.code.Handlers {
		vm.st(pVerifyHandler)
		_, okS := v.pcIndex.at(int(h.StartPC))
		_, okH := v.pcIndex.at(int(h.HandlerPC))
		endOK := int(h.EndPC) == len(v.code.Code) || func() bool { _, ok := v.pcIndex.at(int(h.EndPC)); return ok }()
		if vm.br(bVerifyHandlerBounds, !okS || !okH || !endOK || h.StartPC >= h.EndPC) {
			return &Outcome{Phase: PhaseLinking, Error: ErrClassFormat,
				Message: fmt.Sprintf("method %s has an invalid exception handler range", mname)}
		}
		if h.CatchType != 0 {
			cname, ok := v.ex.f.Pool.ClassName(h.CatchType)
			if vm.br(bVerifyHandlerCatchcp, !ok) {
				return &Outcome{Phase: PhaseLinking, Error: ErrClassFormat,
					Message: fmt.Sprintf("method %s catch type #%d is not a class", mname, h.CatchType)}
			}
			kind, ci := v.ex.resolveClass(cname)
			if kind == kindMissing {
				if vm.br(bVerifyHandlerCatchmissing, v.vm.Spec.Policy.EagerResolution) {
					return &Outcome{Phase: PhaseLinking, Error: ErrNoClassDef, Message: cname}
				}
			} else if kind == kindPlatform && ci != nil {
				if vm.br(bVerifyHandlerCatchthrowable, !v.vm.Env.IsThrowable(cname)) {
					return &Outcome{Phase: PhaseLinking, Error: ErrVerify,
						Message: fmt.Sprintf("method %s catches non-Throwable %s", mname, cname)}
				}
			}
		}
	}

	// Type-checking verification (§4.10.1): presets that use the
	// StackMapTable-driven verifier reject undecodable tables outright.
	// Checked with plain conditionals — no coverage probes — so the
	// interned probe universe is unchanged by this late addition.
	if v.vm.Spec.Policy.VerifyTypeChecking && v.ex.f.Major >= 50 {
		for _, a := range v.code.Attributes {
			if t, ok := a.(*classfile.StackMapTableAttr); ok {
				if _, err := classfile.DecodeStackMap(t); err != nil {
					return &Outcome{Phase: PhaseLinking, Error: ErrClassFormat,
						Message: fmt.Sprintf("method %s has an undecodable StackMapTable: %v", mname, err)}
				}
				break
			}
		}
	}

	// Initial frame (pooled; mergeInto copies it, so it goes straight
	// back to the pool afterwards).
	init := vm.vscratch.getFrame()
	init.stack = init.stack[:0]
	if cap(init.locals) < int(v.code.MaxLocals) {
		init.locals = make([]vt, v.code.MaxLocals)
	} else {
		init.locals = init.locals[:v.code.MaxLocals]
		clear(init.locals)
	}
	slot := 0
	isStatic := v.m.AccessFlags.Has(classfile.AccStatic)
	if !isStatic {
		if slot >= len(init.locals) {
			vm.vscratch.putFrame(init)
			return v.outcome(ErrVerify, "max_locals too small for receiver")
		}
		if mname == "<init>" {
			init.locals[slot] = vt{kind: vtUninit, cls: v.ex.name, pc: -1}
		} else {
			init.locals[slot] = refOf(v.ex.name)
		}
		slot++
	}
	for _, pt := range md.Params {
		t := typeOfDesc(pt)
		if slot+t.kindSlots() > len(init.locals) {
			vm.st(pVerifyLocalsoverflow)
			vm.vscratch.putFrame(init)
			return v.outcome(ErrVerify, "max_locals %d too small for parameters of %s%s", v.code.MaxLocals, mname, mdesc)
		}
		init.locals[slot] = t
		slot++
		if t.isWideFirst() {
			init.locals[slot] = vt{kind: vtWide2}
			slot++
		}
	}

	if cap(vm.vscratch.in) >= len(ins) {
		v.in = vm.vscratch.in[:len(ins)] // entries were nilled at release
	} else {
		v.in = make([]*frame, len(ins))
	}
	v.work = vm.vscratch.work[:0]
	v.mergeInto(0, init)
	vm.vscratch.putFrame(init)

	for len(v.work) > 0 && v.err == nil {
		idx := v.work[len(v.work)-1]
		v.work = v.work[:len(v.work)-1]
		v.step(idx)
	}
	if v.err != nil {
		return v.outcome(v.err.errName, "method %s%s: %s", mname, mdesc, v.err.msg)
	}
	return nil
}

func (v *verifier) outcome(errName, format string, args ...any) *Outcome {
	o := reject(PhaseLinking, errName, format, args...)
	return &o
}

func (t vt) kindSlots() int {
	if t.isWideFirst() {
		return 2
	}
	return 1
}

// mergeInto merges a frame into instruction idx's entry state and
// enqueues it when the state changed.
func (v *verifier) mergeInto(idx int, f *frame) {
	if v.err != nil {
		return
	}
	cur := v.in[idx]
	if cur == nil {
		v.in[idx] = v.vm.vscratch.getFrame().copyFrom(f)
		v.work = append(v.work, idx)
		return
	}
	v.vm.st(pVerifyMerge)
	if v.vm.br(bVerifyMergeDepth, len(cur.stack) != len(f.stack)) {
		v.fail(ErrVerify, "inconsistent stack depth at merge (pc %d): %d vs %d",
			v.ins[idx].PC, len(cur.stack), len(f.stack))
		return
	}
	changed := false
	for i := range cur.stack {
		m, ch := v.mergeSlot(cur.stack[i], f.stack[i], true)
		if v.err != nil {
			return
		}
		if ch {
			cur.stack[i] = m
			changed = true
		}
	}
	for i := range cur.locals {
		m, ch := v.mergeSlot(cur.locals[i], f.locals[i], false)
		if v.err != nil {
			return
		}
		if ch {
			cur.locals[i] = m
			changed = true
		}
	}
	if changed {
		v.work = append(v.work, idx)
	}
}

// mergeSlot merges two abstract values. onStack selects the stricter
// stack rules (conflicts on the stack are verification errors; in
// locals they just poison the slot).
func (v *verifier) mergeSlot(a, b vt, onStack bool) (vt, bool) {
	if a == b {
		return a, false
	}
	p := &v.vm.Spec.Policy
	conflict := func(reason string) (vt, bool) {
		if onStack {
			v.vm.st(pVerifyMergeStackconflict)
			v.fail(ErrVerify, "unmergeable stack values (%s vs %s): %s", a, b, reason)
			return a, false
		}
		return vt{kind: vtConflict}, a.kind != vtConflict
	}
	// Reference-family merging.
	if a.isRefLike() && b.isRefLike() {
		// Uninitialized values merging with anything else: GIJ flags it
		// (Problem 2); other VMs widen to an unknown reference.
		if a.kind == vtUninit || b.kind == vtUninit {
			if a.kind == vtUninit && b.kind == vtUninit && a.pc == b.pc && a.cls == b.cls {
				return a, false
			}
			if p.VerifyUninitMerge {
				v.vm.st(pVerifyMergeUninit)
				v.fail(ErrVerify, "merging initialized and uninitialized values (%s vs %s)", a, b)
				return a, false
			}
			return refOf(""), true
		}
		if a.kind == vtNull {
			return b, true
		}
		if b.kind == vtNull {
			return a, false
		}
		// Both proper refs with (possibly) known classes.
		if a.cls == b.cls {
			return a, false
		}
		if a.cls == "" || b.cls == "" {
			return refOf(""), a.cls != ""
		}
		sup := v.commonSuper(a.cls, b.cls)
		if p.VerifyStrictStackShape && onStack && sup != a.cls && sup != b.cls {
			// J9's strict dialect: merging unrelated reference types on
			// the stack is a "stack shape inconsistent" failure.
			v.vm.st(pVerifyMergeStackshape)
			v.fail(ErrVerify, "stack shape inconsistent (%s vs %s)", a, b)
			return a, false
		}
		m := refOf(sup)
		return m, m != a
	}
	if a.kind == vtUndef || b.kind == vtUndef {
		return conflict("undefined slot")
	}
	if a.kind != b.kind {
		return conflict("kind mismatch")
	}
	return a, false
}

// commonSuper computes the least common superclass known to the
// environment; Object when unrelated.
func (v *verifier) commonSuper(a, b string) string {
	env := v.vm.Env
	chainOf := func(n string) []string {
		var chain []string
		cur := n
		if cur == v.ex.name {
			chain = append(chain, cur)
			cur = v.ex.f.SuperName()
		}
		for cur != "" {
			chain = append(chain, cur)
			ci, ok := env.Lookup(cur)
			if !ok {
				break
			}
			cur = ci.Super
		}
		return chain
	}
	ca, cb := chainOf(a), chainOf(b)
	inB := make(map[string]bool, len(cb))
	for _, n := range cb {
		inB[n] = true
	}
	for _, n := range ca {
		if inB[n] {
			return n
		}
	}
	return "java/lang/Object"
}

// assignableRef decides whether a value of class `from` can serve where
// `to` is expected, considering the class under test's own hierarchy.
func (ex *execState) assignableRef(from, to string) bool {
	if from == "" || to == "" || from == to || to == "java/lang/Object" {
		return true
	}
	if from == ex.name {
		// The class under test: assignable to its superclass chain and
		// declared interfaces.
		if ex.vm.Env.AssignableTo(ex.f.SuperName(), to) {
			return true
		}
		for _, n := range ex.f.InterfaceNames() {
			if n == to || ex.vm.Env.AssignableTo(n, to) {
				return true
			}
		}
		return false
	}
	if _, ok := ex.vm.Env.Lookup(from); !ok {
		// Unknown class: be permissive; lazy VMs discover at runtime.
		return true
	}
	if _, ok := ex.vm.Env.Lookup(to); !ok {
		return true
	}
	// Interfaces as targets: only check when both sides are known.
	return ex.vm.Env.AssignableTo(from, to)
}

// --- per-instruction simulation ------------------------------------------

type simFrame struct {
	v *verifier
	f *frame
}

func (s *simFrame) push(t vt) {
	if len(s.f.stack) >= int(s.v.code.MaxStack) {
		s.v.vm.st(pVerifyStackoverflow)
		s.v.fail(ErrVerify, "operand stack overflow (max_stack %d)", s.v.code.MaxStack)
		return
	}
	s.f.stack = append(s.f.stack, t)
}

func (s *simFrame) pushWide(t vt) {
	s.push(t)
	s.push(vt{kind: vtWide2})
}

func (s *simFrame) pop() vt {
	if s.v.err != nil {
		return vt{}
	}
	if len(s.f.stack) == 0 {
		s.v.vm.st(pVerifyStackunderflow)
		s.v.fail(ErrVerify, "operand stack underflow")
		return vt{}
	}
	t := s.f.stack[len(s.f.stack)-1]
	s.f.stack = s.f.stack[:len(s.f.stack)-1]
	return t
}

func (s *simFrame) popKind(k vtKind) vt {
	t := s.pop()
	if s.v.err == nil && t.kind != k {
		s.v.vm.st(pVerifyTypemismatch)
		s.v.fail(ErrVerify, "expected %s on stack, found %s", vt{kind: k}, t)
	}
	return t
}

func (s *simFrame) popWide(k vtKind) {
	s.popKind(vtWide2)
	s.popKind(k)
}

func (s *simFrame) popRef() vt {
	t := s.pop()
	if s.v.err == nil && !t.isRefLike() {
		s.v.vm.st(pVerifyRefmismatch)
		s.v.fail(ErrVerify, "expected a reference on stack, found %s", t)
	}
	return t
}

// popSite names the value popDesc pops. It is rendered only into a
// failure message, so a pop that passes formats nothing.
type popSite struct {
	op        string // "putstatic", "putfield", "argument", or "" for an invokedynamic argument
	arg       int    // the argument's index, for "argument"
	cls, name string // the field or method
}

func (p popSite) String() string {
	switch p.op {
	case "":
		return "invokedynamic argument"
	case "argument":
		return fmt.Sprintf("argument %d of %s.%s", p.arg, p.cls, p.name)
	}
	return fmt.Sprintf("%s %s.%s", p.op, p.cls, p.name)
}

// popDesc pops a value matching descriptor type dt, applying the
// strict-assignability dialect when enabled.
func (s *simFrame) popDesc(dt descriptor.Type, ctx popSite) {
	if dt.IsWide() {
		s.popWide(vtKind(dt.Kind))
		return
	}
	if dt.IsReference() {
		got := s.popRef()
		if s.v.err == nil && s.v.vm.Spec.Policy.VerifyRefAssignability &&
			got.kind == vtRef && got.cls != "" && dt.Dims == 0 && dt.Kind == 'L' {
			if s.v.vm.br(bVerifyAssignable, !s.v.ex.assignableRef(got.cls, dt.ClassName)) {
				s.v.fail(ErrVerify, "%s: %s is not assignable to %s", ctx, got.cls, dt.ClassName)
			}
		}
		return
	}
	switch dt.Kind {
	case 'F':
		s.popKind(vtFloat)
	default:
		s.popKind(vtInt)
	}
}

func (s *simFrame) getLocal(i int, k vtKind) vt {
	if i < 0 || i >= len(s.f.locals) {
		s.v.vm.st(pVerifyLocaloob)
		s.v.fail(ErrVerify, "local variable index %d out of bounds (max_locals %d)", i, len(s.f.locals))
		return vt{}
	}
	t := s.f.locals[i]
	if k == vtRef {
		if !t.isRefLike() {
			s.v.vm.st(pVerifyLocaltype)
			s.v.fail(ErrVerify, "local %d holds %s, expected a reference", i, t)
		}
	} else if t.kind != k {
		s.v.vm.st(pVerifyLocaltype)
		s.v.fail(ErrVerify, "local %d holds %s, expected %s", i, t, vt{kind: k})
	}
	return t
}

func (s *simFrame) setLocal(i int, t vt) {
	n := 1
	if t.isWideFirst() {
		n = 2
	}
	if i < 0 || i+n > len(s.f.locals) {
		s.v.vm.st(pVerifyLocaloob)
		s.v.fail(ErrVerify, "local variable index %d out of bounds (max_locals %d)", i, len(s.f.locals))
		return
	}
	// Storing into the second slot of a wide value invalidates the first.
	if i > 0 && s.f.locals[i].kind == vtWide2 && s.f.locals[i-1].isWideFirst() {
		s.f.locals[i-1] = vt{kind: vtConflict}
	}
	s.f.locals[i] = t
	if n == 2 {
		s.f.locals[i+1] = vt{kind: vtWide2}
	} else if i+1 < len(s.f.locals) && s.f.locals[i+1].kind == vtWide2 {
		// no-op: the old wide pair was already broken above if needed
		_ = i
	}
}

// step simulates instruction idx against its merged entry frame and
// propagates the result to all successors.
func (v *verifier) step(idx int) {
	in := v.ins[idx]
	fr := v.scratch.copyFrom(v.in[idx])
	s := &simFrame{v: v, f: fr}
	vm := v.vm
	vm.st(verifyOpProbes[byte(in.Op)])

	op := in.Op
	wide := false
	if op == bytecode.Wide {
		op = in.WideOp
		wide = true
		_ = wide
	}

	switch op {
	case bytecode.Nop, bytecode.Breakpoint, bytecode.Impdep1, bytecode.Impdep2:
	case bytecode.AconstNull:
		s.push(vt{kind: vtNull})
	case bytecode.IconstM1, bytecode.Iconst0, bytecode.Iconst1, bytecode.Iconst2,
		bytecode.Iconst3, bytecode.Iconst4, bytecode.Iconst5, bytecode.Bipush, bytecode.Sipush:
		s.push(vt{kind: vtInt})
	case bytecode.Lconst0, bytecode.Lconst1:
		s.pushWide(vt{kind: vtLong})
	case bytecode.Fconst0, bytecode.Fconst1, bytecode.Fconst2:
		s.push(vt{kind: vtFloat})
	case bytecode.Dconst0, bytecode.Dconst1:
		s.pushWide(vt{kind: vtDouble})
	case bytecode.Ldc, bytecode.LdcW:
		v.simLdc(s, in, false)
	case bytecode.Ldc2W:
		v.simLdc(s, in, true)

	case bytecode.Iload:
		s.getLocal(int(in.Local), vtInt)
		s.push(vt{kind: vtInt})
	case bytecode.Lload:
		s.getLocal(int(in.Local), vtLong)
		s.pushWide(vt{kind: vtLong})
	case bytecode.Fload:
		s.getLocal(int(in.Local), vtFloat)
		s.push(vt{kind: vtFloat})
	case bytecode.Dload:
		s.getLocal(int(in.Local), vtDouble)
		s.pushWide(vt{kind: vtDouble})
	case bytecode.Aload:
		t := s.getLocal(int(in.Local), vtRef)
		s.push(t)
	case bytecode.Iload0, bytecode.Iload1, bytecode.Iload2, bytecode.Iload3:
		s.getLocal(int(op-bytecode.Iload0), vtInt)
		s.push(vt{kind: vtInt})
	case bytecode.Lload0, bytecode.Lload1, bytecode.Lload2, bytecode.Lload3:
		s.getLocal(int(op-bytecode.Lload0), vtLong)
		s.pushWide(vt{kind: vtLong})
	case bytecode.Fload0, bytecode.Fload1, bytecode.Fload2, bytecode.Fload3:
		s.getLocal(int(op-bytecode.Fload0), vtFloat)
		s.push(vt{kind: vtFloat})
	case bytecode.Dload0, bytecode.Dload1, bytecode.Dload2, bytecode.Dload3:
		s.getLocal(int(op-bytecode.Dload0), vtDouble)
		s.pushWide(vt{kind: vtDouble})
	case bytecode.Aload0, bytecode.Aload1, bytecode.Aload2, bytecode.Aload3:
		t := s.getLocal(int(op-bytecode.Aload0), vtRef)
		s.push(t)

	case bytecode.Istore:
		s.popKind(vtInt)
		s.setLocal(int(in.Local), vt{kind: vtInt})
	case bytecode.Lstore:
		s.popWide(vtLong)
		s.setLocal(int(in.Local), vt{kind: vtLong})
	case bytecode.Fstore:
		s.popKind(vtFloat)
		s.setLocal(int(in.Local), vt{kind: vtFloat})
	case bytecode.Dstore:
		s.popWide(vtDouble)
		s.setLocal(int(in.Local), vt{kind: vtDouble})
	case bytecode.Astore:
		t := s.pop()
		if v.err == nil && !t.isRefLike() && t.kind != vtRetAddr {
			v.fail(ErrVerify, "astore of non-reference %s", t)
		}
		s.setLocal(int(in.Local), t)
	case bytecode.Istore0, bytecode.Istore1, bytecode.Istore2, bytecode.Istore3:
		s.popKind(vtInt)
		s.setLocal(int(op-bytecode.Istore0), vt{kind: vtInt})
	case bytecode.Lstore0, bytecode.Lstore1, bytecode.Lstore2, bytecode.Lstore3:
		s.popWide(vtLong)
		s.setLocal(int(op-bytecode.Lstore0), vt{kind: vtLong})
	case bytecode.Fstore0, bytecode.Fstore1, bytecode.Fstore2, bytecode.Fstore3:
		s.popKind(vtFloat)
		s.setLocal(int(op-bytecode.Fstore0), vt{kind: vtFloat})
	case bytecode.Dstore0, bytecode.Dstore1, bytecode.Dstore2, bytecode.Dstore3:
		s.popWide(vtDouble)
		s.setLocal(int(op-bytecode.Dstore0), vt{kind: vtDouble})
	case bytecode.Astore0, bytecode.Astore1, bytecode.Astore2, bytecode.Astore3:
		t := s.pop()
		if v.err == nil && !t.isRefLike() && t.kind != vtRetAddr {
			v.fail(ErrVerify, "astore of non-reference %s", t)
		}
		s.setLocal(int(op-bytecode.Astore0), t)

	case bytecode.Iaload, bytecode.Baload, bytecode.Caload, bytecode.Saload:
		s.popKind(vtInt)
		s.popRef()
		s.push(vt{kind: vtInt})
	case bytecode.Laload:
		s.popKind(vtInt)
		s.popRef()
		s.pushWide(vt{kind: vtLong})
	case bytecode.Faload:
		s.popKind(vtInt)
		s.popRef()
		s.push(vt{kind: vtFloat})
	case bytecode.Daload:
		s.popKind(vtInt)
		s.popRef()
		s.pushWide(vt{kind: vtDouble})
	case bytecode.Aaload:
		s.popKind(vtInt)
		arr := s.popRef()
		s.push(elementOf(arr))
	case bytecode.Iastore, bytecode.Bastore, bytecode.Castore, bytecode.Sastore:
		s.popKind(vtInt)
		s.popKind(vtInt)
		s.popRef()
	case bytecode.Lastore:
		s.popWide(vtLong)
		s.popKind(vtInt)
		s.popRef()
	case bytecode.Fastore:
		s.popKind(vtFloat)
		s.popKind(vtInt)
		s.popRef()
	case bytecode.Dastore:
		s.popWide(vtDouble)
		s.popKind(vtInt)
		s.popRef()
	case bytecode.Aastore:
		s.popRef()
		s.popKind(vtInt)
		s.popRef()

	case bytecode.Pop:
		t := s.pop()
		if v.err == nil && t.kind == vtWide2 {
			v.fail(ErrVerify, "pop splits a two-slot value")
		}
	case bytecode.Pop2:
		s.pop()
		s.pop()
	case bytecode.Dup:
		t := s.pop()
		if v.err == nil && t.kind == vtWide2 {
			v.fail(ErrVerify, "dup of half a two-slot value")
		}
		s.push(t)
		s.push(t)
	case bytecode.DupX1:
		a := s.pop()
		b := s.pop()
		s.push(a)
		s.push(b)
		s.push(a)
	case bytecode.DupX2:
		a := s.pop()
		b := s.pop()
		c := s.pop()
		s.push(a)
		s.push(c)
		s.push(b)
		s.push(a)
	case bytecode.Dup2:
		a := s.pop()
		b := s.pop()
		s.push(b)
		s.push(a)
		s.push(b)
		s.push(a)
	case bytecode.Dup2X1:
		a := s.pop()
		b := s.pop()
		c := s.pop()
		s.push(b)
		s.push(a)
		s.push(c)
		s.push(b)
		s.push(a)
	case bytecode.Dup2X2:
		a := s.pop()
		b := s.pop()
		c := s.pop()
		d := s.pop()
		s.push(b)
		s.push(a)
		s.push(d)
		s.push(c)
		s.push(b)
		s.push(a)
	case bytecode.Swap:
		a := s.pop()
		b := s.pop()
		if v.err == nil && (a.kind == vtWide2 || b.kind == vtWide2) {
			v.fail(ErrVerify, "swap of two-slot values")
		}
		s.push(a)
		s.push(b)

	case bytecode.Iadd, bytecode.Isub, bytecode.Imul, bytecode.Idiv, bytecode.Irem,
		bytecode.Ishl, bytecode.Ishr, bytecode.Iushr, bytecode.Iand, bytecode.Ior, bytecode.Ixor:
		s.popKind(vtInt)
		s.popKind(vtInt)
		s.push(vt{kind: vtInt})
	case bytecode.Ladd, bytecode.Lsub, bytecode.Lmul, bytecode.Ldiv, bytecode.Lrem,
		bytecode.Land, bytecode.Lor, bytecode.Lxor:
		s.popWide(vtLong)
		s.popWide(vtLong)
		s.pushWide(vt{kind: vtLong})
	case bytecode.Lshl, bytecode.Lshr, bytecode.Lushr:
		s.popKind(vtInt)
		s.popWide(vtLong)
		s.pushWide(vt{kind: vtLong})
	case bytecode.Fadd, bytecode.Fsub, bytecode.Fmul, bytecode.Fdiv, bytecode.Frem:
		s.popKind(vtFloat)
		s.popKind(vtFloat)
		s.push(vt{kind: vtFloat})
	case bytecode.Dadd, bytecode.Dsub, bytecode.Dmul, bytecode.Ddiv, bytecode.Drem:
		s.popWide(vtDouble)
		s.popWide(vtDouble)
		s.pushWide(vt{kind: vtDouble})
	case bytecode.Ineg:
		s.popKind(vtInt)
		s.push(vt{kind: vtInt})
	case bytecode.Lneg:
		s.popWide(vtLong)
		s.pushWide(vt{kind: vtLong})
	case bytecode.Fneg:
		s.popKind(vtFloat)
		s.push(vt{kind: vtFloat})
	case bytecode.Dneg:
		s.popWide(vtDouble)
		s.pushWide(vt{kind: vtDouble})
	case bytecode.Iinc:
		s.getLocal(int(in.Local), vtInt)

	case bytecode.I2l:
		s.popKind(vtInt)
		s.pushWide(vt{kind: vtLong})
	case bytecode.I2f:
		s.popKind(vtInt)
		s.push(vt{kind: vtFloat})
	case bytecode.I2d:
		s.popKind(vtInt)
		s.pushWide(vt{kind: vtDouble})
	case bytecode.L2i:
		s.popWide(vtLong)
		s.push(vt{kind: vtInt})
	case bytecode.L2f:
		s.popWide(vtLong)
		s.push(vt{kind: vtFloat})
	case bytecode.L2d:
		s.popWide(vtLong)
		s.pushWide(vt{kind: vtDouble})
	case bytecode.F2i:
		s.popKind(vtFloat)
		s.push(vt{kind: vtInt})
	case bytecode.F2l:
		s.popKind(vtFloat)
		s.pushWide(vt{kind: vtLong})
	case bytecode.F2d:
		s.popKind(vtFloat)
		s.pushWide(vt{kind: vtDouble})
	case bytecode.D2i:
		s.popWide(vtDouble)
		s.push(vt{kind: vtInt})
	case bytecode.D2l:
		s.popWide(vtDouble)
		s.pushWide(vt{kind: vtLong})
	case bytecode.D2f:
		s.popWide(vtDouble)
		s.push(vt{kind: vtFloat})
	case bytecode.I2b, bytecode.I2c, bytecode.I2s:
		s.popKind(vtInt)
		s.push(vt{kind: vtInt})

	case bytecode.Lcmp:
		s.popWide(vtLong)
		s.popWide(vtLong)
		s.push(vt{kind: vtInt})
	case bytecode.Fcmpl, bytecode.Fcmpg:
		s.popKind(vtFloat)
		s.popKind(vtFloat)
		s.push(vt{kind: vtInt})
	case bytecode.Dcmpl, bytecode.Dcmpg:
		s.popWide(vtDouble)
		s.popWide(vtDouble)
		s.push(vt{kind: vtInt})

	case bytecode.Ifeq, bytecode.Ifne, bytecode.Iflt, bytecode.Ifge, bytecode.Ifgt, bytecode.Ifle:
		s.popKind(vtInt)
	case bytecode.IfIcmpeq, bytecode.IfIcmpne, bytecode.IfIcmplt, bytecode.IfIcmpge,
		bytecode.IfIcmpgt, bytecode.IfIcmple:
		s.popKind(vtInt)
		s.popKind(vtInt)
	case bytecode.IfAcmpeq, bytecode.IfAcmpne:
		s.popRef()
		s.popRef()
	case bytecode.Ifnull, bytecode.Ifnonnull:
		s.popRef()
	case bytecode.Goto, bytecode.GotoW:
	case bytecode.Jsr, bytecode.JsrW:
		s.push(vt{kind: vtRetAddr})
	case bytecode.Ret:
		s.getLocal(int(in.Local), vtRetAddr)
	case bytecode.Tableswitch, bytecode.Lookupswitch:
		s.popKind(vtInt)

	case bytecode.Ireturn:
		s.popKind(vtInt)
		v.checkReturn(in, 'I')
	case bytecode.Lreturn:
		s.popWide(vtLong)
		v.checkReturn(in, 'J')
	case bytecode.Freturn:
		s.popKind(vtFloat)
		v.checkReturn(in, 'F')
	case bytecode.Dreturn:
		s.popWide(vtDouble)
		v.checkReturn(in, 'D')
	case bytecode.Areturn:
		s.popRef()
		v.checkReturn(in, 'A')
	case bytecode.Return:
		v.checkReturn(in, 'V')

	case bytecode.Getstatic, bytecode.Putstatic, bytecode.Getfield, bytecode.Putfield:
		v.simField(s, in)
	case bytecode.Invokevirtual, bytecode.Invokespecial, bytecode.Invokestatic,
		bytecode.Invokeinterface:
		v.simInvoke(s, in)
	case bytecode.Invokedynamic:
		v.simInvokeDynamic(s, in)

	case bytecode.New:
		cname, ok := v.ex.f.Pool.ClassName(in.CPIndex)
		if vm.br(bVerifyNewCp, !ok) {
			v.fail(ErrClassFormat, "new references non-class constant #%d", in.CPIndex)
			break
		}
		s.push(vt{kind: vtUninit, cls: cname, pc: in.PC})
	case bytecode.Newarray:
		if vm.br(bVerifyNewarrayType, !in.ArrayTyp.Valid()) {
			v.fail(ErrVerify, "newarray with invalid type code %d", in.ArrayTyp)
			break
		}
		s.popKind(vtInt)
		s.push(refOf("[" + in.ArrayTyp.Descriptor()))
	case bytecode.Anewarray:
		cname, ok := v.ex.f.Pool.ClassName(in.CPIndex)
		if vm.br(bVerifyAnewarrayCp, !ok) {
			v.fail(ErrClassFormat, "anewarray references non-class constant #%d", in.CPIndex)
			break
		}
		s.popKind(vtInt)
		if len(cname) > 0 && cname[0] == '[' {
			s.push(refOf("[" + cname))
		} else {
			s.push(refOf("[L" + cname + ";"))
		}
	case bytecode.Multianewarray:
		if vm.br(bVerifyMultianewarrayDims, in.Count == 0) {
			v.fail(ErrVerify, "multianewarray with zero dimensions")
			break
		}
		for i := 0; i < int(in.Count); i++ {
			s.popKind(vtInt)
		}
		cname, _ := v.ex.f.Pool.ClassName(in.CPIndex)
		s.push(refOf(cname))
	case bytecode.Arraylength:
		s.popRef()
		s.push(vt{kind: vtInt})

	case bytecode.Athrow:
		t := s.popRef()
		if v.err == nil && t.kind == vtRef && t.cls != "" && t.cls != v.ex.name {
			if _, ok := vm.Env.Lookup(t.cls); ok && vm.br(bVerifyAthrowThrowable, !vm.Env.IsThrowable(t.cls)) {
				v.fail(ErrVerify, "athrow of non-Throwable %s", t.cls)
			}
		}
	case bytecode.Checkcast:
		t := s.popRef()
		cname, ok := v.ex.f.Pool.ClassName(in.CPIndex)
		if vm.br(bVerifyCheckcastCp, !ok) {
			v.fail(ErrClassFormat, "checkcast references non-class constant #%d", in.CPIndex)
			break
		}
		_ = t
		s.push(refOf(cname))
	case bytecode.Instanceof:
		s.popRef()
		if _, ok := v.ex.f.Pool.ClassName(in.CPIndex); vm.br(bVerifyInstanceofCp, !ok) {
			v.fail(ErrClassFormat, "instanceof references non-class constant #%d", in.CPIndex)
			break
		}
		s.push(vt{kind: vtInt})
	case bytecode.Monitorenter, bytecode.Monitorexit:
		s.popRef()

	default:
		vm.st(pVerifyOpUnknown)
		v.fail(ErrVerify, "unsupported opcode %s", op.Mnemonic())
	}

	if v.err != nil {
		return
	}

	// Propagate to successors.
	if !in.Op.EndsBlock() {
		next := idx + 1
		if vm.br(bVerifyFalloff, next >= len(v.ins)) {
			v.fail(ErrVerify, "execution falls off the end of the code")
			return
		}
		v.mergeInto(next, fr)
	}
	for k := range in.NumTargets() {
		j, _ := v.pcIndex.at(in.Target(k)) // every target was checked in run
		v.mergeInto(j, fr)
	}
	// Exception edges: any instruction inside a protected range can
	// transfer to the handler with a single throwable on the stack.
	for _, h := range v.code.Handlers {
		if in.PC >= int(h.StartPC) && in.PC < int(h.EndPC) {
			hidx, ok := v.pcIndex.at(int(h.HandlerPC))
			if !ok {
				continue // already rejected above
			}
			cname := "java/lang/Throwable"
			if h.CatchType != 0 {
				if n, ok := v.ex.f.Pool.ClassName(h.CatchType); ok {
					cname = n
				}
			}
			hf := vm.vscratch.getFrame()
			hf.locals = append(hf.locals[:0], fr.locals...)
			hf.stack = append(hf.stack[:0], refOf(cname))
			v.mergeInto(hidx, hf)
			vm.vscratch.putFrame(hf)
		}
	}
}

// elementOf computes the element type of an array reference when known.
func elementOf(arr vt) vt {
	if arr.kind == vtRef && len(arr.cls) > 1 && arr.cls[0] == '[' {
		elem := arr.cls[1:]
		if elem[0] == 'L' && elem[len(elem)-1] == ';' {
			return refOf(elem[1 : len(elem)-1])
		}
		if elem[0] == '[' {
			return refOf(elem)
		}
	}
	return refOf("")
}

func (v *verifier) checkReturn(in *bytecode.Instruction, kind byte) {
	ret := v.md.Return
	var ok bool
	switch kind {
	case 'V':
		ok = ret.IsVoid()
	case 'A':
		ok = ret.IsReference()
	case 'I':
		ok = ret.Dims == 0 && (ret.Kind == 'I' || ret.Kind == 'Z' || ret.Kind == 'B' || ret.Kind == 'C' || ret.Kind == 'S')
	default:
		ok = ret.Dims == 0 && ret.Kind == kind
	}
	if v.vm.br(bVerifyReturnmatch, !ok) {
		v.fail(ErrVerify, "%s at pc %d does not match return type %s", in.Op.Mnemonic(), in.PC, ret.Java())
	}
	// A constructor must have initialized `this` before returning.
	if kind == 'V' && v.m.Name(v.ex.f.Pool) == "<init>" {
		i, _ := v.pcIndex.at(in.PC)
		fr := v.in[i]
		if len(fr.locals) > 0 && fr.locals[0].kind == vtUninit && fr.locals[0].pc == -1 {
			if v.vm.br(bVerifyInitUninitreturn, true) {
				v.fail(ErrVerify, "constructor returns without calling super constructor")
			}
		}
	}
}

func (v *verifier) simLdc(s *simFrame, in *bytecode.Instruction, wide bool) {
	c := v.ex.f.Pool.Get(in.CPIndex)
	if v.vm.br(bVerifyLdcCp, c == nil) {
		v.fail(ErrClassFormat, "ldc references unusable constant #%d", in.CPIndex)
		return
	}
	switch c.Tag {
	case classfile.TagInteger:
		v.vm.st(pVerifyLdcInt)
		if wide {
			v.fail(ErrVerify, "ldc2_w of a single-slot constant")
			return
		}
		s.push(vt{kind: vtInt})
	case classfile.TagFloat:
		v.vm.st(pVerifyLdcFloat)
		if wide {
			v.fail(ErrVerify, "ldc2_w of a single-slot constant")
			return
		}
		s.push(vt{kind: vtFloat})
	case classfile.TagString:
		v.vm.st(pVerifyLdcString)
		if wide {
			v.fail(ErrVerify, "ldc2_w of a single-slot constant")
			return
		}
		s.push(refOf("java/lang/String"))
	case classfile.TagClass:
		v.vm.st(pVerifyLdcClass)
		if wide {
			v.fail(ErrVerify, "ldc2_w of a single-slot constant")
			return
		}
		s.push(refOf("java/lang/Class"))
	case classfile.TagLong:
		v.vm.st(pVerifyLdcLong)
		if !wide {
			v.fail(ErrVerify, "ldc of a two-slot constant")
			return
		}
		s.pushWide(vt{kind: vtLong})
	case classfile.TagDouble:
		v.vm.st(pVerifyLdcDouble)
		if !wide {
			v.fail(ErrVerify, "ldc of a two-slot constant")
			return
		}
		s.pushWide(vt{kind: vtDouble})
	default:
		v.vm.st(pVerifyLdcBadtag)
		v.fail(ErrClassFormat, "ldc of unsupported constant tag %s", c.Tag)
	}
}

func (v *verifier) simField(s *simFrame, in *bytecode.Instruction) {
	cls, name, desc, ok := v.ex.f.Pool.MemberRef(in.CPIndex)
	if v.vm.br(bVerifyFieldCp, !ok) {
		v.fail(ErrClassFormat, "field instruction references invalid constant #%d", in.CPIndex)
		return
	}
	ft, err := descriptor.ParseField(desc)
	if v.vm.br(bVerifyFieldDesc, err != nil) {
		v.fail(ErrClassFormat, "field %s.%s has malformed descriptor %q", cls, name, desc)
		return
	}
	t := typeOfDesc(ft)
	switch in.Op {
	case bytecode.Getstatic:
		if t.isWideFirst() {
			s.pushWide(t)
		} else {
			s.push(t)
		}
	case bytecode.Putstatic:
		s.popDesc(ft, popSite{op: "putstatic", cls: cls, name: name})
	case bytecode.Getfield:
		s.popRef()
		if t.isWideFirst() {
			s.pushWide(t)
		} else {
			s.push(t)
		}
	case bytecode.Putfield:
		s.popDesc(ft, popSite{op: "putfield", cls: cls, name: name})
		s.popRef()
	}
}

func (v *verifier) simInvoke(s *simFrame, in *bytecode.Instruction) {
	cls, name, desc, ok := v.ex.f.Pool.MemberRef(in.CPIndex)
	if v.vm.br(bVerifyInvokeCp, !ok) {
		v.fail(ErrClassFormat, "invoke references invalid constant #%d", in.CPIndex)
		return
	}
	md, err := descriptor.ParseMethodInto(desc, v.vm.vscratch.invokeParams)
	if v.vm.br(bVerifyInvokeDesc, err != nil) {
		v.fail(ErrClassFormat, "invoked method %s.%s has malformed descriptor %q", cls, name, desc)
		return
	}
	v.vm.vscratch.invokeParams = md.Params
	// Args are popped right-to-left.
	for i := len(md.Params) - 1; i >= 0; i-- {
		s.popDesc(md.Params[i], popSite{op: "argument", arg: i, cls: cls, name: name})
	}
	if in.Op != bytecode.Invokestatic {
		recv := s.popRef()
		if v.err != nil {
			return
		}
		if in.Op == bytecode.Invokespecial && name == "<init>" {
			// Initializes an uninitialized object: rewrite every copy.
			if recv.kind == vtUninit {
				v.vm.st(pVerifyInvokeInitobj)
				initTo := refOf(recv.cls)
				if recv.pc == -1 {
					initTo = refOf(v.ex.name)
				}
				replace := func(slice []vt) {
					for i, t := range slice {
						if t.kind == vtUninit && t.pc == recv.pc {
							slice[i] = initTo
						}
					}
				}
				replace(s.f.stack)
				replace(s.f.locals)
			} else if v.vm.br(bVerifyInvokeInitoninit, recv.kind == vtRef && v.vm.Spec.Policy.VerifyUninitMerge) {
				// Strict dialects reject re-initialization of an already
				// initialized reference.
				v.fail(ErrVerify, "invokespecial <init> on initialized reference")
				return
			}
		} else if recv.kind == vtUninit {
			if v.vm.br(bVerifyInvokeUninitrecv, true) {
				v.fail(ErrVerify, "method call on uninitialized object")
				return
			}
		}
	}
	if !md.Return.IsVoid() {
		t := typeOfDesc(md.Return)
		if t.isWideFirst() {
			s.pushWide(t)
		} else {
			s.push(t)
		}
	}
}

func (v *verifier) simInvokeDynamic(s *simFrame, in *bytecode.Instruction) {
	c := v.ex.f.Pool.Get(in.CPIndex)
	if v.vm.br(bVerifyIndyCp, c == nil || c.Tag != classfile.TagInvokeDynamic) {
		v.fail(ErrClassFormat, "invokedynamic references invalid constant #%d", in.CPIndex)
		return
	}
	_, desc, ok := v.ex.f.Pool.NameAndType(c.Ref2)
	if v.vm.br(bVerifyIndyNat, !ok) {
		v.fail(ErrClassFormat, "invokedynamic NameAndType is invalid")
		return
	}
	md, err := descriptor.ParseMethod(desc)
	if v.vm.br(bVerifyIndyDesc, err != nil) {
		v.fail(ErrClassFormat, "invokedynamic descriptor %q is malformed", desc)
		return
	}
	for i := len(md.Params) - 1; i >= 0; i-- {
		s.popDesc(md.Params[i], popSite{})
	}
	if !md.Return.IsVoid() {
		t := typeOfDesc(md.Return)
		if t.isWideFirst() {
			s.pushWide(t)
		} else {
			s.push(t)
		}
	}
}

// VerifyFootprint is the number of abstract slots the verifier may keep
// live for f: the sum over its methods of len(code) × (max_locals +
// max_stack), one entry frame per instruction. The verifier allocates
// in proportion to it rather than to f's size, which is why every file
// boundary bounds it (a 1 KB class can declare 65,535 locals).
func VerifyFootprint(f *classfile.File) int {
	n := 0
	for _, m := range f.Methods {
		if c := m.Code(); c != nil {
			n += len(c.Code) * (int(c.MaxLocals) + int(c.MaxStack))
		}
	}
	return n
}

// MaxVerifyFootprint bounds the VerifyFootprint of a class read from
// outside the process: a daemon submission, a reloaded corpus file, or
// a file handed to jvmdiff, classlint or classreduce. The verifier
// keeps a 32-byte slot per local per instruction, so a 978-byte class
// with max_locals 65535 on 801 instructions costs about 801 × 65,536 ×
// 32 B ≈ 1.7 GB per run. The largest footprint in five 1,216-seed
// generated corpora and the catalog is 262.
const MaxVerifyFootprint = 1 << 20

// ErrFootprint is what CheckFootprint refuses an over-cap class with.
var ErrFootprint = errors.New("verifier footprint exceeds the cap")

// CheckFootprint refuses f, with an error wrapping ErrFootprint, when
// its VerifyFootprint exceeds MaxVerifyFootprint. Callers check before
// any VM or the static oracle verifies f.
func CheckFootprint(f *classfile.File) error {
	if n := VerifyFootprint(f); n > MaxVerifyFootprint {
		return fmt.Errorf("%w: %d slots, cap %d", ErrFootprint, n, MaxVerifyFootprint)
	}
	return nil
}
