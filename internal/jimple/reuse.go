package jimple

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"math"
	"slices"
	"unsafe"

	"repro/internal/bytecode"
	"repro/internal/classfile"
)

// Body reuse. A mutant is a copy-on-write clone of a pool member that
// rewrites at most one method, so almost every body a campaign worker
// lowers is one it has lowered before, into a pool that differs only in
// where the shared constants sit. A LowerCtx therefore records each
// such lowering once — the code, its frame sizes and line table, the
// constant-pool calls the body made, and for each pool operand in the
// code its offset and the call that produced it — and replays it: the
// same calls in the same order rebuild the pool byte for byte, and the
// recorded code is copied and its pool operands patched with the calls'
// new indices. Replaying an ldc whose index changes width would change
// the code's length, so such a body is lowered afresh instead.

// LowerStats counts how a LowerCtx produced the bodies it lowered.
// Which bodies replay depends on what the context lowered before, so the
// counts depend on how tasks were spread over contexts; the bytes never
// do.
type LowerStats struct {
	BodiesReused   int64 // replayed from a recorded lowering
	BodiesLowered  int64 // compiled from their statements
	WidthFallbacks int64 // replays abandoned for an ldc that changed width (also counted as lowered)
}

// Stats returns the context's body counts since it was created.
func (ctx *LowerCtx) Stats() LowerStats { return ctx.stats }

// sameLowering reports whether lowering m's body reads the same
// inputs as lowering s's, its class's OrigPool aside: the same body,
// locals and handler table, compared by identity (copy-on-write never
// writes into a slice it shares), the same static bit and raw frame
// sizes, and equal parameters.
func sameLowering(s, m *Method) bool {
	return s == m || sameSlice(s.Body, m.Body) && sameSlice(s.Locals, m.Locals) &&
		sameSlice(s.RawHandlers, m.RawHandlers) && s.IsStatic() == m.IsStatic() &&
		s.RawMaxStack == m.RawMaxStack && s.RawMaxLocals == m.RawMaxLocals &&
		slices.Equal(s.Params, m.Params)
}

func sameSlice[T any](a, b []T) bool {
	return len(a) == len(b) && unsafe.SliceData(a) == unsafe.SliceData(b)
}

// bodyEntry is one recorded lowering: the method of a source class it
// was recorded for, which nothing writes once its class has been
// cloned, the OrigPool it was lowered against, and the payload to
// replay. Holding the method keeps its body alive, so no later
// allocation can reuse the address the cache is indexed by.
type bodyEntry struct {
	src     *Method
	orig    *classfile.ConstPool
	payload int32
	// next is the index of the next entry for the same body whose other
	// inputs differ, or -1.
	next int32
}

// payload is a recorded lowering with nothing of the class it was
// recorded in: its calls, code (pool operands zeroed), operand sites
// and line table are spans of the cache's slabs. Bodies that lower
// alike — every seed's copy of the standard main, say — share one.
type payload struct {
	calls, code, sites, lines span
	// nLdc counts the ldc and ldc_w sites, which come first.
	nLdc                uint16
	maxStack, maxLocals uint16
}

// span is the slab range [off, end).
type span struct{ off, end uint32 }

func spanFrom[T any](slab []T, start int) span { return span{uint32(start), uint32(len(slab))} }

// poolSite is one constant-pool operand in recorded code: the offset of
// its bytes and the call whose index goes there.
type poolSite struct {
	at    int32
	call  uint16
	width siteWidth
}

type siteWidth uint8

const (
	siteShort siteWidth = iota // a two-byte index whose width never changes
	siteLdc                    // ldc: a one-byte index
	siteLdcW                   // ldc_w: a two-byte index lowering chose for its size
)

// poolOpKind names the constant-pool call a poolOp makes.
type poolOpKind uint8

const (
	opClass poolOpKind = iota
	opString
	opInteger
	opFloat
	opLong
	opDouble
	opFieldref
	opMethodref
	opInterfaceMethodref
	opOrig // internConst of an OrigPool index
)

// poolOp is one top-level constant-pool call a body's lowering makes.
type poolOp struct {
	a, b, c string // names and descriptors; a is a String's text
	bits    uint64 // a numeric constant's bits, or the OrigPool index
	kind    poolOpKind
}

// loggedOp is a call the lowerer made while recording, with the index
// it returned.
type loggedOp struct {
	op  poolOp
	idx uint16
}

// apply makes the call against cp (orig is the class's OrigPool). ok is
// false when an OrigPool constant could not be re-interned and its old
// index was returned as is.
func (op *poolOp) apply(cp, orig *classfile.ConstPool) (idx uint16, ok bool) {
	switch op.kind {
	case opClass:
		return cp.AddClass(op.a), true
	case opString:
		return cp.AddString(op.a), true
	case opInteger:
		return cp.AddInteger(int32(op.bits)), true
	case opFloat:
		return cp.AddFloat(math.Float32frombits(uint32(op.bits))), true
	case opLong:
		return cp.AddLong(int64(op.bits)), true
	case opDouble:
		return cp.AddDouble(math.Float64frombits(op.bits)), true
	case opFieldref:
		return cp.AddFieldref(op.a, op.b, op.c), true
	case opMethodref:
		return cp.AddMethodref(op.a, op.b, op.c), true
	case opInterfaceMethodref:
		return cp.AddInterfaceMethodref(op.a, op.b, op.c), true
	default:
		return internConst(cp, orig, uint16(op.bits))
	}
}

// bodyCache is a LowerCtx's recorded lowerings, held in slabs that
// only grow: entries are immutable and live as long as the context.
// Only bodies a clone shares with its source are recorded, so the cache
// holds the lowerings of pool members' methods and is bounded by their
// number.
type bodyCache struct {
	// index maps a body's first statement to its first entry.
	index    map[*Stmt]int32
	entries  []bodyEntry
	payloads []payload
	// byHash finds a payload equal to a new one by its hash.
	byHash map[uint64]int32
	seed   maphash.Seed
	calls  []poolOp
	code   []byte
	sites  []poolSite
	lines  []classfile.LineNumberEntry
	// table is the scratch a record or replay maps indices through.
	table []uint16
}

// find returns the entry recorded for lowering m's body in class c,
// or nil.
func (bc *bodyCache) find(c *Class, m *Method) *bodyEntry {
	i, ok := bc.index[unsafe.SliceData(m.Body)]
	if !ok {
		return nil
	}
	for ; i >= 0; i = bc.entries[i].next {
		if e := &bc.entries[i]; e.orig == c.OrigPool && sameLowering(e.src, m) {
			return e
		}
	}
	return nil
}

// indexTable returns the cache's index table with room for indices
// 0..n, contents unspecified.
func (bc *bodyCache) indexTable(n int) []uint16 {
	if len(bc.table) <= n {
		bc.table = make([]uint16, max(n+1, 2*len(bc.table)))
	}
	return bc.table
}

// sharedWith returns the method of the class c was cloned from whose
// lowering m's would repeat, or nil. Recording only such bodies keeps
// a rejected mutant's own bodies out of the cache.
func sharedWith(c *Class, m *Method) *Method {
	for _, s := range c.source {
		if sameLowering(s, m) {
			return s
		}
	}
	return nil
}

// body lowers m's body into f. For a clone it replays a lowering the
// context recorded before, and records the lowering of a body the clone
// shares with its source; any other class is lowered from statements.
func (ctx *LowerCtx) body(f *classfile.File, c *Class, m *Method) (*classfile.CodeAttr, error) {
	if c.source == nil || len(m.Body) == 0 {
		return ctx.lowerBody(f, c, m)
	}
	if e := ctx.bodies.find(c, m); e != nil {
		if attr, ok := ctx.replay(f, c, m, e); ok {
			ctx.stats.BodiesReused++
			return attr, nil
		}
		ctx.stats.WidthFallbacks++
		return ctx.lowerBody(f, c, m)
	}
	src := sharedWith(c, m)
	if src == nil {
		return ctx.lowerBody(f, c, m)
	}
	lw := &ctx.lw
	lw.recording, lw.unrelocatable = true, false
	lw.ops = lw.ops[:0]
	attr, err := ctx.lowerBody(f, c, m)
	lw.recording = false
	if err == nil {
		ctx.record(src, c.OrigPool, attr)
	}
	return attr, err
}

// record stores the lowering lowerBody just produced, unless some pool
// operand in its code did not come from a logged call.
func (ctx *LowerCtx) record(src *Method, orig *classfile.ConstPool, attr *classfile.CodeAttr) {
	lw, bc := &ctx.lw, &ctx.bodies
	if lw.unrelocatable || len(attr.Code) == 0 || len(ctx.f.Pool.Entries) > 0xFFFF {
		return
	}
	// Keep the first call that returned each index, numbered from 1 in
	// the table. In a pool of at most 0xFFFF entries an index is one
	// constant, so a later call returning it interns nothing new on
	// replay either.
	var maxIdx uint16
	for _, l := range lw.ops {
		maxIdx = max(maxIdx, l.idx)
	}
	callOf := bc.indexTable(int(maxIdx))
	clear(callOf[:int(maxIdx)+1])
	p := payload{maxStack: attr.MaxStack, maxLocals: attr.MaxLocals}
	callsAt, codeAt, sitesAt, linesAt := len(bc.calls), len(bc.code), len(bc.sites), len(bc.lines)
	for _, l := range lw.ops {
		if callOf[l.idx] == 0 {
			bc.calls = append(bc.calls, l.op)
			callOf[l.idx] = uint16(len(bc.calls) - callsAt)
		}
	}
	bc.code = append(bc.code, attr.Code...)
	code := bc.code[codeAt:]
	// Sites, the width-sensitive ldc sites first, so a replay checks
	// their widths without walking the rest.
	for _, in := range lw.ins {
		info, _ := bytecode.Lookup(in.Op)
		w := siteShort
		switch info.Kind {
		case bytecode.OpCPByte:
			w = siteLdc
		case bytecode.OpCPShort, bytecode.OpInvokeInterface, bytecode.OpInvokeDynamic, bytecode.OpMultianewarray:
			if in.Op == bytecode.LdcW {
				w = siteLdcW
			}
		default:
			continue
		}
		if in.CPIndex == 0 {
			continue // left as is: no pool call produced it
		}
		if in.CPIndex > maxIdx || callOf[in.CPIndex] == 0 {
			bc.calls, bc.code, bc.sites = bc.calls[:callsAt], bc.code[:codeAt], bc.sites[:sitesAt]
			return
		}
		at := in.PC + 1
		code[at] = 0
		if w != siteLdc {
			code[at+1] = 0
		}
		bc.sites = append(bc.sites, poolSite{at: int32(at), call: callOf[in.CPIndex] - 1, width: w})
		if w != siteShort {
			k := sitesAt + int(p.nLdc)
			bc.sites[k], bc.sites[len(bc.sites)-1] = bc.sites[len(bc.sites)-1], bc.sites[k]
			p.nLdc++
		}
	}
	if len(attr.Attributes) > 0 {
		bc.lines = append(bc.lines, attr.Attributes[0].(*classfile.LineNumberTableAttr).Entries...)
	}
	p.calls, p.code = spanFrom(bc.calls, callsAt), spanFrom(bc.code, codeAt)
	p.sites, p.lines = spanFrom(bc.sites, sitesAt), spanFrom(bc.lines, linesAt)

	body := unsafe.SliceData(src.Body)
	next, ok := bc.index[body]
	if !ok {
		next = -1
	}
	if bc.index == nil {
		bc.index = make(map[*Stmt]int32)
	}
	bc.index[body] = int32(len(bc.entries))
	bc.entries = append(bc.entries, bodyEntry{src: src, orig: orig, payload: bc.share(p), next: next})
}

// share returns the index of a payload equal to p, which was just
// appended at the ends of the slabs: an earlier one, whose copy is then
// dropped from the slabs, or p itself.
func (bc *bodyCache) share(p payload) int32 {
	if bc.byHash == nil {
		bc.byHash = make(map[uint64]int32)
		bc.seed = maphash.MakeSeed()
	}
	var h maphash.Hash
	h.SetSeed(bc.seed)
	maphash.WriteComparable(&h, [3]uint16{p.nLdc, p.maxStack, p.maxLocals})
	for _, c := range bc.calls[p.calls.off:] {
		maphash.WriteComparable(&h, c)
	}
	h.Write(bc.code[p.code.off:])
	for _, s := range bc.sites[p.sites.off:] {
		maphash.WriteComparable(&h, s)
	}
	for _, l := range bc.lines[p.lines.off:] {
		maphash.WriteComparable(&h, l)
	}
	sum := h.Sum64()
	if i, ok := bc.byHash[sum]; ok && bc.equal(bc.payloads[i], p) {
		bc.calls, bc.code = bc.calls[:p.calls.off], bc.code[:p.code.off]
		bc.sites, bc.lines = bc.sites[:p.sites.off], bc.lines[:p.lines.off]
		return i
	}
	bc.byHash[sum] = int32(len(bc.payloads))
	bc.payloads = append(bc.payloads, p)
	return int32(len(bc.payloads) - 1)
}

func (bc *bodyCache) equal(p, q payload) bool {
	return p.nLdc == q.nLdc && p.maxStack == q.maxStack && p.maxLocals == q.maxLocals &&
		slices.Equal(bc.calls[p.calls.off:p.calls.end], bc.calls[q.calls.off:q.calls.end]) &&
		bytes.Equal(bc.code[p.code.off:p.code.end], bc.code[q.code.off:q.code.end]) &&
		slices.Equal(bc.sites[p.sites.off:p.sites.end], bc.sites[q.sites.off:q.sites.end]) &&
		slices.Equal(bc.lines[p.lines.off:p.lines.end], bc.lines[q.lines.off:q.lines.end])
}

// replay lowers m's body from the recorded entry e: it makes the
// payload's pool calls against f's pool, copies its code to the code
// buffer and patches the pool operands there. ok is false, with the
// calls made but nothing else emitted, when an ldc's index changed
// width; lowering the body afresh then makes the same calls, which find
// their constants already interned.
func (ctx *LowerCtx) replay(f *classfile.File, c *Class, m *Method, e *bodyEntry) (attr *classfile.CodeAttr, ok bool) {
	bc := &ctx.bodies
	p := &bc.payloads[e.payload]
	calls := bc.calls[p.calls.off:p.calls.end]
	idx := bc.indexTable(len(calls))
	for i := range calls {
		idx[i], _ = calls[i].apply(f.Pool, c.OrigPool)
	}
	sites := bc.sites[p.sites.off:p.sites.end]
	for _, s := range sites[:p.nLdc] {
		switch v := idx[s.call]; {
		case s.width == siteLdc && v > 0xFF, s.width == siteLdcW && v <= 0xFF:
			return nil, false
		}
	}
	code := ctx.codeBuf(int(p.code.end - p.code.off))
	copy(code, bc.code[p.code.off:p.code.end])
	for _, s := range sites {
		if s.width == siteLdc {
			code[s.at] = byte(idx[s.call])
		} else {
			binary.BigEndian.PutUint16(code[s.at:], idx[s.call])
		}
	}
	attr = ctx.codes.Put(classfile.CodeAttr{MaxStack: p.maxStack, MaxLocals: p.maxLocals, Code: code})
	if lines := bc.lines[p.lines.off:p.lines.end]; len(lines) > 0 {
		lnt := ctx.lines.Put(classfile.LineNumberTableAttr{Entries: append(ctx.lineEnts.Run(len(lines)), lines...)})
		attr.Attributes = append(ctx.attrs.Run(1), lnt)
	}
	ctx.copyHandlers(attr, f, c, m)
	return attr, true
}
