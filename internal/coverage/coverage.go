// Package coverage implements the execution-trace machinery of the
// paper's §2.2.3: recording which statements and branches of the
// reference JVM a classfile exercises, comparing coverage statistics,
// merging tracefiles (the ⊕ operator), and the three uniqueness
// criteria [st], [stbr] and [tr] that decide whether a mutant is
// "representative" with respect to an existing test suite.
//
// Probes are interned once through a Registry into dense integer
// indices; the hot path (one recorder increment per probe hit, many
// thousands per reference-VM run) is a bounds-checked slice increment
// with zero allocations, and traces are plain bitsets compared and
// merged a machine word at a time.
package coverage

import (
	"fmt"
	"math/bits"
)

// Recorder collects probe hits during one execution of the reference
// JVM. Counters are flat slices over the registry's dense index space;
// a dirty list of touched indices makes Reset O(hits) rather than
// O(capacity), so recycling a recorder across a campaign's stream of
// mutants costs only as much as the probes the last mutant actually hit.
type Recorder struct {
	reg       *Registry
	stmt      []uint32 // hit counts per statement index
	edge      []uint32 // hit counts per branch-edge index (2 per branch)
	dirtyStmt []uint32 // statement indices with nonzero counts
	dirtyEdge []uint32 // edge indices with nonzero counts
}

// NewRecorder returns an empty recorder over the registry's probe
// space. The recorder grows automatically if probes are interned after
// its creation.
func NewRecorder(reg *Registry) *Recorder {
	return &Recorder{
		reg:  reg,
		stmt: make([]uint32, reg.NumStmts()),
		edge: make([]uint32, 2*reg.NumBranches()),
	}
}

// Registry returns the probe registry the recorder records against.
func (r *Recorder) Registry() *Registry { return r.reg }

// Stmt records one execution of the statement probe id.
func (r *Recorder) Stmt(id StmtID) {
	if r == nil {
		return
	}
	if int(id) >= len(r.stmt) {
		r.stmt = append(r.stmt, make([]uint32, int(id)+1-len(r.stmt))...)
	}
	if r.stmt[id] == 0 {
		r.dirtyStmt = append(r.dirtyStmt, uint32(id))
	}
	r.stmt[id]++
}

// Branch records one execution of a two-way branch probe; the taken
// direction distinguishes the two edges.
func (r *Recorder) Branch(id BranchID, taken bool) {
	if r == nil {
		return
	}
	e := 2 * uint32(id)
	if !taken {
		e++
	}
	if int(e) >= len(r.edge) {
		r.edge = append(r.edge, make([]uint32, int(e)+1-len(r.edge))...)
	}
	if r.edge[e] == 0 {
		r.dirtyEdge = append(r.dirtyEdge, e)
	}
	r.edge[e]++
}

// Reset clears all recorded hits so the recorder can serve another run.
// Only the dirty indices are touched.
func (r *Recorder) Reset() {
	for _, i := range r.dirtyStmt {
		r.stmt[i] = 0
	}
	for _, e := range r.dirtyEdge {
		r.edge[e] = 0
	}
	r.dirtyStmt = r.dirtyStmt[:0]
	r.dirtyEdge = r.dirtyEdge[:0]
}

// HitSets copies out the sets of statement and branch-edge indices with
// nonzero counts, in hit order. The returned slices are the caller's to
// keep — they do not alias the recorder's dirty lists, so a later Reset
// or further recording cannot mutate them.
func (r *Recorder) HitSets() (stmts, edges []uint32) {
	if len(r.dirtyStmt) > 0 {
		stmts = append([]uint32(nil), r.dirtyStmt...)
	}
	if len(r.dirtyEdge) > 0 {
		edges = append([]uint32(nil), r.dirtyEdge...)
	}
	return stmts, edges
}

// ReplayHits marks every listed statement and branch-edge index as hit
// once, as if the probes had fired live. Counts are set-preserving, not
// count-preserving — Trace and the uniqueness criteria only read sets,
// so a replayed recorder snapshots the identical trace.
func (r *Recorder) ReplayHits(stmts, edges []uint32) {
	if r == nil {
		return
	}
	for _, i := range stmts {
		r.Stmt(StmtID(i))
	}
	for _, e := range edges {
		r.Branch(BranchID(e/2), e%2 == 0)
	}
}

// Trace snapshots the recorder into an immutable tracefile.
func (r *Recorder) Trace() *Trace {
	t := &Trace{}
	for _, i := range r.dirtyStmt {
		t.setStmt(StmtID(i))
	}
	for _, e := range r.dirtyEdge {
		t.setEdge(e)
	}
	return t
}

// Trace is a tracefile tr_cl: the sets of statement and branch-edge
// probes a classfile hit on the reference JVM, stored as bitsets over
// the registry's dense index space. Execution order and frequencies are
// deliberately omitted, exactly as the paper's [tr] criterion specifies
// ("statically different"). Traces are immutable after construction;
// trailing zero words are insignificant, so traces snapshotted at
// different registry sizes compare correctly.
type Trace struct {
	stmts []uint64
	edges []uint64

	key   Key
	keyed bool
}

// NewTrace returns an empty trace (the identity element of Merge).
func NewTrace() *Trace { return &Trace{} }

func setBit(w []uint64, i uint32) []uint64 {
	word := int(i >> 6)
	for word >= len(w) {
		w = append(w, 0)
	}
	w[word] |= 1 << (i & 63)
	return w
}

func (t *Trace) setStmt(id StmtID) { t.stmts = setBit(t.stmts, uint32(id)) }
func (t *Trace) setEdge(e uint32)  { t.edges = setBit(t.edges, e) }

// HasStmt reports whether the trace covers the statement probe.
func (t *Trace) HasStmt(id StmtID) bool {
	w := int(id >> 6)
	return w < len(t.stmts) && t.stmts[w]&(1<<(id&63)) != 0
}

// HasEdge reports whether the trace covers the given edge of a branch
// probe.
func (t *Trace) HasEdge(id BranchID, taken bool) bool {
	e := 2 * uint32(id)
	if !taken {
		e++
	}
	w := int(e >> 6)
	return w < len(t.edges) && t.edges[w]&(1<<(e&63)) != 0
}

// StmtIDs returns the covered statement indices in ascending order.
func (t *Trace) StmtIDs() []StmtID {
	out := make([]StmtID, 0, popcount(t.stmts))
	for wi, w := range t.stmts {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, StmtID(wi*64+b))
			w &= w - 1
		}
	}
	return out
}

// EdgeIDs returns the covered branch-edge indices in ascending order.
func (t *Trace) EdgeIDs() []uint32 {
	out := make([]uint32, 0, popcount(t.edges))
	for wi, w := range t.edges {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, uint32(wi*64+b))
			w &= w - 1
		}
	}
	return out
}

// Stats are the scalar coverage statistics tr.stmt / tr.br used by the
// [st] and [stbr] criteria (e.g. "4,938/2,604" in the paper).
type Stats struct {
	Stmts    int
	Branches int
}

// String renders stats in the paper's stmt/branch form.
func (s Stats) String() string { return fmt.Sprintf("%d/%d", s.Stmts, s.Branches) }

func popcount(w []uint64) int {
	n := 0
	for _, x := range w {
		n += bits.OnesCount64(x)
	}
	return n
}

// Stats returns the trace's coverage statistics.
func (t *Trace) Stats() Stats {
	return Stats{Stmts: popcount(t.stmts), Branches: popcount(t.edges)}
}

func unionWords(a, b []uint64) []uint64 {
	long, short := a, b
	if len(b) > len(a) {
		long, short = b, a
	}
	out := make([]uint64, len(long))
	copy(out, long)
	for i, w := range short {
		out[i] |= w
	}
	return out
}

// Merge implements the ⊕ operator: the union tracefile, one OR per
// machine word.
func Merge(a, b *Trace) *Trace {
	return &Trace{
		stmts: unionWords(a.stmts, b.stmts),
		edges: unionWords(a.edges, b.edges),
	}
}

func overlapWords(a, b []uint64) int {
	short := a
	if len(b) < len(a) {
		short = b
	}
	n := 0
	for i := range short {
		n += bits.OnesCount64(a[i] & b[i])
	}
	return n
}

func gainWords(a, union []uint64) int {
	n := 0
	for i, w := range a {
		if i < len(union) {
			w &^= union[i]
		}
		n += bits.OnesCount64(w)
	}
	return n
}

// OverlapCount returns |t ∩ o| over both probe sets — the similarity
// measure seed clustering ranks candidate clusters by. One AND +
// popcount per machine word; no allocation.
func (t *Trace) OverlapCount(o *Trace) int {
	return overlapWords(t.stmts, o.stmts) + overlapWords(t.edges, o.edges)
}

// GainOver returns |t \ union| over both probe sets — the marginal
// coverage t would add to the union trace. The greedy distillation
// loop maximises this. One AND-NOT + popcount per machine word; no
// allocation.
func (t *Trace) GainOver(union *Trace) int {
	return gainWords(t.stmts, union.stmts) + gainWords(t.edges, union.edges)
}

func equalWords(a, b []uint64) bool {
	long, short := a, b
	if len(b) > len(a) {
		long, short = b, a
	}
	for i, w := range short {
		if long[i] != w {
			return false
		}
	}
	for _, w := range long[len(short):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// EqualSets reports whether two traces cover exactly the same statement
// and branch sets. By the merge identities this is equivalent to
// tr_a.stmt = tr_b.stmt = (tr_a ⊕ tr_b).stmt ∧ the same for br.
func (t *Trace) EqualSets(o *Trace) bool {
	return equalWords(t.stmts, o.stmts) && equalWords(t.edges, o.edges)
}

// Key is a 128-bit fingerprint of a trace's probe sets. Equal sets
// always produce equal keys (the hash ignores trailing zero words), so
// keys bucket set-identical traces; unequal sets collide only with
// ~2^-128 probability, and every bucket is confirmed by EqualSets
// before a candidate is rejected.
type Key struct{ Hi, Lo uint64 }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
	altOffset = 0x9e3779b97f4a7c15
)

func mix(h, x uint64) uint64 {
	h ^= x
	h *= fnvPrime
	h ^= h >> 29
	return h
}

func hashWords(hi, lo uint64, w []uint64) (uint64, uint64) {
	for i, x := range w {
		if x == 0 {
			continue
		}
		hi = mix(mix(hi, uint64(i)), x)
		lo = mix(mix(lo, x), uint64(i))
	}
	return hi, lo
}

// Key returns the trace's 128-bit set fingerprint, replacing the string
// engine's sorted-join canonical string. The key is computed once and
// cached; traces are immutable so this is safe.
func (t *Trace) Key() Key {
	if !t.keyed {
		hi, lo := hashWords(fnvOffset, altOffset, t.stmts)
		hi = mix(hi, 0x5eed) // domain separator between stmt and edge sets
		lo = mix(lo, 0x5eed)
		hi, lo = hashWords(hi, lo, t.edges)
		t.key = Key{Hi: hi, Lo: lo}
		t.keyed = true
	}
	return t.key
}

// Criterion selects which uniqueness discipline a Suite applies.
type Criterion int

// The three uniqueness criteria of §2.2.3.
const (
	// ST accepts a classfile whose statement-coverage statistic differs
	// from every accepted test's.
	ST Criterion = iota
	// STBR accepts on a unique (statement, branch) statistic pair.
	STBR
	// TR accepts on a statically distinct tracefile (set comparison via
	// the merge operator).
	TR
)

// String returns the paper's bracketed criterion name.
func (c Criterion) String() string {
	switch c {
	case ST:
		return "[st]"
	case STBR:
		return "[stbr]"
	case TR:
		return "[tr]"
	}
	return "[?]"
}

// ParseCriterion maps a flag value — st, stbr or tr — to its criterion.
func ParseCriterion(s string) (Criterion, error) {
	switch s {
	case "st":
		return ST, nil
	case "stbr":
		return STBR, nil
	case "tr":
		return TR, nil
	}
	return 0, fmt.Errorf("coverage: unknown criterion %q (want st|stbr|tr)", s)
}

// Suite tracks the coverage identities of an accepted test suite and
// answers the representativeness question for candidates.
type Suite struct {
	criterion Criterion
	stmtSeen  map[int]bool
	pairSeen  map[Stats]bool
	// byKey buckets full traces by stats pair and then by 128-bit set
	// fingerprint, so the [tr] criterion set-compares a candidate only
	// against the (almost always zero or one) stored traces whose
	// fingerprint matches.
	byKey map[Stats]map[Key][]*Trace
	size  int
}

// NewSuite returns an empty suite using the given criterion.
func NewSuite(c Criterion) *Suite {
	return &Suite{
		criterion: c,
		stmtSeen:  make(map[int]bool),
		pairSeen:  make(map[Stats]bool),
		byKey:     make(map[Stats]map[Key][]*Trace),
	}
}

// Criterion returns the suite's uniqueness discipline.
func (s *Suite) Criterion() Criterion { return s.criterion }

// Size returns how many traces have been accepted.
func (s *Suite) Size() int { return s.size }

// Unique reports whether tr is representative w.r.t. the accepted tests
// under the suite's criterion, without modifying the suite.
func (s *Suite) Unique(tr *Trace) bool {
	st := tr.Stats()
	switch s.criterion {
	case ST:
		return !s.stmtSeen[st.Stmts]
	case STBR:
		return !s.pairSeen[st]
	case TR:
		for _, prev := range s.byKey[st][tr.Key()] {
			if tr.EqualSets(prev) {
				return false
			}
		}
		return true
	}
	return false
}

// Add commits tr to the suite (callers normally Add only after Unique
// returned true, but Add is idempotent in effect either way).
func (s *Suite) Add(tr *Trace) {
	st := tr.Stats()
	s.stmtSeen[st.Stmts] = true
	s.pairSeen[st] = true
	bucket := s.byKey[st]
	if bucket == nil {
		bucket = make(map[Key][]*Trace)
		s.byKey[st] = bucket
	}
	k := tr.Key()
	bucket[k] = append(bucket[k], tr)
	s.size++
}

// AddStats commits a statistic pair without its trace. The campaign's
// census of generated classes uses this ([st]/[stbr] decisions and
// UniqueStatsCount depend only on the pair); a [tr]-criterion suite
// needs full traces via Add, since its Unique compares trace sets.
func (s *Suite) AddStats(st Stats) {
	s.stmtSeen[st.Stmts] = true
	s.pairSeen[st] = true
	s.size++
}

// UniqueStatsCount returns how many distinct (stmt, branch) statistic
// pairs the suite's traces exhibit — the metric the paper reports for
// comparing GenClasses sets (e.g. "898 unique coverage statistics").
func (s *Suite) UniqueStatsCount() int { return len(s.pairSeen) }
