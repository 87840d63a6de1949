package jvm

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/classfile"
	"repro/internal/coverage"
	"repro/internal/rtlib"
	"repro/internal/telemetry"
)

// VerifyIdent identifies one verification context: the full spec (every
// policy knob) and the library release actually bound. Verify verdicts
// are pure functions of (method key, ident), so equal idents may share
// verdicts across classes, lineups, sessions and callers: a campaign's
// reference VM and the static oracle (analysis.VerifyRejectMemo) run the
// same verifier, so they share one key space.
type VerifyIdent struct {
	Spec Spec
	Env  rtlib.Release
}

// VerifyID is a VerifyIdent interned by one VerifyMemo (Intern): equal
// idents get equal IDs, so an entry keys on a small integer instead of
// a copy of the whole Spec. An ID means nothing to any other memo. The
// zero ID is never issued.
type VerifyID uint32

// Metric names of the method-verification memo. Like the difftest
// engine's counters these are diagnostics, not oracle inputs: under
// parallel evaluation the hit/miss split depends on scheduling (two
// workers may race to verify the same key), while outcomes and traces
// stay deterministic because entries are content-addressed and pure.
const (
	MetricVerifyMemoHits   = "jvm.verify.method_memo.hit"
	MetricVerifyMemoMisses = "jvm.verify.method_memo.miss"
	MetricVerifyMemoUnsafe = "jvm.verify.method_memo.unsafe_fallback"
)

// verifyMemoTel is the registry the memo reports into and its interned
// counters, swapped as one value by UseTelemetry.
type verifyMemoTel struct {
	reg    *telemetry.Registry
	hits   *telemetry.Counter
	misses *telemetry.Counter
	unsafe *telemetry.Counter
}

func newVerifyMemoTel(reg *telemetry.Registry) *verifyMemoTel {
	return &verifyMemoTel{
		reg:    reg,
		hits:   reg.Counter(MetricVerifyMemoHits),
		misses: reg.Counter(MetricVerifyMemoMisses),
		unsafe: reg.Counter(MetricVerifyMemoUnsafe),
	}
}

type verifyMemoKey struct {
	id  VerifyID
	key MethodKey
}

// verifyEntry is one memoised verdict. Entries are immutable after
// insertion — the probe sets are never appended to and the outcome is
// copied out on every hit — so a shared entry can be read without
// holding the memo lock.
type verifyEntry struct {
	ok        bool
	out       Outcome // the rejection when !ok
	hasProbes bool
	stmts     []uint32
	edges     []uint32
}

// VerifyMemo memoises per-method verification verdicts across mutant
// generations, keyed by MethodKey × VerifyIdent. Each ident is interned
// once to a VerifyID, so an entry's key is that ID plus the method key
// rather than a copy of the whole Spec. One memo may be shared by any
// number of VMs and goroutines: a single mutex guards the maps, and the
// hit/miss counters sit outside it.
//
// Entries computed under an attached coverage recorder also carry the
// verifier's probe footprint (as hit sets), so a hit replays the exact
// statement/branch sets a live run would have recorded and campaign
// traces stay byte-identical. Recorder-attached VMs only accept entries
// that carry probes; entries a recorder-less VM stored (a difftest
// lineup) read as misses there and are upgraded on the re-run.
type VerifyMemo struct {
	tel atomic.Pointer[verifyMemoTel]

	mu  sync.Mutex
	ids map[VerifyIdent]VerifyID
	m   map[verifyMemoKey]*verifyEntry
}

// NewVerifyMemo returns an empty memo reporting into a private registry
// (read via Stats; redirect with UseTelemetry).
func NewVerifyMemo() *VerifyMemo {
	m := &VerifyMemo{ids: make(map[VerifyIdent]VerifyID), m: make(map[verifyMemoKey]*verifyEntry, 256)}
	m.tel.Store(newVerifyMemoTel(telemetry.New()))
	return m
}

// UseTelemetry rebinds the memo's jvm.verify.method_memo.* counters to
// an external registry. Existing tallies stay in the old registry.
func (m *VerifyMemo) UseTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	m.tel.Store(newVerifyMemoTel(reg))
}

// Stats snapshots the memo's counters.
func (m *VerifyMemo) Stats() telemetry.Snapshot {
	return m.tel.Load().reg.Snapshot()
}

// Len returns the number of memoised verdicts.
func (m *VerifyMemo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// Intern returns the memo's ID for id, issuing one on first sight.
func (m *VerifyMemo) Intern(id VerifyIdent) VerifyID {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.ids[id]
	if !ok {
		v = VerifyID(len(m.ids) + 1)
		m.ids[id] = v
	}
	return v
}

// probe is the locked lookup. needProbes demands an entry carrying a
// probe footprint (recorder-attached VMs); entries without one read as
// misses there so the caller re-verifies and upgrades the entry.
func (m *VerifyMemo) probe(id VerifyID, key MethodKey, needProbes bool) (verifyEntry, bool) {
	m.mu.Lock()
	e := m.m[verifyMemoKey{id: id, key: key}]
	m.mu.Unlock()
	tel := m.tel.Load()
	if e == nil || (needProbes && !e.hasProbes) {
		tel.misses.Inc()
		return verifyEntry{}, false
	}
	tel.hits.Inc()
	return *e, true
}

// store inserts a verdict. Duplicate stores from racing workers carry
// identical content (keys are content-addressed and verifiers pure);
// an entry with probes is never downgraded to one without.
func (m *VerifyMemo) store(id VerifyID, key MethodKey, selfName string, out *Outcome, stmts, edges []uint32, hasProbes bool) {
	if out != nil && selfName != "" && strings.Contains(out.Message, selfName) {
		// The rejection text names the class under test; memoising it
		// would replay the parent's name into a child's outcome. Skip —
		// the key stays correct, only this message is lineage-bound.
		m.tel.Load().unsafe.Inc()
		return
	}
	e := &verifyEntry{ok: out == nil, hasProbes: hasProbes, stmts: stmts, edges: edges}
	if out != nil {
		e.out = *out
	}
	k := verifyMemoKey{id: id, key: key}
	m.mu.Lock()
	if old, ok := m.m[k]; !ok || (!old.hasProbes && hasProbes) {
		m.m[k] = e
	}
	m.mu.Unlock()
}

// verifyMethodMemo is the memoised path behind verifyMethod: probe the
// shared memo, replay the stored probe footprint on a hit, and capture
// the verifier's probes into a per-VM scratch recorder on a miss so the
// entry can serve recorder-attached VMs later.
func (vm *VM) verifyMethodMemo(ex *execState, m *classfile.Member) *Outcome {
	memo := vm.verifyMemo
	if memo == nil {
		return vm.runVerifier(ex, m)
	}
	if ex.vkey == nil {
		ex.vkey = NewVerifyKeyCtx(ex.f, vm.Env)
	}
	key, ok := ex.vkey.Key(m)
	if !ok {
		return vm.runVerifier(ex, m)
	}
	if vm.verifyID == 0 {
		vm.verifyID = memo.Intern(VerifyIdent{Spec: vm.Spec, Env: vm.Env.Release})
	}
	id := vm.verifyID
	if e, hit := memo.probe(id, key, vm.cov != nil); hit {
		vm.cov.ReplayHits(e.stmts, e.edges)
		if e.ok {
			return nil
		}
		out := e.out
		return &out
	}
	if vm.cov == nil {
		out := vm.runVerifier(ex, m)
		memo.store(id, key, ex.name, out, nil, nil, false)
		return out
	}
	// Swap in the scratch recorder for the duration of the verifier run:
	// every probe it fires (enter/ok/rejected, the dataflow's branch
	// probes, the interned verify.err.* statement) funnels through
	// vm.cov, so the captured hit sets are exactly the footprint a
	// replay must reproduce.
	if vm.vcap == nil {
		vm.vcap = coverage.NewRecorder(probes)
	}
	real := vm.cov
	vm.cov = vm.vcap
	out := vm.runVerifier(ex, m)
	stmts, edges := vm.vcap.HitSets()
	vm.vcap.Reset()
	vm.cov = real
	vm.cov.ReplayHits(stmts, edges)
	memo.store(id, key, ex.name, out, stmts, edges, true)
	return out
}

// ShareVerifyMemo attaches one memo to every VM of a lineup.
func ShareVerifyMemo(vms []*VM, m *VerifyMemo) {
	for _, vm := range vms {
		vm.SetVerifyMemo(m)
	}
}
