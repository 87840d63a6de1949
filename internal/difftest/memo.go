package difftest

import (
	"bytes"
	"sync"

	"repro/internal/analysis"
	"repro/internal/jvm"
	"repro/internal/rtlib"
	"repro/internal/telemetry"
)

// vmIdent identifies a VM for memoization purposes: the full spec
// (name, nominal release, every policy knob) plus the library release
// actually bound (they differ under NewSharedEnvRunner). Outcomes are
// pure functions of (class bytes, policy, library release), so equal
// idents may share outcomes across lineups and sessions.
type vmIdent struct {
	spec jvm.Spec
	env  rtlib.Release
}

func memoIdent(vm *jvm.VM) vmIdent {
	return vmIdent{spec: vm.Spec, env: vm.Env.Release}
}

// memoClass is one distinct classfile's cache line: the exact bytes
// (for collision confirmation) and the outcomes recorded so far per VM
// identity.
type memoClass struct {
	data     []byte
	outcomes map[vmIdent]jvm.Outcome
}

// OutcomeMemo caches differential outcomes keyed by
// analysis.ContentFingerprint(class bytes) × vmIdent. Classes bucket by
// the 64-bit content fingerprint and are confirmed by byte equality —
// the same bucket-then-confirm discipline as the coverage suite's
// trace keying — so a fingerprint collision can cost an extra compare,
// never a reused wrong outcome.
//
// One memo may be shared by any number of Runners and goroutines (a
// single mutex guards the maps; lookups are trivial next to a VM
// execution). experiments.Session attaches one memo to all of its
// differential evaluations, so a class shared between campaign suites
// executes once per VM ever. Entries reference the caller's class
// bytes; they are never mutated.
type OutcomeMemo struct {
	mu      sync.Mutex
	buckets map[uint64][]*memoClass
	reg     *telemetry.Registry
	tel     memoTel
}

// Metric names of the memo's cross-runner traffic and contents. The
// names are disjoint from the Runner's difftest.memo.probes/hits so a
// merged roll-up never conflates one runner's view with the shared
// memo's global totals.
const (
	// MetricMemoLookupHits / Misses count lookups across every attached
	// Runner.
	MetricMemoLookupHits   = "difftest.memo.lookup_hits"
	MetricMemoLookupMisses = "difftest.memo.lookup_misses"
	// MetricMemoDistinctClasses gauges distinct classfiles seen;
	// MetricMemoCachedOutcomes gauges cached (class, VM) outcomes.
	MetricMemoDistinctClasses = "difftest.memo.distinct_classes"
	MetricMemoCachedOutcomes  = "difftest.memo.cached_outcomes"
)

type memoTel struct {
	hits     *telemetry.Counter
	misses   *telemetry.Counter
	classes  *telemetry.Gauge
	outcomes *telemetry.Gauge
}

func newMemoTel(reg *telemetry.Registry) memoTel {
	return memoTel{
		hits:     reg.Counter(MetricMemoLookupHits),
		misses:   reg.Counter(MetricMemoLookupMisses),
		classes:  reg.Gauge(MetricMemoDistinctClasses),
		outcomes: reg.Gauge(MetricMemoCachedOutcomes),
	}
}

// NewOutcomeMemo returns an empty memo reporting into a private
// registry (read via Stats; redirect with UseTelemetry).
func NewOutcomeMemo() *OutcomeMemo {
	m := &OutcomeMemo{buckets: make(map[uint64][]*memoClass, 256), reg: telemetry.New()}
	m.tel = newMemoTel(m.reg)
	return m
}

// UseTelemetry rebinds the memo's difftest.memo.* metrics to an
// external registry. Existing tallies stay in the old registry; the
// contents gauges are re-seeded so the new registry reflects the
// current cache.
func (m *OutcomeMemo) UseTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reg = reg
	m.tel = newMemoTel(reg)
	classes, outcomes := 0, 0
	for _, bucket := range m.buckets {
		classes += len(bucket)
		for _, c := range bucket {
			outcomes += len(c.outcomes)
		}
	}
	m.tel.classes.Set(int64(classes))
	m.tel.outcomes.Set(int64(outcomes))
}

// classLocked finds or creates the cache line for exact class bytes;
// the caller holds m.mu.
func (m *OutcomeMemo) classLocked(fp uint64, data []byte) *memoClass {
	for _, c := range m.buckets[fp] {
		if bytes.Equal(c.data, data) {
			return c
		}
	}
	c := &memoClass{data: data, outcomes: make(map[vmIdent]jvm.Outcome, 8)}
	m.buckets[fp] = append(m.buckets[fp], c)
	m.tel.classes.Add(1)
	return c
}

// probeLine is one class's memo state as an evaluation's probe found
// it: its cache line and the earliest class of the call sharing that
// line (the class itself for a first occurrence).
type probeLine struct {
	c     *memoClass
	first int
	fp    uint64 // content fingerprint, computed before the lock
}

// probe is the memo half of every evaluation: one lock acquisition
// resolves the cache line of each class into lines and copies the
// outcomes the lineup vms already have into outs, instead of a lock
// round-trip per (class, VM). outs and hits are indexed i*len(vms)+k
// for class i on vms[k]. A repeat — a class whose line an earlier class
// of the call already holds — counts every lookup as a hit, because the
// evaluation serves it from that earlier class. Fingerprints are
// computed before taking the lock: they dominate the probe's cost and
// need no shared state.
func (m *OutcomeMemo) probe(classes [][]byte, vms []*jvm.VM, lines []probeLine, outs []jvm.Outcome, hits []bool) {
	for i, data := range classes {
		lines[i].fp = analysis.ContentFingerprint(data)
	}
	var seen map[*memoClass]int
	if len(classes) > 1 {
		seen = make(map[*memoClass]int, len(classes))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, data := range classes {
		c := m.classLocked(lines[i].fp, data)
		lines[i].c, lines[i].first = c, i
		if j, ok := seen[c]; ok {
			lines[i].first = j
			m.tel.hits.Add(int64(len(vms)))
			continue
		}
		if seen != nil {
			seen[c] = i
		}
		for k, vm := range vms {
			o, ok := c.outcomes[memoIdent(vm)]
			if ok {
				m.tel.hits.Inc()
			} else {
				m.tel.misses.Inc()
			}
			outs[i*len(vms)+k], hits[i*len(vms)+k] = o, ok
		}
	}
}

// store records the outcomes of one class's lineup run that the probe
// did not find cached. Two Runners sharing the memo may race to store
// the same class; outcomes are pure, so last-write-wins is harmless.
func (m *OutcomeMemo) store(c *memoClass, vms []*jvm.VM, outs []jvm.Outcome, hits []bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, vm := range vms {
		if hits[k] {
			continue
		}
		id := memoIdent(vm)
		if _, ok := c.outcomes[id]; !ok {
			m.tel.outcomes.Add(1)
		}
		c.outcomes[id] = outs[k]
	}
}

// Stats snapshots the memo's difftest.memo.* metrics: lookup_hits /
// lookup_misses counters and distinct_classes / cached_outcomes
// gauges. (The former MemoStats struct is gone — read the named values
// off the snapshot.)
func (m *OutcomeMemo) Stats() telemetry.Snapshot {
	m.mu.Lock()
	reg := m.reg
	m.mu.Unlock()
	return reg.Snapshot()
}

// MemoHitRate derives hits/(hits+misses) from a snapshot carrying the
// memo lookup counters (0 when idle).
func MemoHitRate(s telemetry.Snapshot) float64 {
	h, m := s.Counter(MetricMemoLookupHits), s.Counter(MetricMemoLookupMisses)
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
