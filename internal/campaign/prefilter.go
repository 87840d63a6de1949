package campaign

import (
	"sync"

	"repro/internal/analysis"
	"repro/internal/classfile"
	"repro/internal/coverage"
	"repro/internal/jvm"
	"repro/internal/rtlib"
)

// verifyBandTag separates the verify band's trace-cache keyspace from
// the load band's: the load band keys entries by the structural
// skeleton hash (analysis.Fingerprint), the verify band by the
// masked-content hash (analysis.VerifyFingerprint) XORed with this
// constant, so the two hash families cannot alias each other's
// entries in the shared cache.
const verifyBandTag = 0x9e3779b97f4a7c15

// prefilter caches reference-VM coverage traces for statically doomed
// mutants, keyed per band by a fingerprint whose equality implies
// trace equality:
//
//   - load band: a structural-skeleton hash (analysis.Fingerprint).
//     Loading reads only the skeleton and never consults the library
//     environment, the RNG or interpreter state, so skeleton-equal
//     files produce byte-identical load traces.
//   - verify band: a masked raw-byte hash (analysis.VerifyFingerprint)
//     for mutants the oracle definitely rejects during linking. The
//     whole run is a pure function of the bytes, the (fixed) policy
//     and the (fixed) environment; masking only the self-name — which
//     the VM reads solely through intra-file equality and the validity
//     bits hashed into the key — keeps that function constant across
//     key-equal files. Mutants recur modulo the iteration-derived
//     class name far more often than byte-identically, hence the mask.
//
// The cache is *versioned* so its behaviour is deterministic under the
// worker pool: an entry inserted by iteration j's commit is visible
// only to iterations i with j ≤ i−Lookahead. Those commits happen
// before draw(i) on the sequential coordinator, so visibility depends
// only on iteration numbers — never on which worker ran what when. A
// doomed mutant whose fingerprint was seeded inside the window executes
// redundantly (exactly as it would at workers=1), which costs a little
// throughput but keeps the Skipped/Executed counters bit-identical at
// any worker count.
// Savings tallies (the old stats field) live in the engine's telemetry
// counters — campaign.prefilter.* — and surface as Result.Prefilter.
type prefilter struct {
	spec jvm.Spec
	env  *rtlib.Env

	mu    sync.RWMutex
	cache map[uint64]prefilterEntry

	// verdicts memoizes the verify band's link-reject predicate by the
	// band-tagged VerifyFingerprint. The predicate is a pure function
	// of the masked bytes, so entries computed by any worker in any
	// order are interchangeable — the memo affects cost, never
	// outcomes, and needs no versioning.
	vmu      sync.Mutex
	verdicts map[uint64]bool

	// vmemo, the injected Config.VerifyMemo (may be nil), memoises the
	// band's per-method dataflow fixpoints below the whole-class
	// verdicts map: a class that misses on its masked fingerprint
	// (every generation renames the mutant) still reuses the lineage's
	// verdicts for untouched methods. Like verdicts it is a
	// pure-function cache — content-addressed keys, no versioning
	// needed.
	vmemo *jvm.VerifyMemo
}

type prefilterEntry struct {
	trace *coverage.Trace
	iter  int // iteration whose commit inserted the entry
}

func newPrefilter(spec jvm.Spec) *prefilter {
	return &prefilter{
		spec:     spec,
		env:      rtlib.NewEnv(spec.Release),
		cache:    make(map[uint64]prefilterEntry),
		verdicts: make(map[uint64]bool),
	}
}

// lookup returns the cached trace for fp if it was committed by an
// iteration ≤ maxIter. Called from workers.
func (pf *prefilter) lookup(fp uint64, maxIter int) (*coverage.Trace, bool) {
	pf.mu.RLock()
	defer pf.mu.RUnlock()
	e, ok := pf.cache[fp]
	if !ok || e.iter > maxIter {
		return nil, false
	}
	return e.trace, true
}

// insert records iteration iter's executed trace for fp. Called from
// the sequential commit stage, in iteration order, so the first
// executor of a fingerprint wins deterministically.
func (pf *prefilter) insert(fp uint64, tr *coverage.Trace, iter int) {
	pf.mu.Lock()
	defer pf.mu.Unlock()
	if _, ok := pf.cache[fp]; !ok {
		pf.cache[fp] = prefilterEntry{trace: tr, iter: iter}
	}
}

// verifyReject reports whether the oracle definitely rejects f during
// linking (hierarchy, resolution, §4.10 verification), memoized by the
// band-tagged VerifyFingerprint vfp. Called from workers.
func (pf *prefilter) verifyReject(f *classfile.File, vfp uint64) bool {
	pf.vmu.Lock()
	v, ok := pf.verdicts[vfp]
	pf.vmu.Unlock()
	if ok {
		return v
	}
	v = analysis.VerifyRejectMemo(f, pf.spec, pf.env, pf.vmemo) != nil
	pf.vmu.Lock()
	pf.verdicts[vfp] = v
	pf.vmu.Unlock()
	return v
}
