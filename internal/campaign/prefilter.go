package campaign

import (
	"sync"

	"repro/internal/coverage"
)

// verifyBandTag separates the verify band's trace-cache keyspace from
// the load band's: the load band keys entries by the structural
// skeleton hash (analysis.Fingerprint), the verify band by the
// masked-content hash (analysis.VerifyFingerprint) XORed with this
// constant, so the two hash families cannot alias each other's
// entries in the shared cache.
const verifyBandTag = 0x9e3779b97f4a7c15

// band is a generated mutant's prefilter class.
type band uint8

const (
	bandNone   band = iota // unclassified: no prefilter
	bandClean              // linked: a definite link-accept
	bandLoad               // rejected in the load step
	bandVerify             // rejected in the link step
)

// prefilter caches reference-VM coverage traces for doomed mutants —
// those the reference VM rejects during loading or linking — keyed per
// band by a fingerprint whose equality implies trace equality:
//
//   - load band: a structural-skeleton hash (analysis.Fingerprint).
//     Loading reads only the skeleton and never consults the library
//     environment, the RNG or interpreter state, so skeleton-equal
//     files produce byte-identical load traces.
//   - verify band: a masked raw-byte hash (analysis.VerifyFingerprint)
//     for mutants the reference VM rejects during linking. The whole
//     run is a pure function of the bytes, the (fixed) policy and the
//     (fixed) environment; masking only the self-name — which the VM
//     reads solely through intra-file equality and the validity bits
//     hashed into the key — keeps that function constant across
//     key-equal files. Mutants recur modulo the iteration-derived
//     class name far more often than byte-identically, hence the mask.
//
// A mutant's band is the reference run's own verdict: the VM step that
// rejected it (jvm.VM.RejectStep). No static analysis runs per mutant.
// A fingerprint hit implies the band, since a fingerprint-equal file
// takes the same path to the same rejection; a miss runs the VM, which
// classifies the mutant and, at commit, seeds the cache.
//
// The cache is *versioned* so its behaviour is deterministic under the
// worker pool: an entry inserted by iteration j's commit is visible
// only to iterations i with j ≤ i−Lookahead. Those commits happen
// before draw(i) in the sequential draw/commit order, so visibility depends
// only on iteration numbers — never on which worker ran what when. A
// doomed mutant whose fingerprint was seeded inside the window executes
// redundantly (exactly as it would at workers=1), which costs a little
// throughput but keeps the Skipped/Executed counters bit-identical at
// any worker count. Savings tallies live in the engine's telemetry
// counters — campaign.prefilter.* — and surface as Result.Prefilter.
type prefilter struct {
	mu    sync.RWMutex
	cache map[uint64]prefilterEntry
}

type prefilterEntry struct {
	trace *coverage.Trace
	iter  int // iteration whose commit inserted the entry
}

func newPrefilter() *prefilter {
	return &prefilter{cache: make(map[uint64]prefilterEntry)}
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
