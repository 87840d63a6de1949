package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"

	"repro/internal/coverage"
	"repro/internal/jimple"
	"repro/internal/mcmc"
)

// SnapshotVersion is the on-disk format version of Snapshot. Bump it
// whenever a field changes meaning; Resume refuses other versions.
// Version 2 added the seed-selection strategy and its serialized
// scheduler state (the SeedSource redesign).
const SnapshotVersion = 2

// Snapshot is a resume-safe image of a running campaign, captured at a
// coordinator boundary: Drawn iterations have entered the pipeline (the
// draw log records all of them) and Committed ≤ Drawn of those have
// committed. It deliberately contains no mutant bytes, no coverage
// traces and no MCMC chain state — all of that is a deterministic
// function of (config, seed corpus, boundary), so Resume recomputes it
// by running the campaign's prefix again through the engine's own
// stages, and keeps the rest of the snapshot — draw log, gen log,
// scheduler state, prefilter counts — as the witness that replay must
// match. The in-flight window (Committed..Drawn-1) is drawn by the
// replay and processed by the resumed run's workers.
//
// A snapshot captured at a coordinator boundary always satisfies
// Committed == max(0, Drawn−Lookahead) (mid-pipeline) or
// Committed == Drawn == Iterations (finished): the engine never lets a
// draw observe commits newer than its lookahead window, so a "fully
// drained" state mid-campaign does not exist and is not a valid resume
// point. Resume refuses a snapshot that satisfies neither, or whose
// in-flight window holds a draw marked Generated.
type Snapshot struct {
	Version   int       `json:"version"`
	Algorithm Algorithm `json:"algorithm"`
	// Criterion is the coverage.Criterion ordinal.
	Criterion  coverage.Criterion `json:"criterion"`
	Iterations int                `json:"iterations"`
	Rand       int64              `json:"rand"`
	Lookahead  int                `json:"lookahead"`
	// P is the effective MCMC geometric parameter (the default already
	// substituted), zero for non-MCMC selectors.
	P               float64 `json:"p,omitempty"`
	NoSeedRecycling bool    `json:"no_seed_recycling,omitempty"`
	RefSpec         string  `json:"ref_spec"`
	// SeedCount and SeedDigest pin the seed corpus: Resume recomputes
	// the digest over the models it was handed and refuses a mismatch,
	// since every rebuilt lineage bottoms out in a seed.
	SeedCount  int    `json:"seed_count"`
	SeedDigest uint64 `json:"seed_digest"`
	// SeedStrategy pins the SeedSource policy ("uniform", "clustered",
	// "yield"); Resume refuses a config whose source names another.
	SeedStrategy string `json:"seed_strategy"`
	// SeedSched carries the source's serialized scheduler state as of
	// the snapshot (absent for stateless sources). Resume re-derives
	// the state by replaying the prefix into the fresh source and
	// cross-checks it against this copy.
	SeedSched json.RawMessage `json:"seed_sched,omitempty"`

	Drawn     int `json:"drawn"`
	Committed int `json:"committed"`
	// Draws is the draw log for iterations 0..Drawn-1. Records at index
	// ≥ Committed are the in-flight window.
	Draws []DrawRecord `json:"draws"`
	// Gens records the committed generated iterations in commit order
	// (a subsequence of 0..Committed-1).
	Gens []GenEntry `json:"gens"`
	// Prefilter carries the prefilter counters as of the snapshot, when
	// the campaign ran with StaticPrefilter.
	Prefilter *PrefilterStats `json:"prefilter,omitempty"`
}

// GenEntry is one committed, generated iteration's outcome in a
// Snapshot: its coverage statistic, the acceptance decision, and — for
// accepted mutants — the content fingerprint of the classfile bytes,
// which Resume checks against the replayed bytes.
type GenEntry struct {
	Iter     int    `json:"iter"`
	Stmts    int    `json:"stmts,omitempty"`
	Branches int    `json:"branches,omitempty"`
	Accepted bool   `json:"accepted,omitempty"`
	Fp       uint64 `json:"fp,omitempty"`
}

// ctrlReq is one Snapshot/Stop request travelling to the coordinator.
type ctrlReq struct {
	stop  bool
	reply chan *Snapshot
}

// Control is the live handle onto a running engine. Attach one via
// Config.Control before the run starts; requests are serviced at the
// top of each coordinator iteration, so a snapshot costs at most one
// in-flight window of latency and never perturbs results. A Control
// serves exactly one engine run.
type Control struct {
	reqs   chan ctrlReq
	done   chan struct{}
	stopAt int

	mu    sync.Mutex
	final *Snapshot
}

// NewControl returns a control handle for one engine run.
func NewControl() *Control {
	return &Control{reqs: make(chan ctrlReq), done: make(chan struct{}), stopAt: -1}
}

// StopAt arranges a deterministic stop at the coordinator boundary
// before iteration i is drawn (useful for reproducible checkpoint
// tests). It must be called before the engine runs.
func (c *Control) StopAt(i int) { c.stopAt = i }

// Snapshot captures a resume-safe snapshot of the running campaign.
// After the run has finished it returns the final snapshot.
func (c *Control) Snapshot() *Snapshot { return c.request(false) }

// Stop asks the engine to stop drawing, returning the snapshot at the
// stop boundary — the resume point. The engine then drains its
// in-flight window and Run returns a partial Result (Stopped = true).
func (c *Control) Stop() *Snapshot { return c.request(true) }

func (c *Control) request(stop bool) *Snapshot {
	req := ctrlReq{stop: stop, reply: make(chan *Snapshot, 1)}
	select {
	case c.reqs <- req:
		return <-req.reply
	case <-c.done:
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.final
	}
}

// finish publishes the final snapshot and releases all waiters.
func (c *Control) finish(s *Snapshot) {
	c.mu.Lock()
	c.final = s
	c.mu.Unlock()
	close(c.done)
}

// serviceControl handles pending control requests at the coordinator
// boundary before iteration i (drawn == i). It reports whether the
// engine should stop drawing.
func (e *engine) serviceControl(i int) bool {
	c := e.ctrl
	if c == nil {
		return false
	}
	stop := c.stopAt >= 0 && i == c.stopAt
	for {
		select {
		case req := <-c.reqs:
			snap := e.snapshot()
			if req.stop {
				stop = true
			}
			req.reply <- snap
		default:
			if stop && e.stopSnap == nil {
				e.stopSnap = e.snapshot()
			}
			return stop
		}
	}
}

// snapshot captures the engine's state at the current coordinator
// boundary. Coordinator-goroutine only.
func (e *engine) snapshot() *Snapshot {
	cfg := &e.cfg
	s := &Snapshot{
		Version:         SnapshotVersion,
		Algorithm:       cfg.Algorithm,
		Criterion:       cfg.Criterion,
		Iterations:      cfg.Iterations,
		Rand:            cfg.Rand,
		Lookahead:       DefaultLookahead,
		P:               e.effectiveP(),
		NoSeedRecycling: cfg.NoSeedRecycling,
		RefSpec:         cfg.RefSpec.Name,
		SeedCount:       len(e.seeds),
		SeedDigest:      e.seedCorpusDigest(),
		SeedStrategy:    e.src.Strategy(),
		Drawn:           e.drawn,
		Committed:       e.committed,
		Draws:           append([]DrawRecord(nil), e.res.Draws...),
		Gens:            append([]GenEntry(nil), e.genLog...),
	}
	if e.pf != nil {
		pf := e.tel.prefilterStats()
		s.Prefilter = &pf
	}
	if st, err := e.src.MarshalState(); err == nil && len(st) > 0 {
		s.SeedSched = json.RawMessage(st)
	}
	return s
}

// effectiveP is the MCMC geometric parameter actually in use (zero for
// the uniform selectors).
func (e *engine) effectiveP() float64 {
	if e.cfg.Algorithm != Classfuzz {
		return 0
	}
	if e.cfg.P == 0 {
		return mcmc.DefaultP(len(e.muts))
	}
	return e.cfg.P
}

// seedCorpusDigest hashes the seed corpus (via its canonical printed
// form, which is deterministic and total) so Resume can refuse a
// corpus that drifted from the one the snapshot was taken under.
func (e *engine) seedCorpusDigest() uint64 {
	if e.seedDigest == 0 {
		e.seedDigest = SeedDigest(e.seeds)
	}
	return e.seedDigest
}

// SeedDigest fingerprints a seed corpus in order. Two corpora digest
// equal iff every seed's canonical jimple form matches.
func SeedDigest(seeds []*jimple.Class) uint64 {
	h := fnv.New64a()
	for _, s := range seeds {
		h.Write([]byte(jimple.Print(s)))
		h.Write([]byte{0})
	}
	d := h.Sum64()
	if d == 0 {
		d = 1 // reserve 0 for "not yet computed"
	}
	return d
}

// Engine is an explicitly-managed campaign run: construct with
// NewEngine (fresh) or Resume (from a Snapshot), then call Run once.
// campaign.Run remains the one-shot convenience wrapper.
type Engine struct {
	e   *engine
	ran bool
}

// NewEngine validates cfg and prepares a staged-engine run (every
// algorithm except bytefuzz, whose byte-pool loop has no draw log to
// checkpoint).
func NewEngine(cfg Config) (*Engine, error) {
	if err := validateStaged(cfg); err != nil {
		return nil, err
	}
	return &Engine{e: newEngine(cfg)}, nil
}

// Run executes the campaign (or its remainder, after Resume). An
// Engine runs exactly once.
func (en *Engine) Run() (*Result, error) {
	if en.ran {
		return nil, fmt.Errorf("campaign: engine already ran")
	}
	en.ran = true
	return en.e.run()
}

func validateStaged(cfg Config) error {
	if len(cfg.seedCorpus()) == 0 {
		return fmt.Errorf("campaign: no seeds")
	}
	if cfg.Iterations <= 0 {
		return fmt.Errorf("campaign: non-positive iteration budget")
	}
	switch cfg.Algorithm {
	case Classfuzz, Randfuzz, Greedyfuzz, Uniquefuzz:
		return nil
	case Bytefuzz:
		return fmt.Errorf("campaign: bytefuzz has no staged engine (no draw log to checkpoint)")
	default:
		return fmt.Errorf("campaign: unknown algorithm %q", cfg.Algorithm)
	}
}

// Resume reconstructs a running campaign from a Snapshot and returns
// an Engine whose Run completes it. cfg must describe the same
// campaign the snapshot was taken from (same algorithm, criterion,
// seed, budget, lookahead, reference spec and seed corpus). In
// Algorithm 1 an iteration's acceptance depends only on the reference
// run and the suite earlier iterations built, so the snapshot's prefix
// is a function of the config: Resume runs it again through the
// engine's own stages and refuses the snapshot unless the replay's
// boundary snapshot equals it, so a corrupt or mismatched snapshot
// cannot silently fork the run. The replay counts into a private
// registry, added to cfg.Telemetry only once it has matched. The
// resumed campaign — accepted suite, draw log, prefilter counts,
// difftest behaviour — is identical to the uninterrupted run's at any
// worker count.
func Resume(cfg Config, snap *Snapshot) (*Engine, error) {
	if err := validateStaged(cfg); err != nil {
		return nil, err
	}
	detached := cfg
	detached.Telemetry, detached.Observer, detached.Control = nil, nil, nil
	e := newEngine(detached)
	if err := e.validateSnapshot(snap); err != nil {
		return nil, err
	}
	// The replay holds this engine run's seed pass; time it where a
	// fresh run's would land.
	e.tel.seeds = cfg.Telemetry.Histogram("campaign.stage.seeds_ns")
	e.replay(snap.Drawn, snap.Committed)
	if err := e.snapshot().match(snap); err != nil {
		return nil, err
	}
	replayed := e.tel.reg
	e.bind(cfg)
	e.tel.reg.Merge(replayed)
	e.resumed = true
	return &Engine{e: e}, nil
}

// validateSnapshot runs the checks that need no replay: format
// version, the config echo, the seed corpus, the coordinator boundary
// and the draw log's shape.
func (e *engine) validateSnapshot(snap *Snapshot) error {
	cfg := &e.cfg
	fail := func(field string, snapV, cfgV any) error {
		return fmt.Errorf("campaign: snapshot/config mismatch on %s: snapshot %v, config %v", field, snapV, cfgV)
	}
	if snap.Version != SnapshotVersion {
		return fmt.Errorf("campaign: snapshot version %d, this build reads %d", snap.Version, SnapshotVersion)
	}
	if snap.Algorithm != cfg.Algorithm {
		return fail("algorithm", snap.Algorithm, cfg.Algorithm)
	}
	if snap.Criterion != cfg.Criterion {
		return fail("criterion", snap.Criterion, cfg.Criterion)
	}
	if snap.Iterations != cfg.Iterations {
		return fail("iterations", snap.Iterations, cfg.Iterations)
	}
	if snap.Rand != cfg.Rand {
		return fail("rand", snap.Rand, cfg.Rand)
	}
	if snap.Lookahead != DefaultLookahead {
		return fail("lookahead", snap.Lookahead, DefaultLookahead)
	}
	if snap.P != e.effectiveP() {
		return fail("p", snap.P, e.effectiveP())
	}
	if snap.NoSeedRecycling != cfg.NoSeedRecycling {
		return fail("no_seed_recycling", snap.NoSeedRecycling, cfg.NoSeedRecycling)
	}
	if snap.RefSpec != cfg.RefSpec.Name {
		return fail("ref_spec", snap.RefSpec, cfg.RefSpec.Name)
	}
	if snap.SeedCount != len(e.seeds) {
		return fail("seed_count", snap.SeedCount, len(e.seeds))
	}
	if d := e.seedCorpusDigest(); snap.SeedDigest != d {
		return fail("seed_digest", snap.SeedDigest, d)
	}
	if snap.SeedStrategy != e.src.Strategy() {
		return fail("seed_strategy", snap.SeedStrategy, e.src.Strategy())
	}
	if snap.Drawn < 0 || snap.Drawn > snap.Iterations {
		return fmt.Errorf("campaign: snapshot drawn %d outside budget %d", snap.Drawn, snap.Iterations)
	}
	if snap.Committed < 0 || snap.Committed > snap.Drawn {
		return fmt.Errorf("campaign: snapshot committed %d outside drawn %d", snap.Committed, snap.Drawn)
	}
	if len(snap.Draws) != snap.Drawn {
		return fmt.Errorf("campaign: snapshot draw log has %d records, drawn %d", len(snap.Draws), snap.Drawn)
	}
	finished := snap.Committed == snap.Drawn && snap.Drawn == snap.Iterations
	if want := max(0, snap.Drawn-DefaultLookahead); snap.Committed != want && !finished {
		return fmt.Errorf("campaign: snapshot committed %d of %d drawn is no coordinator boundary (want %d, or a finished run)", snap.Committed, snap.Drawn, want)
	}
	for i, rec := range snap.Draws {
		if rec.Iter != i {
			return fmt.Errorf("campaign: snapshot draw log record %d carries iter %d", i, rec.Iter)
		}
		if i >= snap.Committed && rec.Generated {
			return fmt.Errorf("campaign: snapshot in-flight draw %d is marked generated", i)
		}
	}
	return nil
}

// replay runs the campaign's first drawn draws and committed commits
// through the engine's own stages, sequentially on one worker scratch,
// in the coordinator's order: commit(i−D) before draw(i). A committed
// iteration is processed at its commit. The trace cache then holds
// entries up to the previous iteration, but a lookup sees only those
// committed Lookahead iterations earlier (prefilterLookup), which is
// exactly what the worker saw; so the replayed cache, and every count,
// is the snapshotted run's. The in-flight window is drawn but not
// processed: it waits in pending for run's workers.
func (e *engine) replay(drawn, committed int) {
	e.initSeedState()
	ws := e.newScratch()
	commit := func() {
		t := e.pending[0]
		e.pending = e.pending[1:]
		e.process(t, ws)
		e.commit(t)
		e.recycle(t)
	}
	for i := 0; i < drawn; i++ {
		if i >= DefaultLookahead {
			commit()
		}
		t := e.getTask()
		e.draw(i, t)
		e.pending = append(e.pending, t)
	}
	for e.committed < committed {
		commit()
	}
}

// match compares a replay's boundary snapshot with the stored one it
// replayed, whose config echo and boundary validateSnapshot already
// checked, and names the first field and iteration that differ.
func (got *Snapshot) match(want *Snapshot) error {
	fail := func(where string, w, g any) error {
		return fmt.Errorf("campaign: snapshot diverges from its replay at %s: snapshot %+v, replay %+v", where, w, g)
	}
	for i, w := range want.Draws {
		if g := got.Draws[i]; g != w {
			return fail(fmt.Sprintf("draws[%d]", i), w, g)
		}
	}
	for k := 0; k < len(got.Gens) || k < len(want.Gens); k++ {
		var w, g *GenEntry
		iter := -1
		if k < len(got.Gens) {
			g = &got.Gens[k]
			iter = g.Iter
		}
		if k < len(want.Gens) {
			w = &want.Gens[k]
			iter = w.Iter
		}
		if w == nil || g == nil || *w != *g {
			return fail(fmt.Sprintf("gens[%d] (iteration %d)", k, iter), w, g)
		}
	}
	if w, g := compactJSON(want.SeedSched), compactJSON(got.SeedSched); !bytes.Equal(w, g) {
		return fail("seed_sched", string(w), string(g))
	}
	if !reflect.DeepEqual(want.Prefilter, got.Prefilter) {
		return fail("prefilter", want.Prefilter, got.Prefilter)
	}
	return nil
}

// compactJSON strips insignificant whitespace, so a checkpoint writer
// that re-indents the nested raw scheduler state still matches; bytes
// that do not parse come back as they are.
func compactJSON(b []byte) []byte {
	var buf bytes.Buffer
	if json.Compact(&buf, b) != nil {
		return b
	}
	return buf.Bytes()
}
