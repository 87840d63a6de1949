package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"

	"repro/internal/analysis"
	"repro/internal/coverage"
	"repro/internal/jimple"
	"repro/internal/jvm"
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
// function of (config, seed corpus, draw log, per-iteration outcomes),
// so Resume re-derives it: committed mutants are rebuilt via the
// Rebuild lineage walk, accepted ones re-execute on the reference VM to
// recover their traces, and the selector chain replays the recorded
// draw/commit interleaving. The in-flight window (Committed..Drawn-1)
// simply re-enters the pipeline from its recorded draw records.
//
// A snapshot captured at a coordinator boundary always satisfies
// Committed == max(0, Drawn−Lookahead) (mid-pipeline) or
// Committed == Drawn == Iterations (finished): the engine never lets a
// draw observe commits newer than its lookahead window, so a "fully
// drained" state mid-campaign does not exist and is not a valid resume
// point.
//
// The one non-invariant across a kill/resume pair is the static
// prefilter's trace cache, which restarts cold: PrefilterStats.Skipped
// vs .Executed may split differently after a resume (their sum, and
// every acceptance decision, stay identical). The Prefilter field
// carries the counters as of the snapshot so totals remain meaningful.
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
	// the snapshot (absent for stateless sources). Restore re-derives
	// the state by replaying the committed prefix into the fresh source
	// and cross-checks it against this copy.
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
// which Resume checks against the rebuilt bytes.
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

// Final blocks until the run finishes and returns its last resume-safe
// snapshot: the Stop boundary for a stopped run, the completed state
// otherwise.
func (c *Control) Final() *Snapshot {
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.final
}

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
//
// On a resumed engine that is still re-filling its in-flight window,
// the recorded-but-not-yet-redrawn remainder of that window is
// appended to the draw log: those iterations' proposals were consumed
// from the selector chain during restore, so omitting them would leave
// a snapshot whose fresh re-draws diverge. With them included, a
// mid-refill snapshot is exactly the boundary the engine resumed from.
func (e *engine) snapshot() *Snapshot {
	cfg := &e.cfg
	draws := append([]DrawRecord(nil), e.res.Draws...)
	if consumed := e.drawn - e.startIter; consumed < len(e.resumeDraws) {
		draws = append(draws, e.resumeDraws[consumed:]...)
	}
	s := &Snapshot{
		Version:         SnapshotVersion,
		Algorithm:       cfg.Algorithm,
		Criterion:       cfg.Criterion,
		Iterations:      cfg.Iterations,
		Rand:            cfg.Rand,
		Lookahead:       e.lookahead,
		P:               e.effectiveP(),
		NoSeedRecycling: cfg.NoSeedRecycling,
		RefSpec:         cfg.RefSpec.Name,
		SeedCount:       len(e.seeds),
		SeedDigest:      e.seedCorpusDigest(),
		SeedStrategy:    e.src.Strategy(),
		Drawn:           len(draws),
		Committed:       e.committed,
		Draws:           draws,
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
// seed, budget, lookahead, reference spec and seed corpus); the
// restore re-derives every piece of engine state and fails loudly on
// any divergence, so a corrupt or mismatched snapshot cannot silently
// fork the run. The resumed campaign's accepted suite, draw log and
// difftest behaviour are byte-identical to the uninterrupted run's at
// any worker count.
func Resume(cfg Config, snap *Snapshot) (*Engine, error) {
	if err := validateStaged(cfg); err != nil {
		return nil, err
	}
	e := newEngine(cfg)
	if err := e.validateSnapshot(snap); err != nil {
		return nil, err
	}
	if err := e.restore(snap); err != nil {
		return nil, err
	}
	return &Engine{e: e}, nil
}

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
	if snap.Lookahead != e.lookahead {
		return fail("lookahead", snap.Lookahead, e.lookahead)
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
	for i, rec := range snap.Draws {
		if rec.Iter != i {
			return fmt.Errorf("campaign: snapshot draw log record %d carries iter %d", i, rec.Iter)
		}
	}
	for k, ge := range snap.Gens {
		if ge.Iter < 0 || ge.Iter >= len(snap.Draws) {
			return fmt.Errorf("campaign: snapshot gen log entry %d names iteration %d outside the draw log (%d records)", k, ge.Iter, len(snap.Draws))
		}
	}
	return nil
}

// rebuiltGen is one committed iteration's re-derived mutant.
type rebuiltGen struct {
	class *jimple.Class
	data  []byte
}

// rebuildCommitted re-derives the mutant model and bytes for committed
// generated iterations, walking the gen log in order so each parent
// (always an accepted earlier iteration, or a seed) is available when
// its children need it. Accepted iterations are always rebuilt; the
// rest only when the config keeps their bytes or models. Each iteration
// takes Rebuild's regeneration step once, so shared parents are not
// re-derived per descendant.
func (e *engine) rebuildCommitted(snap *Snapshot) (map[int]*rebuiltGen, error) {
	cfg := &e.cfg
	keepAll := cfg.KeepClasses || cfg.KeepGenBytes
	out := make(map[int]*rebuiltGen, len(snap.Gens))
	g := regen{rand: cfg.Rand, seeds: e.seeds, muts: e.muts, accepted: make(map[int]*jimple.Class, len(snap.Gens))}
	for _, ge := range snap.Gens {
		if !ge.Accepted && !keepAll {
			continue
		}
		mutant, data, err := g.step(snap.Draws[ge.Iter])
		if err != nil {
			return nil, err
		}
		out[ge.Iter] = &rebuiltGen{class: mutant, data: data}
		if ge.Accepted {
			g.accepted[ge.Iter] = mutant
		}
	}
	return out, nil
}

// restore rebuilds the full engine state the snapshot summarises:
// seed pool and seed traces, the committed prefix's suite/pool/selector
// evolution (replaying the exact draw/commit interleaving the
// coordinator used, so the MCMC chain state matches bit-for-bit), and
// the in-flight window, which run() will re-process from its recorded
// draw records.
func (e *engine) restore(snap *Snapshot) error {
	cfg := &e.cfg
	e.initSeedState()
	e.res = &Result{
		Algorithm:  cfg.Algorithm,
		Criterion:  cfg.Criterion,
		Iterations: cfg.Iterations,
		Draws:      make([]DrawRecord, 0, cfg.Iterations),
		Workers:    cfg.workers(),
		Lookahead:  e.lookahead,
	}
	e.res.Draws = append(e.res.Draws, snap.Draws[:snap.Committed]...)

	rebuilt, err := e.rebuildCommitted(snap)
	if err != nil {
		return err
	}

	// Reference VM for recovering accepted mutants' traces. Trace keys
	// are probe-interning-order dependent and deliberately absent from
	// the snapshot; re-execution yields traces identical (as sets) to
	// the original process's, which is all the suite compares.
	var vm *jvm.VM
	var rec *coverage.Recorder
	if e.coverageDirected {
		vm = jvm.New(cfg.RefSpec)
		rec = coverage.NewRecorder(jvm.ProbeRegistry())
		vm.SetRecorder(rec)
	}

	genCursor := 0
	commitSim := func(j int) error {
		dr := snap.Draws[j]
		e.tel.committed.Inc()
		if !dr.Generated {
			e.tel.failures.Inc()
			e.src.Observe(dr.PoolIndex, false, false)
			e.selector.Record(dr.MutatorID, false)
			return nil
		}
		if genCursor >= len(snap.Gens) || snap.Gens[genCursor].Iter != j {
			return fmt.Errorf("campaign: snapshot gen log out of step at iteration %d", j)
		}
		ge := snap.Gens[genCursor]
		genCursor++
		e.tel.generated.Inc()
		stats := coverage.Stats{Stmts: ge.Stmts, Branches: ge.Branches}
		gc := &GenClass{Iter: j, Name: mutantName(j), MutatorID: dr.MutatorID, Stats: stats, Accepted: ge.Accepted}
		if e.coverageDirected {
			e.genStats.AddStats(stats)
		}
		if rg := rebuilt[j]; rg != nil {
			if cfg.KeepClasses {
				gc.Class = rg.class
			}
			if cfg.KeepClasses || cfg.KeepGenBytes || ge.Accepted {
				gc.Data = rg.data
			}
		}
		e.res.Gen = append(e.res.Gen, gc)
		if ge.Accepted {
			rg := rebuilt[j]
			if fp := analysis.ContentFingerprint(rg.data); fp != ge.Fp {
				return fmt.Errorf("campaign: rebuilt bytes of iteration %d fingerprint %x, snapshot recorded %x", j, fp, ge.Fp)
			}
			if e.coverageDirected {
				rec.Reset()
				vm.Run(rg.data)
				tr := rec.Trace()
				if tr.Stats() != stats {
					return fmt.Errorf("campaign: re-executed iteration %d covers %+v, snapshot recorded %+v", j, tr.Stats(), stats)
				}
				e.mergedCov = coverage.Merge(e.mergedCov, tr)
				switch cfg.Algorithm {
				case Greedyfuzz:
					e.greedyUnion = coverage.Merge(e.greedyUnion, tr)
				default:
					e.suite.Add(tr)
				}
			}
			e.res.Test = append(e.res.Test, gc)
			if !cfg.NoSeedRecycling {
				e.pool = append(e.pool, poolEntry{class: rebuilt[j].class, iter: j})
				e.src.Grew(len(e.pool)-1, dr.PoolIndex)
			}
			e.tel.accepts.Inc()
		}
		e.src.Observe(dr.PoolIndex, true, ge.Accepted)
		e.selector.Record(dr.MutatorID, ge.Accepted)
		return nil
	}

	// Replay the coordinator's exact interleaving — commit(i−D) before
	// draw(i) — so the selector chain sees Next/Record in the order the
	// original process issued them. Draw replay verifies each recorded
	// pool index and mutator proposal; any divergence means the
	// snapshot does not describe this campaign.
	D := e.lookahead
	for i := 0; i < snap.Drawn; i++ {
		if j := i - D; j >= 0 && j < snap.Committed {
			if err := commitSim(j); err != nil {
				return err
			}
		}
		dr := snap.Draws[i]
		rng := drawRNG(cfg.Rand, i)
		idx := e.src.Pick(rng, len(e.pool))
		if idx != dr.PoolIndex {
			return fmt.Errorf("campaign: replayed draw %d picks pool index %d, snapshot recorded %d", i, idx, dr.PoolIndex)
		}
		if e.pool[idx].iter != dr.Parent {
			return fmt.Errorf("campaign: replayed draw %d pool entry from iteration %d, snapshot recorded parent %d", i, e.pool[idx].iter, dr.Parent)
		}
		if mu := e.selector.Next(rng); mu != dr.MutatorID {
			return fmt.Errorf("campaign: replayed draw %d proposes mutator %d, snapshot recorded %d", i, mu, dr.MutatorID)
		}
		e.tel.iterations.Inc()
	}
	// Tail commits (only a finished snapshot has any).
	for j := snap.Drawn - D; j < snap.Committed; j++ {
		if j < 0 {
			continue
		}
		if err := commitSim(j); err != nil {
			return err
		}
	}
	if genCursor != len(snap.Gens) {
		return fmt.Errorf("campaign: snapshot gen log has %d unconsumed entries", len(snap.Gens)-genCursor)
	}

	// The replayed source must land exactly on the snapshot's scheduler
	// state. Compare compacted: checkpoint writers may re-indent the
	// nested raw message, which must not fail a faithful replay.
	if len(snap.SeedSched) > 0 {
		st, err := e.src.MarshalState()
		if err != nil {
			return fmt.Errorf("campaign: serializing replayed seed-scheduler state: %w", err)
		}
		var got, want bytes.Buffer
		if err := json.Compact(&got, st); err != nil {
			return fmt.Errorf("campaign: replayed seed-scheduler state: %w", err)
		}
		if err := json.Compact(&want, snap.SeedSched); err != nil {
			return fmt.Errorf("campaign: snapshot seed-scheduler state: %w", err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			return fmt.Errorf("campaign: replayed seed-scheduler state diverges from snapshot")
		}
	}

	// Carry the prefilter counters forward so post-resume PrefilterStats
	// remain cumulative (the trace cache itself restarts cold — see the
	// Snapshot doc comment).
	if snap.Prefilter != nil && e.pf != nil {
		e.tel.pfChecked.Add(int64(snap.Prefilter.Checked))
		e.tel.pfDoomed.Add(int64(snap.Prefilter.Doomed))
		e.tel.pfVerify.Add(int64(snap.Prefilter.VerifyDoomed))
		e.tel.pfSkipped.Add(int64(snap.Prefilter.Skipped))
		e.tel.pfExecuted.Add(int64(snap.Prefilter.Executed))
	}

	e.genLog = append([]GenEntry(nil), snap.Gens...)
	e.resumeDraws = append([]DrawRecord(nil), snap.Draws[snap.Committed:]...)
	e.startIter = snap.Committed
	e.drawn = snap.Committed
	e.committed = snap.Committed
	e.resumed = true
	return nil
}
