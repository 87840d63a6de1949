package campaign

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/classfile"
	"repro/internal/coverage"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/mcmc"
	"repro/internal/mutation"
	"repro/internal/prng"
	"repro/internal/telemetry"
)

// poolEntry is one seed-pool member: an original seed (iter == -1) or
// an accepted mutant tagged with the iteration that produced it.
type poolEntry struct {
	class *jimple.Class
	iter  int
}

// task carries one iteration through the pipeline. Draw fills the input
// fields; the one worker that receives the task fills the output
// fields; commit reads both. Ownership passes along without overlap —
// the drawing goroutine until its send on the dispatch channel, the
// receiving worker until it marks the task's window slot finished,
// the sequencer at commit — and the channel orders the first handoff,
// the slot's atomic flag the second, so no field needs a lock. Each
// task belongs to one slot of the window for the whole campaign: slot s
// carries iterations s, s+D, s+2D…, keeping its class-byte buffer from
// one to the next.
type task struct {
	iter   int
	parent *jimple.Class
	rec    DrawRecord

	// outputs of the mutate/filter/execute stages
	applied  bool // mutator applicable
	lowered  bool // classfile bytes produced
	mutant   *jimple.Class
	data     []byte
	trace    *coverage.Trace
	band     band   // prefilter class of the mutant
	cacheHit bool   // trace served from the prefilter cache
	fp       uint64 // trace-cache key of the band that doomed it

	// dataRetained is set at commit when t.data escaped into the result
	// (accepted bytes, or KeepGenBytes); only an unretained
	// buffer is kept for the task's next iteration.
	dataRetained bool
	// buf is the class-byte buffer recycled from an earlier iteration
	// this task carried (nil when none is free).
	buf []byte
}

// takeBuf hands the serialiser the task's recycled class-byte buffer
// (length 0, capacity from a previous serialisation) or a fresh one.
func (t *task) takeBuf() []byte {
	if buf := t.buf; buf != nil {
		t.buf = nil
		return buf[:0]
	}
	return make([]byte, 0, 1024)
}

// engineTel holds the engine's interned telemetry handles. The count
// handles are always bound (against Config.Telemetry or a private
// registry) and incremented only on the sequential draw/commit path,
// so their values are deterministic at any worker count and
// Result.Prefilter can be derived from them. The stage histograms are
// bound only when an external registry is attached — timing fires
// time.Now on the worker hot path, and a campaign nobody is observing
// should not pay for it.
type engineTel struct {
	reg        *telemetry.Registry
	iterations *telemetry.Counter // campaign.iterations
	generated  *telemetry.Counter // campaign.generated
	failures   *telemetry.Counter // campaign.mutator_failures
	executions *telemetry.Counter // campaign.executions
	accepts    *telemetry.Counter // campaign.accepts
	committed  *telemetry.Counter // campaign.committed
	pfChecked  *telemetry.Counter // campaign.prefilter.checked
	pfDoomed   *telemetry.Counter // campaign.prefilter.doomed
	pfVerify   *telemetry.Counter // campaign.prefilter.verify_doomed
	pfSkipped  *telemetry.Counter // campaign.prefilter.skipped
	pfExecuted *telemetry.Counter // campaign.prefilter.executed
	poolSize   *telemetry.Gauge   // campaign.pool_size

	draw      *telemetry.Histogram // campaign.stage.draw_ns
	mutate    *telemetry.Histogram // campaign.stage.mutate_ns
	prefilter *telemetry.Histogram // campaign.stage.prefilter_ns
	exec      *telemetry.Histogram // campaign.stage.exec_ns
	commit    *telemetry.Histogram // campaign.stage.commit_ns
	seeds     *telemetry.Histogram // campaign.stage.seeds_ns
	idle      *telemetry.Histogram // campaign.stage.idle_ns

	// prefilter counter values at campaign start, so a reused external
	// registry still yields this campaign's own PrefilterStats.
	pfBase [5]int64
}

// nonNilRegistry substitutes a private registry when the caller did
// not attach one, so the deterministic counters always have somewhere
// to land (Result.Prefilter is derived from them).
func nonNilRegistry(reg *telemetry.Registry) *telemetry.Registry {
	if reg == nil {
		return telemetry.New()
	}
	return reg
}

func newEngineTel(reg *telemetry.Registry, timing bool) engineTel {
	t := engineTel{
		reg:        reg,
		iterations: reg.Counter("campaign.iterations"),
		generated:  reg.Counter("campaign.generated"),
		failures:   reg.Counter("campaign.mutator_failures"),
		executions: reg.Counter("campaign.executions"),
		accepts:    reg.Counter("campaign.accepts"),
		committed:  reg.Counter("campaign.committed"),
		pfChecked:  reg.Counter("campaign.prefilter.checked"),
		pfDoomed:   reg.Counter("campaign.prefilter.doomed"),
		pfVerify:   reg.Counter("campaign.prefilter.verify_doomed"),
		pfSkipped:  reg.Counter("campaign.prefilter.skipped"),
		pfExecuted: reg.Counter("campaign.prefilter.executed"),
		poolSize:   reg.Gauge("campaign.pool_size"),
	}
	if timing {
		t.draw = reg.Histogram("campaign.stage.draw_ns")
		t.mutate = reg.Histogram("campaign.stage.mutate_ns")
		t.prefilter = reg.Histogram("campaign.stage.prefilter_ns")
		t.exec = reg.Histogram("campaign.stage.exec_ns")
		t.commit = reg.Histogram("campaign.stage.commit_ns")
		t.seeds = reg.Histogram("campaign.stage.seeds_ns")
		t.idle = reg.Histogram("campaign.stage.idle_ns")
	}
	t.pfBase = [5]int64{t.pfChecked.Load(), t.pfDoomed.Load(), t.pfSkipped.Load(), t.pfExecuted.Load(), t.pfVerify.Load()}
	return t
}

// prefilterStats derives this campaign's savings from the counter
// deltas since newEngineTel.
func (t *engineTel) prefilterStats() PrefilterStats {
	return PrefilterStats{
		Checked:      int(t.pfChecked.Load() - t.pfBase[0]),
		Doomed:       int(t.pfDoomed.Load() - t.pfBase[1]),
		Skipped:      int(t.pfSkipped.Load() - t.pfBase[2]),
		Executed:     int(t.pfExecuted.Load() - t.pfBase[3]),
		VerifyDoomed: int(t.pfVerify.Load() - t.pfBase[4]),
	}
}

type engine struct {
	cfg  Config
	obs  obs
	muts []*mutation.Mutator
	// src is the seed-selection policy; seeds caches its corpus (the
	// pool's prefix and every lineage's bottom).
	src   SeedSource
	seeds []*jimple.Class

	selector         mcmc.Selector
	coverageDirected bool
	suite            *coverage.Suite
	greedyUnion      *coverage.Trace
	genStats         *coverage.Suite
	pool             []poolEntry
	pf               *prefilter

	tel    engineTel
	timing bool // external registry attached: stage + VM timing on

	res *Result

	// drawR is the draw stage's reused draw-stream generator: reseeded
	// per iteration (prng.Reseed), byte-for-byte equivalent to a fresh
	// drawRNG but without reallocating the ~5KB rand source each draw.
	drawR *rand.Rand

	// The pipeline window (see run). ring holds the D tasks, one per
	// slot; finished[s] is set by the worker that processed slot s's
	// task and cleared at its commit; tasks dispatches drawn tasks to
	// the workers; seq is the sequencer's lock.
	ring     [DefaultLookahead]task
	finished [DefaultLookahead]atomic.Bool
	tasks    chan *task
	seq      atomic.Bool

	// drawn and committed count the iterations that entered the
	// pipeline and those that committed; they change only in the first
	// window's draws, before any worker starts, and under seq after.
	// mergedCov is the word-OR of the seed traces and every accepted
	// trace (Result.Coverage).
	drawn     int
	committed int
	stopped   bool
	mergedCov *coverage.Trace
}

func newEngine(cfg Config) *engine {
	e := &engine{
		cfg:              cfg,
		muts:             mutation.Registry(),
		src:              cfg.Source,
		seeds:            cfg.Source.Corpus(),
		coverageDirected: cfg.Algorithm != Randfuzz,
		res: &Result{
			Algorithm:  cfg.Algorithm,
			Criterion:  cfg.Criterion,
			Iterations: cfg.Iterations,
			Draws:      make([]DrawRecord, 0, cfg.Iterations),
			Workers:    cfg.workers(),
			Lookahead:  DefaultLookahead,
		},
	}

	// Mutator selector: classfuzz uses the MCMC chain; everything else
	// selects uniformly. The chain's initial state comes from the
	// campaign's setup stream (Algorithm 1 line 3).
	if cfg.Algorithm == Classfuzz {
		p := cfg.P
		if p == 0 {
			p = mcmc.DefaultP(len(e.muts))
		}
		e.selector = mcmc.NewSampler(len(e.muts), p, initRNG(cfg.Rand))
	} else {
		e.selector = mcmc.NewUniformSampler(len(e.muts))
	}

	// Acceptance state.
	e.suite = coverage.NewSuite(cfg.Criterion)
	if cfg.Algorithm == Uniquefuzz {
		e.suite = coverage.NewSuite(coverage.STBR)
	}
	e.greedyUnion = coverage.NewTrace()
	e.genStats = coverage.NewSuite(coverage.STBR) // counts unique stats over Gen

	if cfg.StaticPrefilter && e.coverageDirected {
		e.pf = newPrefilter()
	}
	// Counts always flow into a registry: the caller's, or a private
	// one Result.Prefilter is derived from. Counts move only on the
	// sequential draw/commit path, so they are deterministic at any
	// worker count; stage timing (the only telemetry touching workers)
	// stays off unless someone attached a registry to observe it.
	e.obs, e.timing = obs{cfg.Observer}, cfg.Telemetry != nil
	e.tel = newEngineTel(nonNilRegistry(cfg.Telemetry), e.timing)
	if sel, ok := e.selector.(*mcmc.Sampler); ok && e.timing {
		// Live per-mutator gauges (same names finalize Sets for the
		// non-MCMC selectors), maintained as the chain draws and
		// records in the sequential draw and commit stages.
		selG := make([]*telemetry.Gauge, len(e.muts))
		succG := make([]*telemetry.Gauge, len(e.muts))
		for i, m := range e.muts {
			selG[i] = cfg.Telemetry.Gauge("campaign.mutator." + m.Name + ".selected")
			succG[i] = cfg.Telemetry.Gauge("campaign.mutator." + m.Name + ".success")
			selG[i].Set(int64(sel.Selected(i)))
			succG[i].Set(int64(sel.Succeeded(i)))
		}
		sel.Instrument(selG, succG)
	}
	// An injected verify memo carries per-method verdicts across the
	// caller's campaigns: a mutant's untouched methods (the generated
	// main, <init>, unmutated seed methods) reuse lineage verdicts
	// instead of re-running the verifier on every generation. Every
	// worker VM shares it.
	if cfg.VerifyMemo != nil && cfg.Telemetry != nil {
		cfg.VerifyMemo.UseTelemetry(cfg.Telemetry)
	}
	return e
}

// initSeedState builds the seed pool and folds the seed traces into
// the acceptance state (Algorithm 1 line 1 initialises TestClasses
// with the seeds, so seed traces participate in uniqueness checks).
// The traces are the source's baselines on the reference spec: the
// source owns the seed pass, and a slice that does not cover the
// corpus is an error.
func (e *engine) initSeedState() error {
	sp := telemetry.StartSpan(e.tel.seeds)
	defer sp.End()
	e.pool = make([]poolEntry, 0, len(e.seeds))
	for _, s := range e.seeds {
		e.pool = append(e.pool, poolEntry{class: s, iter: -1})
	}
	if !e.coverageDirected {
		return nil
	}
	traces := e.src.Baselines(e.cfg.RefSpec)
	if len(traces) != len(e.seeds) {
		return fmt.Errorf("campaign: the seed source has %d baselines for %d seeds", len(traces), len(e.seeds))
	}
	e.foldSeeds(traces)
	return nil
}

// foldSeeds folds the seed traces, in seed order, into the merged
// coverage and the algorithm's acceptance state. Nil traces (seeds
// that do not lower) are skipped.
func (e *engine) foldSeeds(traces []*coverage.Trace) {
	e.mergedCov = coverage.NewTrace()
	for _, tr := range traces {
		if tr == nil {
			continue
		}
		e.mergedCov = coverage.Merge(e.mergedCov, tr)
		switch e.cfg.Algorithm {
		case Greedyfuzz:
			e.greedyUnion = coverage.Merge(e.greedyUnion, tr)
		default:
			if e.suite.Unique(tr) {
				e.suite.Add(tr)
			}
		}
	}
}

func (e *engine) run() (*Result, error) {
	start := time.Now() //detlint:ok Result.Elapsed is reporting-only

	if err := e.initSeedState(); err != nil {
		return nil, err
	}
	e.tel.poolSize.Set(int64(len(e.pool)))

	// The pipeline. Draws and commits follow one fixed interleaving —
	// draw(0..D-1), then commit(i−D); draw(i) for each subsequent i,
	// then the trailing commits — so every draw observes exactly the
	// commits of iterations ≤ i−D however the workers are scheduled. At
	// most D tasks are in flight, hence the window's D slots and the
	// channel's bound. This goroutine draws the first window before any
	// worker starts and then only waits; the workers run
	// mutate/filter/execute, and the one that finds the window's head
	// finished commits it (advance).
	//
	// A closed Config.Stop ends the drawing before the next draw; the
	// drawn window still commits, so a stopped run's draw log and suite
	// are a prefix of the uninterrupted run's.
	e.tasks = make(chan *task, DefaultLookahead)
	for e.drawn < DefaultLookahead && e.drawing() {
		e.dispatch()
	}
	if e.drawn == 0 {
		close(e.tasks)
	}
	var wg sync.WaitGroup
	for range e.cfg.workers() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.work()
		}()
	}
	wg.Wait()

	e.finalize()
	e.res.Elapsed = time.Since(start) //detlint:ok Result.Elapsed is reporting-only
	return e.res, nil
}

// drawing reports whether the next iteration is drawn: the budget has
// room and Config.Stop has not closed. A stop latches, so the draws end
// for good at the first boundary that sees it.
func (e *engine) drawing() bool {
	if e.stopped || e.drawn == e.cfg.Iterations {
		return false
	}
	if stopRequested(e.cfg.Stop) {
		e.stopped = true
		return false
	}
	return true
}

// stopRequested reports whether stop has closed (never, for nil).
func stopRequested(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}

// dispatch draws the next iteration into its window slot and sends the
// task to the workers. The send never blocks: the channel holds only
// drawn, unreceived tasks, and with at most D tasks in flight and the
// slot's previous task committed, fewer than D of them are queued.
func (e *engine) dispatch() {
	t := &e.ring[e.drawn%DefaultLookahead]
	e.draw(e.drawn, t)
	e.tasks <- t
}

// work is one worker: it runs mutate/filter/execute for each task it
// receives against its long-lived scratch, marks the task's slot
// finished and offers to commit. The worker that finishes the last
// iteration of each window yields the processor: nothing else parks a
// CPU-bound worker, and without the yield another goroutine (a daemon's
// HTTP handler) could wait out the scheduler's whole time slice.
func (e *engine) work() {
	ws := e.newScratch()
	for {
		t, ok := e.receive()
		if !ok {
			break
		}
		f := e.process(t, ws)
		if scratchHook != nil {
			scratchHook(ws, f)
		}
		slot := t.iter % DefaultLookahead
		e.finished[slot].Store(true) // t belongs to the sequencer from here
		e.advance()
		if slot == DefaultLookahead-1 {
			runtime.Gosched()
		}
	}
	e.addLowerStats(ws.lctx.Stats())
}

// receive takes the next task off the dispatch channel. With a registry
// attached, a wait on an empty channel that ends in a task — every task
// of the window is running, or finished behind an unfinished head — is
// recorded as campaign.stage.idle_ns; the wait for the close at the end
// is not.
func (e *engine) receive() (*task, bool) {
	select {
	case t, ok := <-e.tasks:
		return t, ok
	default:
	}
	sp := telemetry.StartSpan(e.tel.idle)
	t, ok := <-e.tasks
	if ok {
		sp.End()
	}
	return t, ok
}

// advance is the sequencer: whichever goroutine takes its lock commits
// every finished task at the head of the window, in iteration order,
// and after each commit draws the next iteration into the freed slot.
// The last commit closes the dispatch channel. A goroutine that finds
// the lock taken leaves at once; the holder, after unlocking, looks at
// the head again, so a task finished while the lock was held is not
// left uncommitted. That argument needs the finished flag's store and
// the lock attempt to be sequentially consistent, which Go's atomics
// are and Mutex.TryLock's unsynchronised first read is not, hence an
// atomic flag for the lock. Everything the draw and commit stages
// touch — pool, selector, suite, seed source, draw log, observer — is
// touched only here, or in the first window's draws before any worker
// starts.
func (e *engine) advance() {
	for e.seq.CompareAndSwap(false, true) {
		for e.committed < e.drawn && e.finished[e.committed%DefaultLookahead].Load() {
			slot := e.committed % DefaultLookahead
			e.finished[slot].Store(false)
			t := &e.ring[slot]
			e.commit(t)
			e.recycle(t)
			if e.drawing() {
				e.dispatch()
			} else if e.committed == e.drawn {
				close(e.tasks)
			}
		}
		head, pending := e.committed%DefaultLookahead, e.committed < e.drawn
		e.seq.Store(false)
		if !pending || !e.finished[head].Load() {
			return
		}
	}
}

// recycle clears a committed task for its slot's next iteration,
// keeping its class-byte buffer when the bytes did not escape into the
// result and dropping every other field, so an idle slot pins nothing.
func (e *engine) recycle(t *task) {
	buf := t.buf
	if t.data != nil && !t.dataRetained {
		buf = t.data[:0]
	}
	*t = task{buf: buf}
}

// draw runs the sequential draw stage for iteration i: pick a seed from
// the pool, propose a mutator, log the DrawRecord. State read here
// (pool, selector chain) was last written by commit(i−D).
func (e *engine) draw(i int, t *task) {
	sp := telemetry.StartSpan(e.tel.draw)
	if e.drawR == nil {
		e.drawR = drawRNG(e.cfg.Rand, i)
	} else {
		prng.Reseed(e.drawR, e.cfg.Rand, drawStream, uint64(i))
	}
	rng := e.drawR
	idx := e.src.Pick(rng, len(e.pool))
	pe := e.pool[idx]
	muID := e.selector.Next(rng)
	rec := DrawRecord{Iter: i, PoolIndex: idx, Parent: pe.iter, MutatorID: muID}
	e.res.Draws = append(e.res.Draws, rec)
	e.drawn++
	e.tel.iterations.Inc()
	if e.obs.o != nil {
		e.obs.emit(IterationStarted{Iter: i, PoolIndex: idx, MutatorID: muID})
	}
	sp.End()
	t.iter, t.parent, t.rec = i, pe.class, rec
}

// workerScratch is one worker's long-lived arenas: the instrumented
// reference VM and its recorder, the reusable lowering context, and the
// per-task mutation RNG (reseeded, never reallocated). All of it is
// confined to the owning worker goroutine. The File lctx returns lives
// only until its next Lower, so nothing a task produces may keep it:
// the task's outputs are the mutant, its bytes and its trace, never a
// File.
type workerScratch struct {
	vm   *jvm.VM
	rec  *coverage.Recorder
	rng  *rand.Rand
	lctx *jimple.LowerCtx
}

// newScratch builds one worker's arenas: the reference VM and recorder
// are stateless across runs; the lowering context and mutation RNG are
// reset per task. One set serves the worker's whole stream of tasks
// without sharing anything with its peers.
func (e *engine) newScratch() *workerScratch {
	ws := &workerScratch{
		vm:   jvm.New(e.cfg.RefSpec),
		rec:  coverage.NewRecorder(jvm.ProbeRegistry()),
		lctx: jimple.NewLowerCtx(),
	}
	ws.vm.SetRecorder(ws.rec)
	ws.vm.SetVerifyMemo(e.cfg.VerifyMemo)
	if e.timing {
		// Per-phase reference-VM histograms (jvm.<spec>.phase.*_ns)
		// land in the shared registry next to the stage spans;
		// observe-only like the rest.
		ws.vm.SetTelemetry(e.cfg.Telemetry)
	}
	return ws
}

// addLowerStats adds one worker's body-reuse counts to an attached
// registry. They depend on which worker lowered which mutant, so they
// are diagnostics, like the verify memo's hit counts: no result or
// deterministic counter reads them.
func (e *engine) addLowerStats(st jimple.LowerStats) {
	if e.cfg.Telemetry == nil {
		return
	}
	e.tel.reg.Counter("campaign.lower.body_reused").Add(st.BodiesReused)
	e.tel.reg.Counter("campaign.lower.body_lowered").Add(st.BodiesLowered)
	e.tel.reg.Counter("campaign.lower.width_fallback").Add(st.WidthFallbacks)
}

// scratchHook, when set (by tests only, never while a campaign runs),
// runs on the worker after every task with the worker's scratch and the
// File the task lowered (nil if it lowered none) — the
// scratch-retention test overwrites both there to prove no task keeps
// a File past its end.
var scratchHook func(ws *workerScratch, f *classfile.File)

// mutateRNG returns iteration iter's mutation stream on the worker's
// reused generator — the same stream DeriveRNG builds fresh.
func (ws *workerScratch) mutateRNG(campaignSeed int64, iter int) *rand.Rand {
	if ws.rng == nil {
		ws.rng = DeriveRNG(campaignSeed, iter)
	} else {
		prng.Reseed(ws.rng, campaignSeed, mutateStream, uint64(iter))
	}
	return ws.rng
}

// process runs the mutate/filter/execute stages for one task on a
// worker and returns the File it lowered, if any, which lives only
// until the worker's next task. It touches no engine state except the
// (versioned, locked) prefilter cache; everything else flows through
// the task, its recycled buffer and the worker's scratch.
func (e *engine) process(t *task, ws *workerScratch) *classfile.File {
	spMutate := telemetry.StartSpan(e.tel.mutate)
	rng := ws.mutateRNG(e.cfg.Rand, t.iter)
	mutant := t.parent.Clone() // copy-on-write: Apply owns what it writes
	if !e.muts[t.rec.MutatorID].Apply(mutant, rng) {
		// Soot-style failure: no classfile generated this iteration.
		spMutate.End()
		return nil
	}
	t.applied = true
	finishMutant(mutant, t.iter)
	t.mutant = mutant

	// Lower through the worker's reused context and serialise into the
	// task's recycled buffer (bytes identical to a fresh
	// lower() — only where the scratch lives differs). The bytes are
	// the test output; once written, f equals Parse of them, so f is
	// what the prefilter inspects and the reference VM executes.
	f, err := ws.lctx.Lower(mutant)
	if err != nil {
		spMutate.End()
		return nil
	}
	data, err := f.AppendBytes(t.takeBuf())
	spMutate.End()
	if err != nil {
		return f
	}
	t.lowered = true
	t.data = data

	if !e.coverageDirected {
		return f // randfuzz never runs the reference VM
	}
	var lfp, vfp uint64
	if e.pf != nil {
		var hit bool
		if lfp, vfp, hit = e.prefilterLookup(t, f); hit {
			return f // trace served from the prefilter cache
		}
	}
	spExec := telemetry.StartSpan(e.tel.exec)
	ws.rec.Reset()
	// RunParsed fires the parse probes Run fires on well-formed bytes,
	// so the trace is identical to vm.Run parsing data.
	ws.vm.RunParsed(f)
	t.trace = ws.rec.Trace()
	spExec.End()
	if e.pf != nil {
		// The reference run classifies the mutant by the step that
		// rejected it; commit seeds that band's cache entry.
		switch ws.vm.RejectStep() {
		case jvm.StepLoad:
			t.band, t.fp = bandLoad, lfp
		case jvm.StepLink:
			t.band, t.fp = bandVerify, vfp
		default:
			t.band = bandClean
		}
	}
	return f
}

// prefilterLookup looks the task's written File up in the prefilter
// cache, load band first, and returns both bands' keys. On a hit the
// task takes the cached trace and its band, and the reference VM need
// not run. Only entries committed at least Lookahead iterations ago
// are visible — see prefilter.
func (e *engine) prefilterLookup(t *task, f *classfile.File) (lfp, vfp uint64, hit bool) {
	sp := telemetry.StartSpan(e.tel.prefilter)
	defer sp.End()
	maxIter := t.iter - DefaultLookahead
	lfp = analysis.Fingerprint(f)
	if tr, ok := e.pf.lookup(lfp, maxIter); ok {
		t.band, t.fp, t.trace, t.cacheHit = bandLoad, lfp, tr, true
		return lfp, 0, true
	}
	vfp = analysis.VerifyFingerprint(t.data, f.Name()) ^ verifyBandTag
	if tr, ok := e.pf.lookup(vfp, maxIter); ok {
		t.band, t.fp, t.trace, t.cacheHit = bandVerify, vfp, tr, true
		return lfp, vfp, true
	}
	return lfp, vfp, false
}

// commit runs the sequential commit stage for one task, in iteration
// order: prefilter bookkeeping, the acceptance decision against the
// suite, pool recycling and selector feedback.
func (e *engine) commit(t *task) {
	sp := telemetry.StartSpan(e.tel.commit)
	defer sp.End()
	defer e.tel.committed.Inc()
	e.committed++

	generated := t.applied && t.lowered
	if e.obs.o != nil {
		e.obs.emit(Mutated{Iter: t.iter, MutatorID: t.rec.MutatorID, Applied: generated})
	}
	if !generated {
		e.tel.failures.Inc()
		e.src.Observe(t.rec.PoolIndex, false, false)
		e.selector.Record(t.rec.MutatorID, false)
		if e.obs.o != nil {
			e.obs.emit(SelectorUpdated{Iter: t.iter, MutatorID: t.rec.MutatorID, Success: false})
		}
		return
	}
	e.res.Draws[t.iter].Generated = true
	e.tel.generated.Inc()

	if t.band != bandNone {
		doomed := t.band != bandClean
		e.tel.pfChecked.Inc()
		if doomed {
			e.tel.pfDoomed.Inc()
			if t.band == bandVerify {
				e.tel.pfVerify.Inc()
			}
			if t.cacheHit {
				e.tel.pfSkipped.Inc()
			} else {
				e.tel.pfExecuted.Inc()
				e.pf.insert(t.fp, t.trace, t.iter)
			}
		}
	}
	if e.coverageDirected {
		if !t.cacheHit {
			e.tel.executions.Inc()
		}
		if e.obs.o != nil {
			e.obs.emit(Executed{Iter: t.iter, Skipped: t.cacheHit})
		}
	}

	gc := &GenClass{Iter: t.iter, Name: t.mutant.Name, MutatorID: t.rec.MutatorID}
	if e.coverageDirected {
		gc.Stats = t.trace.Stats()
		e.genStats.AddStats(gc.Stats)
	}
	e.res.Gen = append(e.res.Gen, gc)

	// Acceptance decision.
	accepted := false
	switch e.cfg.Algorithm {
	case Randfuzz:
		accepted = true // every generated classfile is a test
	case Greedyfuzz:
		merged := coverage.Merge(e.greedyUnion, t.trace)
		if merged.Stats() != e.greedyUnion.Stats() {
			e.greedyUnion = merged
			accepted = true
		}
	default: // classfuzz, uniquefuzz
		if e.suite.Unique(t.trace) {
			e.suite.Add(t.trace)
			accepted = true
		}
	}
	if accepted {
		gc.Accepted = true
		gc.Data = t.data
		t.dataRetained = true
		e.res.Test = append(e.res.Test, gc)
		if e.coverageDirected {
			e.mergedCov = coverage.Merge(e.mergedCov, t.trace)
		}
		if !e.cfg.NoSeedRecycling {
			e.pool = append(e.pool, poolEntry{class: t.mutant, iter: t.iter})
			e.src.Grew(len(e.pool)-1, t.rec.PoolIndex)
			e.tel.poolSize.Set(int64(len(e.pool)))
		}
		e.tel.accepts.Inc()
		if e.obs.o != nil {
			e.obs.emit(Accepted{Iter: t.iter, Name: gc.Name, Stats: gc.Stats})
		}
	} else if e.cfg.KeepGenBytes {
		// Unaccepted mutants keep their bytes only on request: dropping
		// them is what bounds campaign RSS at paper scale.
		gc.Data = t.data
		t.dataRetained = true
	}
	e.src.Observe(t.rec.PoolIndex, true, accepted)
	e.selector.Record(t.rec.MutatorID, accepted)
	if e.obs.o != nil {
		e.obs.emit(SelectorUpdated{Iter: t.iter, MutatorID: t.rec.MutatorID, Success: accepted})
	}
}

// finalize derives the summary statistics.
func (e *engine) finalize() {
	res := e.res
	res.GenUniqueStats = e.genStats.UniqueStatsCount()
	res.Drawn = e.drawn
	res.Stopped = e.stopped
	switch {
	case e.cfg.Algorithm == Greedyfuzz:
		res.Coverage = e.greedyUnion
	case e.coverageDirected:
		res.Coverage = e.mergedCov
	}
	if e.pf != nil {
		pf := e.tel.prefilterStats()
		res.Prefilter = &pf
	}
	res.MutatorStats = make([]MutatorStat, len(e.muts))
	for i, m := range e.muts {
		res.MutatorStats[i] = MutatorStat{ID: i, Name: m.Name}
	}
	if sel, ok := e.selector.(*mcmc.Sampler); ok {
		for i := range res.MutatorStats {
			res.MutatorStats[i].Selected = sel.Selected(i)
			res.MutatorStats[i].Success = sel.Succeeded(i)
		}
	} else {
		// Uniform selectors: exact per-mutator tallies from the generated
		// classes (draws whose mutator was inapplicable are not counted,
		// matching how the evaluation attributes frequencies for the
		// unguided algorithms).
		for _, g := range res.Gen {
			res.MutatorStats[g.MutatorID].Selected++
			if g.Accepted {
				res.MutatorStats[g.MutatorID].Success++
			}
		}
	}
	// Final per-mutator gauges (Table 4's signal) for live observers;
	// the MCMC path also maintains them incrementally via Instrument.
	if e.timing {
		for _, st := range res.MutatorStats {
			e.cfg.Telemetry.Gauge("campaign.mutator." + st.Name + ".selected").Set(int64(st.Selected))
			e.cfg.Telemetry.Gauge("campaign.mutator." + st.Name + ".success").Set(int64(st.Success))
		}
	}
}

// mutantName is the deterministic name of iteration iter's mutant.
func mutantName(iter int) string {
	var b [16]byte
	return string(strconv.AppendInt(append(b[:0], 'M'), 1430000000+int64(iter), 10))
}

// standardMain is the main every mutant lacking one receives. It is
// never written: every mutant shares it under copy-on-write, so a
// mutator that edits it in a later generation (through OwnMethod or
// OwnBody) edits a private copy.
var standardMain = jimple.StandardMain("Completed!")

// finishMutant applies the deterministic post-mutation fixups: the
// iteration-derived name, the version pin, and the observable main.
func finishMutant(c *jimple.Class, iter int) {
	c.Name = mutantName(iter)
	c.Major = 51 // every mutant is pinned to version 51 (§3.1.1)
	// §2.2.1: each mutant is supplemented with a simple main that
	// prints a completion message, so the mutant observably either
	// runs or fails earlier in the startup pipeline. (Interfaces are
	// left alone; a main inside an interface is itself a mutation the
	// interface-member mutators produce deliberately.)
	if !c.IsInterface() && c.FindMethod("main") == nil {
		c.Methods = append(c.Methods, standardMain)
	}
}

// lower compiles a mutant to classfile bytes.
func lower(c *jimple.Class) ([]byte, error) {
	f, err := jimple.Lower(c)
	if err != nil {
		return nil, err
	}
	return f.Bytes()
}
