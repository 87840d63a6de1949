package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime/metrics"
	"time"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/classfile"
	"repro/internal/coverage"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/mcmc"
	"repro/internal/mutation"
	"repro/internal/prng"
	"repro/internal/rtlib"
	"repro/internal/seedsel"
)

// The campaign engine's generator streams and the prefilter's band tag
// are unexported. The replay re-derives the same streams and checks
// every draw, byte, trace and verdict against the engine's own run, so
// a drift in any of these constants fails the traced run loudly.
const (
	drawStream    = 0xD4A7_0001
	initStream    = 0xD4A7_0003
	verifyBandTag = 0x9e3779b97f4a7c15
)

// skipLog is the Observer of a traced campaign: it records which
// iterations the prefilter's trace cache served.
type skipLog struct{ skipped map[int]bool }

func (s *skipLog) Event(ev campaign.Event) {
	if e, ok := ev.(campaign.Executed); ok && e.Skipped {
		s.skipped[e.Iter] = true
	}
}

// cacheEntry mirrors one prefilter trace-cache entry.
type cacheEntry struct {
	trace *coverage.Trace
	iter  int
}

// replayer re-drives finished campaigns, one iteration at a time on one
// goroutine, through the public functions of each layer, and compares
// every outcome with the engine's. Its reference VM and verify memo
// live across campaigns, like a daemon shard's.
type replayer struct {
	tr   *tracer
	spec jvm.Spec
	env  *rtlib.Env
	vm   *jvm.VM
	rec  *coverage.Recorder
	memo *jvm.VerifyMemo
	lctx *jimple.LowerCtx
	muts []*mutation.Mutator
	buf  []byte

	// nextID numbers root spans across campaigns.
	nextID int

	iters, generated, checked, doomed, skipped, accepted int
	classBytes                                           int64

	mismatches int
	notes      []string
}

func newReplayer(tr *tracer) *replayer {
	spec := jvm.HotSpot9()
	r := &replayer{
		tr:   tr,
		spec: spec,
		env:  rtlib.NewEnv(spec.Release),
		vm:   jvm.New(spec),
		rec:  coverage.NewRecorder(jvm.ProbeRegistry()),
		memo: jvm.NewVerifyMemo(),
		lctx: jimple.NewLowerCtx(),
		muts: mutation.Registry(),
	}
	r.vm.SetRecorder(r.rec)
	r.vm.SetVerifyMemo(r.memo)
	return r
}

// resetMemo gives the replayer a fresh verify memo, as a new lineage
// starts with.
func (r *replayer) resetMemo() {
	r.memo = jvm.NewVerifyMemo()
	r.vm.SetVerifyMemo(r.memo)
}

func (r *replayer) mismatch(format string, args ...any) {
	r.mismatches++
	if len(r.notes) < maxFailureNotes {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// replay re-drives res, a campaign the engine ran with KeepGenBytes
// under campaign seed seed, observed by skips. src must be a fresh
// source equal to the one the engine drew from.
func (r *replayer) replay(seed int64, src campaign.SeedSource, res *campaign.Result, skips *skipLog) {
	tr := r.tr
	corpus := src.Corpus()
	pool := append([]*jimple.Class(nil), corpus...)
	suite := coverage.NewSuite(res.Criterion)
	genStats := coverage.NewSuite(coverage.STBR)
	merged := coverage.NewTrace()

	// The engine's seed pass: every seed's trace joins the suite.
	t := time.Now()
	for _, s := range corpus {
		f, err := jimple.Lower(s)
		if err != nil {
			continue
		}
		data, err := f.Bytes()
		if err != nil {
			continue
		}
		r.rec.Reset()
		r.vm.Run(data)
		st := r.rec.Trace()
		merged = coverage.Merge(merged, st)
		if suite.Unique(st) {
			suite.Add(st)
		}
	}
	tr.span("campaign.seed_init", t, map[string]any{"seeds": len(corpus)})

	D := res.Lookahead
	N := res.Iterations
	prefilter := res.Prefilter != nil
	base := r.nextID
	r.nextID += N
	r.iters += N
	sel := mcmc.NewSampler(len(r.muts), mcmc.DefaultP(len(r.muts)), prng.Derive(seed, initStream, 0))
	cache := map[uint64]cacheEntry{}
	verdicts := map[uint64]bool{}
	type drawn struct{ idx, mu int }
	draws := make([]drawn, N)
	genNext := 0

	draw := func(i int) {
		rng := prng.Derive(seed, drawStream, uint64(i))
		t := time.Now()
		idx := src.Pick(rng, len(pool))
		tr.leaf("seedsel.pick", t, base+i)
		t = time.Now()
		mu := sel.Next(rng)
		tr.leaf("mcmc.next", t, base+i)
		want := res.Draws[i]
		if idx != want.PoolIndex || mu != want.MutatorID {
			r.mismatch("iteration %d: drew pool %d mutator %d, engine drew pool %d mutator %d", i, idx, mu, want.PoolIndex, want.MutatorID)
			idx, mu = want.PoolIndex, want.MutatorID
		}
		draws[i] = drawn{idx, mu}
	}

	commit := func(j int) {
		d := draws[j]
		tr.beginRoot(base + j)
		defer tr.endRoot("campaign.iteration")
		rng := campaign.DeriveRNG(seed, j)

		t := time.Now()
		m := pool[d.idx].Clone()
		tr.child("jimple.clone", t)
		t = time.Now()
		generated := r.muts[d.mu].Apply(m, rng)
		tr.child("mutation.apply", t)
		var data []byte
		if generated {
			t = time.Now()
			finishMutant(m, j)
			tr.child("campaign.finish", t)
			t = time.Now()
			f, err := r.lctx.Lower(m)
			tr.child("jimple.lower", t)
			generated = err == nil
			if generated {
				t = time.Now()
				data, err = f.AppendBytes(r.buf[:0])
				tr.child("classfile.write", t)
				generated = err == nil
				r.buf = data
			}
		}
		if generated != res.Draws[j].Generated {
			r.mismatch("iteration %d: generated=%v, engine generated=%v", j, generated, res.Draws[j].Generated)
		}
		if !generated {
			t = time.Now()
			src.Observe(d.idx, false, false)
			tr.child("seedsel.observe", t)
			t = time.Now()
			sel.Record(d.mu, false)
			tr.child("mcmc.record", t)
			return
		}
		r.generated++
		r.classBytes += int64(len(data))

		// The static prefilter, when the campaign ran one, mirroring its
		// verdict map and its window-versioned trace cache. Without it the
		// reference VM parses the bytes itself.
		var pf *classfile.File
		parsed, doomed, hit := false, false, false
		var fp uint64
		var trace *coverage.Trace
		if prefilter {
			r.checked++
			t = time.Now()
			f, err := classfile.Parse(data)
			tr.child("classfile.parse", t)
			pf, parsed = f, err == nil
		}
		if parsed {
			t = time.Now()
			rej := analysis.LoadReject(pf, &r.spec.Policy)
			tr.child("analysis.load_reject", t)
			if rej != nil {
				doomed = true
				t = time.Now()
				fp = analysis.Fingerprint(pf)
				tr.child("analysis.fingerprint", t)
			} else {
				t = time.Now()
				vfp := analysis.VerifyFingerprint(data, pf.Name()) ^ verifyBandTag
				tr.child("analysis.verify_fingerprint", t)
				v, ok := verdicts[vfp]
				if !ok {
					t = time.Now()
					v = analysis.VerifyRejectMemo(pf, r.spec, r.env, r.memo) != nil
					tr.child("analysis.verify_reject", t)
					verdicts[vfp] = v
				}
				doomed, fp = v, vfp
			}
			if e, ok := cache[fp]; doomed && ok && e.iter <= j-D {
				hit, trace = true, e.trace
			}
		}
		if doomed {
			r.doomed++
		}
		if hit != skips.skipped[j] {
			r.mismatch("iteration %d: trace cache hit=%v, engine hit=%v", j, hit, skips.skipped[j])
		}
		if hit {
			r.skipped++
		} else {
			r.rec.Reset()
			t = time.Now()
			if parsed {
				r.vm.RunParsed(pf)
			} else {
				r.vm.Run(data)
			}
			tr.child("jvm.run", t)
			t = time.Now()
			trace = r.rec.Trace()
			tr.child("coverage.trace", t)
			if _, ok := cache[fp]; doomed && !ok {
				cache[fp] = cacheEntry{trace, j}
			}
		}

		t = time.Now()
		stats := trace.Stats()
		genStats.Add(trace)
		accepted := suite.Unique(trace)
		if accepted {
			suite.Add(trace)
			merged = coverage.Merge(merged, trace)
		}
		tr.child("coverage.suite", t)

		if genNext >= len(res.Gen) || res.Gen[genNext].Iter != j {
			r.mismatch("iteration %d: generated a mutant the engine's result does not hold", j)
		} else {
			g := res.Gen[genNext]
			genNext++
			if !bytes.Equal(data, g.Data) || stats != g.Stats || accepted != g.Accepted {
				r.mismatch("iteration %d: bytes equal=%v, coverage %v vs %v, accepted %v vs %v",
					j, bytes.Equal(data, g.Data), stats, g.Stats, accepted, g.Accepted)
			}
		}
		if accepted {
			r.accepted++
			pool = append(pool, m)
			t = time.Now()
			src.Grew(len(pool)-1, d.idx)
			tr.child("seedsel.observe", t)
		}
		t = time.Now()
		src.Observe(d.idx, true, accepted)
		tr.child("seedsel.observe", t)
		t = time.Now()
		sel.Record(d.mu, accepted)
		tr.child("mcmc.record", t)
	}

	// The engine's interleaving: commit(i−D) precedes draw(i), so every
	// draw sees exactly the commits it saw in the engine.
	for i := 0; i < N; i++ {
		if i-D >= 0 {
			commit(i - D)
		}
		draw(i)
	}
	for j := max(0, N-D); j < N; j++ {
		commit(j)
	}
	if genNext != len(res.Gen) {
		r.mismatch("replay generated %d mutants, engine %d", genNext, len(res.Gen))
	}
	if res.Coverage == nil || !merged.EqualSets(res.Coverage) {
		r.mismatch("replayed campaign coverage %v differs from the engine's", merged.Stats())
	}
}

// finishMutant is the engine's deterministic post-mutation step: the
// iteration-derived name, the version pin, and the observable main.
func finishMutant(c *jimple.Class, iter int) {
	c.Name = fmt.Sprintf("M%d", 1430000000+iter)
	c.Major = 51
	if !c.IsInterface() && c.FindMethod("main") == nil {
		c.AddStandardMain("Completed!")
	}
}

// gcCPU reads the runtime's cumulative GC and total CPU-time estimates
// (seconds).
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// campaignTrace runs a traced workload's campaigns: each at Workers = 1
// (whose wall time the replay's layer time is set against), keeping
// every generated mutant's bytes and which iterations the trace cache
// served, then replays it. A campaign another part of the program
// already ran must come out identical to that run.
type campaignTrace struct {
	c *runCtx
	r *replayer
	// memo is the engine's verify memo; newMemo starts a fresh one on
	// both sides, as a new lineage or a private-memo campaign does.
	memo                 *jvm.VerifyMemo
	memoHits, memoMisses int64

	engineWall, replayWall time.Duration
	layerNs                int64 // replay layer self time
	campaigns              int
	// gc0 and cpu0 are the runtime's GC and total CPU estimates when the
	// trace began. They advance only at GC cycles, so the GC share is
	// taken over the whole traced run rather than per (short) campaign.
	gc0, cpu0 float64
}

func newCampaignTrace(c *runCtx) *campaignTrace {
	ct := &campaignTrace{c: c, r: newReplayer(c.tr), memo: jvm.NewVerifyMemo()}
	ct.gc0, ct.cpu0 = gcCPU()
	return ct
}

func (ct *campaignTrace) newMemo() {
	ct.memo = jvm.NewVerifyMemo()
	ct.r.resetMemo()
}

// run traces the campaign cfg describes, over a source newSrc builds
// fresh for each side. want, when not nil, is the program's own result
// of the same campaign.
func (ct *campaignTrace) run(cfg campaign.Config, newSrc func() (campaign.SeedSource, error), want *campaign.Result) error {
	skips := &skipLog{skipped: map[int]bool{}}
	cfg.Workers = 1
	cfg.KeepGenBytes = true
	cfg.Observer = skips
	cfg.VerifyMemo = ct.memo
	hits0, misses0 := memoCounts(ct.memo)
	start := time.Now()
	src, err := newSrc()
	if err != nil {
		return err
	}
	cfg.Source = src
	res, err := campaign.Run(cfg)
	ct.engineWall += time.Since(start)
	if err != nil {
		return err
	}
	hits1, misses1 := memoCounts(ct.memo)
	ct.memoHits += hits1 - hits0
	ct.memoMisses += misses1 - misses0
	if want != nil && resultDigest(res) != resultDigest(want) {
		ct.r.mismatch("campaign %d (seed %d) did not reproduce the program's own run", ct.campaigns, cfg.Rand)
	}

	tr := ct.c.tr
	layer0 := tr.layerSelfNs()
	start = time.Now()
	src, err = newSrc()
	tr.span("seedsel.new", start, map[string]any{"campaign": ct.campaigns})
	if err != nil {
		return err
	}
	ct.r.replay(cfg.Rand, src, res, skips)
	ct.replayWall += time.Since(start)
	ct.layerNs += tr.layerSelfNs() - layer0
	ct.campaigns++
	return nil
}

func memoCounts(m *jvm.VerifyMemo) (hits, misses int64) {
	s := m.Stats()
	return s.Counter(jvm.MetricVerifyMemoHits), s.Counter(jvm.MetricVerifyMemoMisses)
}

func resultDigest(res *campaign.Result) string {
	h := sha256.New()
	digestCampaign(h, res)
	return digestString(h)
}

// layers sets the per-layer metrics the campaign replays measure.
func (ct *campaignTrace) layers(o *outcome) {
	tr, r := ct.c.tr, ct.r
	gen := float64(r.generated)
	o.ratio("seedsel.new_ms", float64(tr.selfNs("seedsel.new"))/1e6, float64(ct.campaigns))
	for _, m := range []struct{ metric, span string }{
		{"seedsel.pick_us", "seedsel.pick"},
		{"seedsel.observe_us", "seedsel.observe"},
		{"mcmc.next_us", "mcmc.next"},
		{"mcmc.record_us", "mcmc.record"},
		{"jimple.clone_us", "jimple.clone"},
		{"mutation.apply_us", "mutation.apply"},
		{"campaign.finish_us", "campaign.finish"},
		{"jimple.lower_us", "jimple.lower"},
		{"classfile.write_us", "classfile.write"},
		{"analysis.load_reject_us", "analysis.load_reject"},
		{"analysis.verify_fingerprint_us", "analysis.verify_fingerprint"},
		{"analysis.verify_reject_us", "analysis.verify_reject"},
		{"jvm.run_us", "jvm.run"},
		{"coverage.trace_us", "coverage.trace"},
		{"coverage.suite_us", "coverage.suite"},
	} {
		o.ratio(m.metric, float64(tr.selfNs(m.span))/1e3, gen)
	}
	if r.checked == 0 {
		// No prefilter ran: these times were not measured.
		for _, name := range []string{"analysis.load_reject_us", "analysis.verify_fingerprint_us", "analysis.verify_reject_us"} {
			delete(o.metrics, name)
		}
	}
	o.ratio("classfile.parse_us", float64(tr.selfNs("classfile.parse"))/1e3, float64(tr.count("classfile.parse")))
	o.ratio("seedgen.class_us", float64(tr.selfNs("seedgen.generate"))/1e3, float64(ct.c.seedClasses))
	o.ratio("jimple.class_bytes", float64(r.classBytes), gen)
	o.ratio("mutation.generated_frac", gen, float64(r.iters))
	o.ratio("analysis.doomed_frac", float64(r.doomed), float64(r.checked))
	o.ratio("campaign.prefilter_skip_frac", float64(r.skipped), gen)
	o.ratio("jvm.verify_memo_hit_rate", float64(ct.memoHits), float64(ct.memoHits+ct.memoMisses))
	o.ratio("campaign.accept_frac", float64(r.accepted), gen)
	wallMs := float64(ct.engineWall.Nanoseconds()) / 1e6
	o.ratio("campaign.coord_frac", wallMs-float64(ct.layerNs)/1e6, wallMs)
	gc1, cpu1 := gcCPU()
	o.ratio("runtime.gc_cpu_frac", gc1-ct.gc0, cpu1-ct.cpu0)
	o.ratio("trace.overhead_frac", float64(ct.replayWall.Nanoseconds())/1e6-wallMs, wallMs)
	o.set("trace.replay_mismatches", float64(r.mismatches))
	o.check(r.mismatches == 0, "replay: %d mismatches with the engine, first: %v", r.mismatches, r.notes)
}

// campaignPaperTraced traces campaign-paper's campaign.
func campaignPaperTraced(c *runCtx) (*outcome, error) {
	o := newOutcome()
	corpora, err := c.corpusSetup(o, c.size.campaignSeeds, c.seed)
	if err != nil {
		return nil, err
	}
	ct := newCampaignTrace(c)
	src := func() (campaign.SeedSource, error) { return campaign.FlatSeeds(corpora[0]), nil }
	if err := ct.run(classfuzzConfig(nil, c.size.campaignIters, c.seed, 1), src, nil); err != nil {
		return nil, err
	}
	ct.layers(o)
	return o, nil
}

// lineageEpochsTraced traces every lineage epoch, each side carrying
// its own verify memo across a lineage's epochs.
func lineageEpochsTraced(c *runCtx) (*outcome, error) {
	o := newOutcome()
	sz := c.size
	corpora, err := c.corpusSetup(o, sz.lineageSeeds, lineageCorpusSeeds(c.seed, sz.lineages)...)
	if err != nil {
		return nil, err
	}
	ct := newCampaignTrace(c)
	for k, seeds := range corpora {
		ct.newMemo()
		src := func() (campaign.SeedSource, error) {
			return seedsel.New(seeds, seedsel.Options{Strategy: seedsel.Yield, RefSpec: jvm.HotSpot9()})
		}
		for ep := 0; ep < sz.lineageEpochs; ep++ {
			if err := ct.run(classfuzzConfig(nil, sz.lineageIters, lineageEpochSeed(c.seed, k, ep), 1), src, nil); err != nil {
				return nil, err
			}
		}
	}
	ct.layers(o)
	return o, nil
}
