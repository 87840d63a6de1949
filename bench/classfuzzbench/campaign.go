package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"runtime"
	"time"

	"repro/bench/internal/result"
	"repro/bench/internal/stats"
	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/prng"
	"repro/internal/seedgen"
	"repro/internal/seedsel"
)

// lineageStream derives lineage-epochs' corpus seeds and per-epoch
// campaign seeds, the way the daemon derives its shard epochs' seeds.
const lineageStream = 0x6c696e65

// lineageCorpusSeed is lineage k's corpus seed.
func lineageCorpusSeed(seed int64, k int) int64 {
	return prng.Mix(seed, lineageStream, uint64(k)<<32|0xffffffff)
}

// lineageEpochSeed is the campaign seed of lineage k's epoch ep.
func lineageEpochSeed(seed int64, k, ep int) int64 {
	return prng.Mix(seed, lineageStream, uint64(k)<<32|uint64(ep))
}

// runCtx carries one workload run's settings.
type runCtx struct {
	seed    int64
	size    sizes
	workers int
	workdir string
	// tr is non-nil in a traced run; seedClasses counts the seed classes
	// it saw generated.
	tr          *tracer
	seedClasses int
}

// setupRepeats is how many times a run repeats its set-up; setup_s is
// the median. Set-ups take milliseconds, and a garbage collection or a
// round of page faults landing inside one shifts it by half, so the
// median needs this many to hold still.
const setupRepeats = 9

// setup runs fn setupRepeats times and records the median as setup_s.
// undo, when not nil, runs untimed after every repetition but the last,
// which the workload then measures.
func (c *runCtx) setup(o *outcome, fn, undo func() error) error {
	var ds []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return err
		}
		ds = append(ds, time.Since(t0).Seconds())
		if undo != nil && i < setupRepeats-1 {
			if err := undo(); err != nil {
				return err
			}
		}
	}
	o.set("setup_s", stats.Median(ds))
	return nil
}

// corpusSetup generates one n-seed corpus per corpus seed and validates
// them the way a campaign consumes them: every seed must lower to a
// classfile. The digest of the lowered corpora is an invariant of the
// run; set-up runs repeatedly and must produce it every time.
func (c *runCtx) corpusSetup(o *outcome, n int, corpusSeeds ...int64) ([][]*jimple.Class, error) {
	var corpora [][]*jimple.Class
	digests := map[string]bool{}
	lowerFailures := 0
	err := c.setup(o, func() error {
		corpora = corpora[:0]
		h := sha256.New()
		lowerFailures = 0
		for _, cs := range corpusSeeds {
			seeds := c.generate(n, cs)
			for _, s := range seeds {
				f, err := jimple.Lower(s)
				if err != nil {
					lowerFailures++
					continue
				}
				data, err := f.Bytes()
				if err != nil {
					lowerFailures++
					continue
				}
				h.Write(data)
			}
			corpora = append(corpora, seeds)
		}
		digests[digestString(h)] = true
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	o.check(lowerFailures == 0, "corpus: %d of %d seeds do not lower", lowerFailures, n*len(corpusSeeds))
	o.check(len(digests) == 1, "corpus: %d different corpora from one seed", len(digests))
	for d := range digests {
		o.invariants["corpus_digest"] = d
	}
	return corpora, nil
}

// generate is seedgen.Generate with the default options, traced.
func (c *runCtx) generate(n int, seed int64) []*jimple.Class {
	t := time.Now()
	seeds := seedgen.Generate(seedgen.DefaultOptions(n, seed))
	if c.tr != nil {
		c.tr.span("seedgen.generate", t, map[string]any{"classes": n})
		c.seedClasses += n
	}
	return seeds
}

// generateFiles is seedgen.GenerateFiles with the default options, with
// the generation traced apart from the lowering.
func (c *runCtx) generateFiles(n int, seed int64) ([][]byte, error) {
	seeds := c.generate(n, seed)
	files := make([][]byte, 0, len(seeds))
	for _, s := range seeds {
		f, err := jimple.Lower(s)
		if err != nil {
			return nil, err
		}
		data, err := f.Bytes()
		if err != nil {
			return nil, err
		}
		files = append(files, data)
	}
	return files, nil
}

func digestString(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:32] }

// writeInts appends fixed-width integers to a digest.
func writeInts(h hash.Hash, xs ...int) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
}

// digestCampaign folds a campaign's result into h: its draw log and the
// bytes of every accepted test.
func digestCampaign(h hash.Hash, res *campaign.Result) {
	for _, d := range res.Draws {
		g := 0
		if d.Generated {
			g = 1
		}
		writeInts(h, d.Iter, d.PoolIndex, d.Parent, d.MutatorID, g)
	}
	for _, t := range res.Test {
		writeInts(h, t.Iter, len(t.Data))
		h.Write(t.Data)
	}
}

// classfuzzConfig is the campaign both campaign workloads run:
// classfuzz[stbr] with the static prefilter on the HotSpot 9 reference.
func classfuzzConfig(src campaign.SeedSource, iters int, rand int64, workers int) campaign.Config {
	return campaign.Config{
		Algorithm:       campaign.Classfuzz,
		Criterion:       coverage.STBR,
		Source:          src,
		Iterations:      iters,
		Rand:            rand,
		RefSpec:         jvm.HotSpot9(),
		StaticPrefilter: true,
		Workers:         workers,
	}
}

// progress is the campaign-paper latency probe: the wall time of each
// block of progressEvery committed iterations.
type progress struct {
	last      time.Time
	committed int
	blocksMs  []float64
}

const progressEvery = 1000

func (p *progress) Event(ev campaign.Event) {
	if _, ok := ev.(campaign.SelectorUpdated); !ok {
		return
	}
	p.committed++
	if p.committed%progressEvery == 0 {
		now := time.Now()
		p.blocksMs = append(p.blocksMs, float64(now.Sub(p.last).Nanoseconds())/1e6)
		p.last = now
	}
}

// setLatency records the median operation latency over samples (ms)
// with the sample count.
func setLatency(o *outcome, samples []float64) {
	if len(samples) == 0 {
		return
	}
	o.metrics["latency_p50_ms"] = result.Metric{
		Value: stats.Percentile(samples, 50),
		Unit:  unitOf("latency_p50_ms"),
		Base:  fmt.Sprintf("%d samples", len(samples)),
	}
}

// mallocs reads the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// campaignPaper runs one paper-scale classfuzz[stbr] campaign.
func campaignPaper(c *runCtx) (*outcome, error) {
	o := newOutcome()
	corpora, err := c.corpusSetup(o, c.size.campaignSeeds, c.seed)
	if err != nil {
		return nil, err
	}
	seeds := corpora[0]
	iters := c.size.campaignIters
	prog := &progress{}
	cfg := classfuzzConfig(campaign.FlatSeeds(seeds), iters, c.seed, c.workers)
	cfg.Observer = prog

	m0 := mallocs()
	start := time.Now()
	prog.last = start
	res, err := campaign.Run(cfg)
	wall := time.Since(start)
	m1 := mallocs()
	if err != nil {
		return nil, err
	}

	o.set("wall_s", wall.Seconds())
	o.ratio("iters_per_s", float64(iters), wall.Seconds())
	o.ratio("classes_per_s", float64(len(res.Gen)), wall.Seconds())
	setLatency(o, prog.blocksMs)
	o.ratio("allocs_per_iter", float64(m1-m0), float64(iters))

	newChecker().campaign(o, "campaign", seeds, res, iters)
	o.invariants["result_digest"] = resultDigest(res)
	o.invariants["tests"] = fmt.Sprint(len(res.Test))
	return o, nil
}

// lineageEpochs runs lineages of consecutive yield-scheduled epochs,
// each lineage over its own corpus with one verify memo carried across
// its epochs: the daemon shard's shape without HTTP or persistence.
// Several corpora per run keep one corpus's cost from deciding the run.
func lineageEpochs(c *runCtx) (*outcome, error) {
	o := newOutcome()
	sz := c.size
	corpora, err := c.corpusSetup(o, sz.lineageSeeds, lineageCorpusSeeds(c.seed, sz.lineages)...)
	if err != nil {
		return nil, err
	}
	chk := newChecker()
	h := sha256.New()
	var wall time.Duration
	var allocs uint64
	var epochMs []float64
	gen, tests := 0, 0
	for k, seeds := range corpora {
		memo := jvm.NewVerifyMemo()
		for ep := 0; ep < sz.lineageEpochs; ep++ {
			m0 := mallocs()
			start := time.Now()
			sched, err := seedsel.New(seeds, seedsel.Options{Strategy: seedsel.Yield, RefSpec: jvm.HotSpot9()})
			if err != nil {
				return nil, err
			}
			cfg := classfuzzConfig(sched, sz.lineageIters, lineageEpochSeed(c.seed, k, ep), c.workers)
			cfg.VerifyMemo = memo
			res, err := campaign.Run(cfg)
			d := time.Since(start)
			allocs += mallocs() - m0
			if err != nil {
				return nil, err
			}
			wall += d
			epochMs = append(epochMs, float64(d.Nanoseconds())/1e6)
			gen += len(res.Gen)
			tests += len(res.Test)
			chk.campaign(o, fmt.Sprintf("lineage %d epoch %d", k, ep), seeds, res, sz.lineageIters)
			writeInts(h, k, ep)
			digestCampaign(h, res)
		}
	}
	iters := sz.lineages * sz.lineageEpochs * sz.lineageIters
	o.set("wall_s", wall.Seconds())
	o.ratio("iters_per_s", float64(iters), wall.Seconds())
	o.ratio("classes_per_s", float64(gen), wall.Seconds())
	setLatency(o, epochMs)
	o.ratio("allocs_per_iter", float64(allocs), float64(iters))
	o.invariants["result_digest"] = digestString(h)
	o.invariants["tests"] = fmt.Sprint(tests)
	return o, nil
}

func lineageCorpusSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for k := range out {
		out[k] = lineageCorpusSeed(seed, k)
	}
	return out
}

// checker re-derives a campaign's acceptance decisions on a reference
// VM of its own: every accepted mutant runs again, and its coverage
// must match the statistics the campaign recorded and be unique under
// [stbr] against the seeds and every earlier accepted mutant.
type checker struct {
	vm  *jvm.VM
	rec *coverage.Recorder
	// seedTraces caches the traces of the last corpus checked
	// (lineage-epochs checks every epoch against one corpus).
	seedsOf    []*jimple.Class
	seedTraces []*coverage.Trace
}

// newChecker builds a checker whose VM keeps no verify memo: checks run
// between timed epochs, and a memo growing across them would swell the
// heap the timed work's garbage collections mark.
func newChecker() *checker {
	k := &checker{vm: jvm.New(jvm.HotSpot9()), rec: coverage.NewRecorder(jvm.ProbeRegistry())}
	k.vm.SetRecorder(k.rec)
	return k
}

func (k *checker) run(data []byte) *coverage.Trace {
	k.rec.Reset()
	k.vm.Run(data)
	return k.rec.Trace()
}

func (k *checker) traces(seeds []*jimple.Class) []*coverage.Trace {
	if len(seeds) > 0 && len(k.seedsOf) == len(seeds) && &k.seedsOf[0] == &seeds[0] {
		return k.seedTraces
	}
	k.seedsOf, k.seedTraces = seeds, nil
	for _, s := range seeds {
		f, err := jimple.Lower(s)
		if err != nil {
			continue // the engine skips unlowerable seeds too
		}
		data, err := f.Bytes()
		if err != nil {
			continue
		}
		k.seedTraces = append(k.seedTraces, k.run(data))
	}
	return k.seedTraces
}

func (k *checker) campaign(o *outcome, tag string, seeds []*jimple.Class, res *campaign.Result, iters int) {
	o.check(len(res.Draws) == iters && res.Drawn == iters && !res.Stopped,
		"%s: %d of %d iterations drawn", tag, len(res.Draws), iters)
	generated := 0
	for _, d := range res.Draws {
		if d.Generated {
			generated++
		}
	}
	o.check(generated == len(res.Gen), "%s: draw log marks %d generated, result holds %d", tag, generated, len(res.Gen))
	pf := res.Prefilter
	o.check(pf != nil && pf.Checked == len(res.Gen) && pf.Skipped+pf.Executed == pf.Doomed && pf.VerifyDoomed <= pf.Doomed,
		"%s: inconsistent prefilter counts %+v for %d generated", tag, pf, len(res.Gen))

	suite := coverage.NewSuite(coverage.STBR)
	for _, tr := range k.traces(seeds) {
		if suite.Unique(tr) {
			suite.Add(tr)
		}
	}
	last := -1
	for _, t := range res.Test {
		o.check(t.Accepted && len(t.Data) > 0 && t.Iter > last, "%s: malformed test %s (iteration %d)", tag, t.Name, t.Iter)
		last = t.Iter
		tr := k.run(t.Data)
		o.check(tr.Stats() == t.Stats, "%s: %s re-runs with coverage %v, recorded %v", tag, t.Name, tr.Stats(), t.Stats)
		o.check(suite.Unique(tr), "%s: %s is not unique against the suite before it", tag, t.Name)
		suite.Add(tr)
	}
}
