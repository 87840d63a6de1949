package seedsel

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/coverage"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/telemetry"
)

// SeedRun is one seed's record from RunSeeds.
type SeedRun struct {
	// Trace is the seed's coverage trace on the instrumented reference
	// VM, nil if the seed does not lower or write (so a seed lowered
	// exactly when Trace is non-nil). Its key is already computed.
	Trace *coverage.Trace
	// Fingerprint is the structural fingerprint of the lowered
	// classfile, 0 if the seed does not lower or write.
	Fingerprint uint64
}

// Traces returns every run's trace, index for index.
func Traces(runs []SeedRun) []*coverage.Trace {
	out := make([]*coverage.Trace, len(runs))
	for i, r := range runs {
		out[i] = r.Trace
	}
	return out
}

// Pass is Algorithm 1's seed pass (line 1) over a corpus that only
// grows: each seed runs at most once on the reference spec, when a
// request first covers it, and a view of its first n seeds never
// changes, so every campaign on the corpus shares one pass. It also
// keeps the scheduling index: the clusters its construction seeds
// found, and each seed's cluster.
type Pass struct {
	found   int // construction seeds, which alone found clusters
	elapsed *telemetry.Histogram
	ran     *telemetry.Counter
	running sync.Mutex // held across a run, so requests wait, not repeat it

	// mu guards the rest. seeds and runs only grow; runs[i] is
	// seeds[i]'s run.
	mu    sync.Mutex
	ref   jvm.Spec // set once: at construction or by the first Baselines
	seeds []*jimple.Class
	runs  []SeedRun
	idx   *Scheduler // built on first use, kept up to every seed run
}

// NewPass returns the pass over seeds on ref, none run yet; on the zero
// Spec it takes the spec of its first Baselines request. reg, when
// non-nil, times each run of seeds the pass makes as
// seedsel.baselines_ns and counts the runs it keeps in
// seedsel.seeds_run. Observe-only.
func NewPass(seeds []*jimple.Class, ref jvm.Spec, reg *telemetry.Registry) *Pass {
	return &Pass{found: len(seeds), elapsed: reg.Histogram("seedsel.baselines_ns"),
		ran: reg.Counter("seedsel.seeds_run"), ref: ref, seeds: slices.Clip(seeds)}
}

// Seeds returns the seeds the pass holds now.
func (p *Pass) Seeds() []*jimple.Class {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clip(p.seeds)
}

// Add appends c. run, when non-nil, is c's Run, which the pass keeps if
// every earlier seed has run.
func (p *Pass) Add(c *jimple.Class, run *SeedRun) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if run != nil && len(p.runs) == len(p.seeds) {
		p.runs = append(p.runs, *run)
		p.ran.Inc()
	}
	p.seeds = append(p.seeds, c)
}

// Run runs c on the pass's spec without adding it; only a run that Add
// keeps counts.
func (p *Pass) Run(c *jimple.Class) SeedRun {
	p.mu.Lock()
	ref := p.ref
	p.mu.Unlock()
	return RunSeeds([]*jimple.Class{c}, ref)[0]
}

// prefix returns the first n seeds' runs, running those not run yet.
func (p *Pass) prefix(n int) []SeedRun {
	p.running.Lock()
	defer p.running.Unlock()
	p.mu.Lock()
	todo, ref := p.seeds[min(len(p.runs), n):n], p.ref
	p.mu.Unlock()
	if len(todo) > 0 {
		sp := telemetry.StartSpan(p.elapsed)
		runs := RunSeeds(todo, ref)
		sp.End()
		p.ran.Add(int64(len(runs)))
		p.mu.Lock()
		p.runs = append(p.runs, runs...)
		p.mu.Unlock()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.runs[:n:n]
}

// Baselines returns the first n seeds' traces on ref, nil for a seed
// that does not lower: shared, immutable and already keyed. A request
// for a spec other than the pass's gets nil, which the engine refuses.
func (p *Pass) Baselines(n int, ref jvm.Spec) []*coverage.Trace {
	p.mu.Lock()
	if p.ref == (jvm.Spec{}) {
		p.ref = ref
	}
	other := ref != p.ref
	p.mu.Unlock()
	if other {
		return nil
	}
	return Traces(p.prefix(n))
}

// index calls fn under p.mu on the index, brought up to every seed run
// so far: at least this call's prefix, more if another call added some.
func (p *Pass) index(fn func(idx *Scheduler)) {
	p.prefix(len(p.Seeds()))
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.idx == nil {
		p.idx = &Scheduler{}
		p.idx.cluster(p.runs[:p.found])
	}
	for _, run := range p.runs[len(p.idx.assign):] {
		p.idx.join(p.idx.classify(run), true)
	}
	fn(p.idx)
}

// Source is one engine run's seed source over a pass's first seeds (a
// campaign.SeedSource) with the run's cluster table.
type Source interface {
	Corpus() []*jimple.Class
	Pick(rng *rand.Rand, n int) int
	Observe(poolIndex int, generated, accepted bool)
	Grew(poolIndex, parent int)
	Baselines(ref jvm.Spec) []*coverage.Trace
	ClusterStats() []ClusterStat // nil for a flat draw
	ClusterOf(poolIndex int) int
}

// Source returns one engine run's seed source over the first n seeds,
// and is the one place that chooses between a flat draw and a
// scheduler. Under Uniform it is the flat view, which keeps no draw
// state, so any number of campaigns may share it. Else it is a fork of
// the index with New's counters bound into reg (nil leaves them
// detached): it shares the index's slices, clipped so that its Grew
// copies them (a cluster's members below n are a prefix).
func (p *Pass) Source(strategy Strategy, n int, reg *telemetry.Registry) Source {
	v := view{p, p.Seeds()[:n:n]}
	if strategy == Uniform {
		return flat{v}
	}
	f := &Scheduler{strategy: strategy, view: v}
	p.index(func(idx *Scheduler) {
		f.assign = slices.Clip(idx.assign[:n])
		for _, c := range idx.clusters {
			k := sort.SearchInts(c.members, n)
			f.clusters = append(f.clusters, &cluster{fp: c.fp, trace: c.trace, members: slices.Clip(c.members[:k]), seedCount: k})
		}
	})
	f.telDraws = reg.Counter("campaign.seeds.draws")
	f.telYield = reg.Counter("campaign.seeds.yield")
	f.telDem = reg.Counter("campaign.seeds.demotions")
	for i, c := range f.clusters {
		c.telDraws = reg.Counter(ClusterMetric(i, "draws"))
		c.telYield = reg.Counter(ClusterMetric(i, "yield"))
		c.telDem = reg.Counter(ClusterMetric(i, "demotions"))
	}
	return f
}

// view is a pass's first seeds, the corpus of a Source.
type view struct {
	pass   *Pass
	corpus []*jimple.Class
}

// Corpus implements campaign.SeedSource.
func (v view) Corpus() []*jimple.Class { return v.corpus }

// Baselines implements campaign.SeedSource: the pass's traces of the
// corpus, shared with every other view of the pass.
func (v view) Baselines(ref jvm.Spec) []*coverage.Trace { return v.pass.Baselines(len(v.corpus), ref) }

// flat is the paper's draw: one Intn(n) per pick, no feedback, no
// clusters.
type flat struct{ view }

func (flat) Pick(rng *rand.Rand, n int) int { return rng.Intn(n) }
func (flat) Observe(int, bool, bool)        {}
func (flat) Grew(int, int)                  {}
func (flat) ClusterStats() []ClusterStat    { return nil }
func (flat) ClusterOf(int) int              { return -1 }

// Cluster reports the cluster the index puts a seed with run in.
func (p *Pass) Cluster(run SeedRun) (ci int) {
	p.index(func(idx *Scheduler) { ci = idx.classify(run) })
	return ci
}

// RunSeeds lowers, writes and runs every seed once on an instrumented
// ref VM, seed i into slot i. The runs are spread over GOMAXPROCS
// goroutines, each with its own VM, recorder and lowering context;
// every slot depends only on its seed, so the result is the serial one
// at any GOMAXPROCS. Pass runs it; the engine never does.
func RunSeeds(seeds []*jimple.Class, ref jvm.Spec) []SeedRun {
	runs := make([]SeedRun, len(seeds))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(seeds)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vm := jvm.New(ref)
			rec := coverage.NewRecorder(jvm.ProbeRegistry())
			vm.SetRecorder(rec)
			lctx := jimple.NewLowerCtx()
			var buf []byte
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seeds) {
					return
				}
				runs[i], buf = runSeed(vm, rec, lctx, seeds[i], buf)
			}
		}()
	}
	wg.Wait()
	return runs
}

// runSeed lowers one seed through lctx and runs it on vm. The File is
// written first, into buf — that brings it in step with its bytes — and
// then run in place of a parse of them. The bytes themselves are not
// needed, so runSeed returns buf for the goroutine's next seed.
func runSeed(vm *jvm.VM, rec *coverage.Recorder, lctx *jimple.LowerCtx, c *jimple.Class, buf []byte) (SeedRun, []byte) {
	f, err := lctx.Lower(c)
	if err != nil {
		return SeedRun{}, buf
	}
	data, err := f.AppendBytes(buf[:0])
	if err != nil {
		return SeedRun{}, buf
	}
	rec.Reset()
	vm.RunParsed(f)
	tr := rec.Trace()
	tr.Key() // cached now, so readers of the shared trace never write it
	return SeedRun{Trace: tr, Fingerprint: analysis.Fingerprint(f)}, data
}
