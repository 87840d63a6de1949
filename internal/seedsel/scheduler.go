package seedsel

import (
	"fmt"
	"math/rand"
	"runtime"
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

// RunSeeds is the seed pass of Algorithm 1 line 1: it lowers, writes
// and runs every seed once on an instrumented ref VM, seed i into
// slot i. The runs are spread over GOMAXPROCS goroutines, each with
// its own VM, recorder and lowering context; every slot depends only
// on its seed, so the result is the serial one at any GOMAXPROCS.
// memo, when non-nil, serves every VM's verification: a memo hit
// replays the verifier's probes, so the traces are the same with or
// without it. reg, when non-nil, receives every VM's phase timing.
func RunSeeds(seeds []*jimple.Class, ref jvm.Spec, memo *jvm.VerifyMemo, reg *telemetry.Registry) []SeedRun {
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
			vm.SetVerifyMemo(memo)
			vm.SetTelemetry(reg)
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

// cluster is one scheduling unit: a distilled representative coverage
// set and every pool entry assigned to it.
type cluster struct {
	// fp and trace identify the representative group the greedy
	// distillation picked; trace is what newcomers' overlap is measured
	// against.
	fp    uint64
	trace *coverage.Trace
	// members are the pool indices currently assigned here: base seeds
	// at construction, recycled mutants via Grew, submitted seeds via
	// AddSeed.
	members []int
	// seedCount is how many initial-corpus seeds landed here (members
	// grows past it as the pool recycles mutants).
	seedCount int

	draws     int64
	yield     int64
	demotions int64
	since     int // observed draws since the last accepted mutant
	demoted   bool

	telDraws *telemetry.Counter
	telYield *telemetry.Counter
	telDem   *telemetry.Counter
}

// Scheduler is the stateful SeedSource: it owns the corpus, the
// cluster structure, and the per-cluster yield statistics the draw
// policy feeds on. One Scheduler serves exactly one engine run (or, in
// the daemon, one manager's intake index); construct a fresh one per
// Resume so its replay can drive the campaign's prefix through it.
type Scheduler struct {
	strategy Strategy

	// ref is the spec every baseline in runs was recorded on.
	ref      jvm.Spec
	seeds    []*jimple.Class
	runs     []SeedRun
	clusters []*cluster
	// assign maps every pool index (initial seed or recycled mutant) to
	// its cluster. Grew extends it in commit order.
	assign []int

	telDraws *telemetry.Counter
	telYield *telemetry.Counter
	telDem   *telemetry.Counter
}

// New builds a scheduler over the seed corpus: it lowers and executes
// every seed once on opts.RefSpec to record fingerprints and baseline
// traces, distils the corpus into clusters, and readies the draw
// policy. The seed runs are RunSeeds, the campaign's seed pass: the
// engine takes their traces through Baselines instead of running the
// seeds again. Construction is deterministic — same corpus and options,
// same clustering, at any GOMAXPROCS.
func New(seeds []*jimple.Class, opts Options) (*Scheduler, error) {
	if opts.Strategy != Clustered && opts.Strategy != Yield {
		return nil, fmt.Errorf("seedsel: strategy %q has no scheduler (uniform is campaign.FlatSeeds)", opts.Strategy)
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("seedsel: empty seed corpus")
	}
	base := opts.Base
	if base <= 0 || base > len(seeds) {
		base = len(seeds)
	}
	s := &Scheduler{
		strategy: opts.Strategy,
		ref:      opts.RefSpec,
		seeds:    seeds,
	}
	sp := telemetry.StartSpan(opts.Telemetry.Histogram("seedsel.baselines_ns"))
	s.runs = RunSeeds(seeds, s.ref, nil, nil)
	sp.End()
	s.cluster(base)

	if opts.Telemetry != nil {
		reg := opts.Telemetry
		s.telDraws = reg.Counter("campaign.seeds.draws")
		s.telYield = reg.Counter("campaign.seeds.yield")
		s.telDem = reg.Counter("campaign.seeds.demotions")
		for i, c := range s.clusters {
			pfx := fmt.Sprintf("campaign.seeds.cluster%d.", i)
			c.telDraws = reg.Counter(pfx + "draws")
			c.telYield = reg.Counter(pfx + "yield")
			c.telDem = reg.Counter(pfx + "demotions")
		}
	}
	return s, nil
}

// cluster distils seeds[:base] into representative coverage sets and
// assigns every seed to one.
//
// Groups form over the base prefix by structural fingerprint (first-
// occurrence order); each group's trace is the word-OR of its members'
// baselines. Greedy distillation then repeatedly picks the group with
// the largest marginal coverage gain over the running union (ties to
// the lowest group index) until no group adds anything — those picks,
// in pick order, are the clusters. Every seed (base or later) joins
// the cluster whose representative trace it overlaps most, ties to the
// lowest cluster; a seed fingerprint-equal to a representative group
// short-circuits to that cluster.
func (s *Scheduler) cluster(base int) {
	type group struct {
		fp    uint64
		trace *coverage.Trace
	}
	var groups []group
	groupIdx := map[uint64]int{}
	for i := 0; i < base; i++ {
		in := s.runs[i]
		gi, ok := groupIdx[in.Fingerprint]
		if !ok {
			gi = len(groups)
			groupIdx[in.Fingerprint] = gi
			groups = append(groups, group{fp: in.Fingerprint, trace: coverage.NewTrace()})
		}
		if in.Trace != nil {
			groups[gi].trace = coverage.Merge(groups[gi].trace, in.Trace)
		}
	}

	union := coverage.NewTrace()
	picked := make([]bool, len(groups))
	for {
		best, bestGain := -1, 0
		for gi, g := range groups {
			if picked[gi] {
				continue
			}
			if gain := g.trace.GainOver(union); gain > bestGain {
				best, bestGain = gi, gain
			}
		}
		if best < 0 {
			break
		}
		picked[best] = true
		union = coverage.Merge(union, groups[best].trace)
		s.clusters = append(s.clusters, &cluster{fp: groups[best].fp, trace: groups[best].trace})
	}
	if len(s.clusters) == 0 {
		// Degenerate corpus (nothing lowers / empty traces): one
		// cluster holding everything keeps the policy total.
		s.clusters = append(s.clusters, &cluster{trace: coverage.NewTrace()})
	}

	s.assign = make([]int, 0, len(s.seeds))
	for i := range s.seeds {
		ci := s.classify(s.runs[i])
		s.assign = append(s.assign, ci)
		c := s.clusters[ci]
		c.members = append(c.members, i)
		c.seedCount++
	}
}

// classify maps a seed's run to a cluster index. A seed that did not
// lower overlaps nothing, so it joins the first cluster.
func (s *Scheduler) classify(in SeedRun) int {
	if in.Trace == nil {
		return 0
	}
	best, bestOverlap := 0, -1
	for ci, c := range s.clusters {
		if in.Fingerprint != 0 && in.Fingerprint == c.fp {
			return ci
		}
		if ov := in.Trace.OverlapCount(c.trace); ov > bestOverlap {
			best, bestOverlap = ci, ov
		}
	}
	return best
}

// Corpus implements campaign.SeedSource.
func (s *Scheduler) Corpus() []*jimple.Class { return s.seeds }

// Baselines implements campaign.SeedSource: the baseline trace of
// every corpus entry as New (or AddSeed) recorded it, nil for a seed
// that did not lower. It returns nil when ref is not the spec the
// traces were recorded on. The traces are shared, not copied; traces
// are immutable and their keys were computed by the seed pass.
func (s *Scheduler) Baselines(ref jvm.Spec) []*coverage.Trace {
	if ref != s.ref {
		return nil
	}
	return Traces(s.runs)
}

// weight is a cluster's unnormalised draw mass.
func (s *Scheduler) weight(c *cluster) float64 {
	if len(c.members) == 0 {
		return 0
	}
	if s.strategy == Clustered {
		return 1
	}
	// Laplace-smoothed acceptance yield: unexplored clusters start at
	// weight 1 (optimism), productive ones rise, stagnant ones decay —
	// and a demoted cluster runs at quarter mass until it yields again.
	w := float64(c.yield+1) / float64(c.draws+1)
	if c.demoted {
		w *= 0.25
	}
	return w
}

// Pick implements campaign.SeedSource: an epsilon-floor uniform draw,
// else a yield/diversity-weighted cluster pick followed by a uniform
// member pick. Consumes only rng.
func (s *Scheduler) Pick(rng *rand.Rand, n int) int {
	if n != len(s.assign) {
		panic(fmt.Sprintf("seedsel: pool size %d, scheduler tracks %d (Grew not mirrored?)", n, len(s.assign)))
	}
	if rng.Float64() < DefaultEpsilon {
		return rng.Intn(n)
	}
	total := 0.0
	for _, c := range s.clusters {
		total += s.weight(c)
	}
	if total <= 0 {
		return rng.Intn(n)
	}
	r := rng.Float64() * total
	last := -1
	for ci, c := range s.clusters {
		w := s.weight(c)
		if w <= 0 {
			continue
		}
		last = ci
		if r < w {
			break
		}
		r -= w
	}
	m := s.clusters[last].members
	return m[rng.Intn(len(m))]
}

// Observe implements campaign.SeedSource: commit-order outcome
// feedback for the drawn pool entry's cluster.
func (s *Scheduler) Observe(poolIndex int, generated, accepted bool) {
	c := s.clusters[s.assign[poolIndex]]
	c.draws++
	c.telDraws.Inc()
	s.telDraws.Inc()
	if accepted {
		c.yield++
		c.since = 0
		c.demoted = false
		c.telYield.Inc()
		s.telYield.Inc()
		return
	}
	c.since++
	if !c.demoted && c.since >= DefaultDemoteAfter {
		c.demoted = true
		c.demotions++
		c.telDem.Inc()
		s.telDem.Inc()
	}
}

// Grew implements campaign.SeedSource: a recycled mutant joins its
// parent's cluster.
func (s *Scheduler) Grew(poolIndex, parent int) {
	if poolIndex != len(s.assign) {
		panic(fmt.Sprintf("seedsel: pool grew to index %d, scheduler tracks %d", poolIndex, len(s.assign)))
	}
	ci := s.assign[parent]
	s.assign = append(s.assign, ci)
	s.clusters[ci].members = append(s.clusters[ci].members, poolIndex)
}

// SeedClass describes one classified seed for intake reporting.
type SeedClass struct {
	// Fingerprint is the structural fingerprint of the lowered
	// classfile (0 if the seed does not lower).
	Fingerprint uint64 `json:"fingerprint"`
	// TraceKeyHi/Lo are the 128-bit baseline-trace set key.
	TraceKeyHi uint64 `json:"trace_key_hi"`
	TraceKeyLo uint64 `json:"trace_key_lo"`
	// Cluster is the assigned cluster index.
	Cluster int `json:"cluster"`
}

// AddSeed classifies a new seed into the existing cluster structure
// and appends it to the corpus — the daemon's intake path. Cluster
// identities never change: the newcomer joins the best-overlapping
// existing cluster. Not for use mid-engine-run (the engine's pool
// indexes the corpus it started with).
func (s *Scheduler) AddSeed(c *jimple.Class) SeedClass {
	in, sc := s.place(c)
	s.seeds = append(s.seeds, c)
	s.runs = append(s.runs, in)
	s.assign = append(s.assign, sc.Cluster)
	cl := s.clusters[sc.Cluster]
	cl.members = append(cl.members, len(s.seeds)-1)
	cl.seedCount++
	return sc
}

// Classify reports where AddSeed would place the class, without
// mutating the scheduler.
func (s *Scheduler) Classify(c *jimple.Class) SeedClass {
	_, sc := s.place(c)
	return sc
}

// place runs one class through the seed pass and picks its cluster.
func (s *Scheduler) place(c *jimple.Class) (SeedRun, SeedClass) {
	in := RunSeeds([]*jimple.Class{c}, s.ref, nil, nil)[0]
	var key coverage.Key // zero for a seed that did not lower
	if in.Trace != nil {
		key = in.Trace.Key()
	}
	return in, SeedClass{Fingerprint: in.Fingerprint, TraceKeyHi: key.Hi, TraceKeyLo: key.Lo, Cluster: s.classify(in)}
}

// ClusterStat is one cluster's reporting row.
type ClusterStat struct {
	Cluster   int   `json:"cluster"`
	Seeds     int   `json:"seeds"`
	Pool      int   `json:"pool"`
	Draws     int64 `json:"draws"`
	Yield     int64 `json:"yield"`
	Demotions int64 `json:"demotions"`
	Demoted   bool  `json:"demoted"`
}

// ClusterStats snapshots the per-cluster table (counts, yield,
// demotion flags) for status endpoints and reports.
func (s *Scheduler) ClusterStats() []ClusterStat {
	out := make([]ClusterStat, len(s.clusters))
	for i, c := range s.clusters {
		out[i] = ClusterStat{
			Cluster:   i,
			Seeds:     c.seedCount,
			Pool:      len(c.members),
			Draws:     c.draws,
			Yield:     c.yield,
			Demotions: c.demotions,
			Demoted:   c.demoted,
		}
	}
	return out
}

// Clusters returns the cluster count.
func (s *Scheduler) Clusters() int { return len(s.clusters) }

// ClusterOf reports the cluster a pool index is assigned to (-1 if the
// index is outside the tracked pool).
func (s *Scheduler) ClusterOf(poolIndex int) int {
	if poolIndex < 0 || poolIndex >= len(s.assign) {
		return -1
	}
	return s.assign[poolIndex]
}
