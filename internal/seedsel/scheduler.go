package seedsel

import (
	"encoding/json"
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

// seedInfo is one corpus entry's classification inputs: the structural
// fingerprint of its lowered classfile and its baseline coverage trace
// on the reference VM (both zero/empty for an unlowerable seed).
// lowered says the seed lowered and wrote, so trace is a real run.
type seedInfo struct {
	fp      uint64
	key     coverage.Key
	trace   *coverage.Trace
	lowered bool
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
// Resume so restore can replay the committed prefix into it.
type Scheduler struct {
	strategy    Strategy
	eps         float64
	demoteAfter int

	// ref is the spec every baseline in infos was recorded on.
	ref      jvm.Spec
	seeds    []*jimple.Class
	infos    []seedInfo
	clusters []*cluster
	// assign maps every pool index (initial seed or recycled mutant) to
	// its cluster. Grew extends it in commit order.
	assign []int

	telDraws *telemetry.Counter
	telYield *telemetry.Counter
	telDem   *telemetry.Counter

	// cls is the classification VM, kept for AddSeed and Classify
	// (daemon intake).
	cls *classifier
}

// New builds a scheduler over the seed corpus: it lowers and executes
// every seed once on opts.RefSpec to record fingerprints and baseline
// traces, distils the corpus into clusters, and readies the draw
// policy. The seed runs are spread over GOMAXPROCS goroutines, each
// with its own VM, and are the campaign's seed pass too: the engine
// takes their traces through Baselines instead of running the seeds
// again. Construction is deterministic — same corpus and options,
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
		strategy:    opts.Strategy,
		eps:         opts.epsilon(),
		demoteAfter: opts.demoteAfter(),
		ref:         opts.RefSpec,
		seeds:       seeds,
	}
	sp := telemetry.StartSpan(opts.Telemetry.Histogram("seedsel.baselines_ns"))
	s.infos = s.classifyAll(seeds)
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

// classifier is one goroutine's instrumented reference VM and
// lowering context.
type classifier struct {
	vm   *jvm.VM
	rec  *coverage.Recorder
	lctx *jimple.LowerCtx
}

func newClassifier(ref jvm.Spec) *classifier {
	c := &classifier{
		vm:   jvm.New(ref),
		rec:  coverage.NewRecorder(jvm.ProbeRegistry()),
		lctx: jimple.NewLowerCtx(),
	}
	c.vm.SetRecorder(c.rec)
	return c
}

// classifyAll classifies seed i into slot i on GOMAXPROCS goroutines,
// each with its own classifier. Every slot depends only on its seed,
// so the result is the serial one at any GOMAXPROCS. The first
// classifier stays on as the scheduler's own.
func (s *Scheduler) classifyAll(seeds []*jimple.Class) []seedInfo {
	infos := make([]seedInfo, len(seeds))
	workers := min(runtime.GOMAXPROCS(0), len(seeds))
	cls := make([]*classifier, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range cls {
		cls[w] = newClassifier(s.ref)
		wg.Add(1)
		go func(c *classifier) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(seeds) {
					return
				}
				infos[i] = c.classifyInputs(seeds[i])
			}
		}(cls[w])
	}
	wg.Wait()
	s.cls = cls[0]
	return infos
}

// classifyInputs lowers one class and records its structural
// fingerprint and baseline trace (zero values if it does not lower).
// The File is written first — that brings it in step with its bytes —
// and then run in place of a parse of them.
func (c *classifier) classifyInputs(cl *jimple.Class) seedInfo {
	f, err := c.lctx.Lower(cl)
	if err != nil {
		return seedInfo{trace: coverage.NewTrace()}
	}
	if _, err := f.Bytes(); err != nil {
		return seedInfo{trace: coverage.NewTrace()}
	}
	c.rec.Reset()
	c.vm.RunParsed(f)
	tr := c.rec.Trace()
	return seedInfo{fp: analysis.Fingerprint(f), key: tr.Key(), trace: tr, lowered: true}
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
		in := s.infos[i]
		gi, ok := groupIdx[in.fp]
		if !ok {
			gi = len(groups)
			groupIdx[in.fp] = gi
			groups = append(groups, group{fp: in.fp, trace: coverage.NewTrace()})
		}
		groups[gi].trace = coverage.Merge(groups[gi].trace, in.trace)
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
		ci := s.classify(s.infos[i])
		s.assign = append(s.assign, ci)
		c := s.clusters[ci]
		c.members = append(c.members, i)
		c.seedCount++
	}
}

// classify maps classification inputs to a cluster index.
func (s *Scheduler) classify(in seedInfo) int {
	best, bestOverlap := 0, -1
	for ci, c := range s.clusters {
		if in.fp != 0 && in.fp == c.fp {
			return ci
		}
		if ov := in.trace.OverlapCount(c.trace); ov > bestOverlap {
			best, bestOverlap = ci, ov
		}
	}
	return best
}

// Strategy implements campaign.SeedSource.
func (s *Scheduler) Strategy() string { return string(s.strategy) }

// Corpus implements campaign.SeedSource.
func (s *Scheduler) Corpus() []*jimple.Class { return s.seeds }

// Baselines implements campaign.SeedSource: the baseline trace of
// every corpus entry as New (or AddSeed) recorded it, nil for a seed
// that did not lower. It returns nil when ref is not the spec the
// traces were recorded on. The traces are shared, not copied; traces
// are immutable and their keys were computed at classification.
func (s *Scheduler) Baselines(ref jvm.Spec) []*coverage.Trace {
	if ref != s.ref {
		return nil
	}
	out := make([]*coverage.Trace, len(s.infos))
	for i, in := range s.infos {
		if in.lowered {
			out[i] = in.trace
		}
	}
	return out
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
	if s.eps > 0 && rng.Float64() < s.eps {
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
	if !c.demoted && s.demoteAfter > 0 && c.since >= s.demoteAfter {
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

// schedState is the deterministic checkpoint encoding of a scheduler's
// evolving state. Cluster structure and membership are re-derivable
// (construction is deterministic, Grew replays from the draw log), so
// the encoding carries the counters plus the assignment vector as an
// integrity cross-check.
type schedState struct {
	Strategy    string         `json:"strategy"`
	Epsilon     float64        `json:"epsilon"`
	DemoteAfter int            `json:"demote_after"`
	Clusters    []clusterState `json:"clusters"`
	Assign      []int          `json:"assign"`
}

type clusterState struct {
	Members   int   `json:"members"`
	Draws     int64 `json:"draws"`
	Yield     int64 `json:"yield,omitempty"`
	Demotions int64 `json:"demotions,omitempty"`
	Since     int   `json:"since,omitempty"`
	Demoted   bool  `json:"demoted,omitempty"`
}

// MarshalState implements campaign.SeedSource.
func (s *Scheduler) MarshalState() ([]byte, error) {
	st := schedState{
		Strategy:    string(s.strategy),
		Epsilon:     s.eps,
		DemoteAfter: s.demoteAfter,
		Clusters:    make([]clusterState, len(s.clusters)),
		Assign:      s.assign,
	}
	for i, c := range s.clusters {
		st.Clusters[i] = clusterState{
			Members:   len(c.members),
			Draws:     c.draws,
			Yield:     c.yield,
			Demotions: c.demotions,
			Since:     c.since,
			Demoted:   c.demoted,
		}
	}
	return json.Marshal(st)
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
	in := s.cls.classifyInputs(c)
	ci := s.classify(in)
	idx := len(s.seeds)
	s.seeds = append(s.seeds, c)
	s.infos = append(s.infos, in)
	s.assign = append(s.assign, ci)
	cl := s.clusters[ci]
	cl.members = append(cl.members, idx)
	cl.seedCount++
	return SeedClass{Fingerprint: in.fp, TraceKeyHi: in.key.Hi, TraceKeyLo: in.key.Lo, Cluster: ci}
}

// Classify reports where AddSeed would place the class, without
// mutating the scheduler.
func (s *Scheduler) Classify(c *jimple.Class) SeedClass {
	in := s.cls.classifyInputs(c)
	ci := s.classify(in)
	return SeedClass{Fingerprint: in.fp, TraceKeyHi: in.key.Hi, TraceKeyLo: in.key.Lo, Cluster: ci}
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
