package seedsel

import (
	"fmt"
	"math/rand"

	"repro/internal/coverage"
	"repro/internal/jimple"
	"repro/internal/telemetry"
)

// cluster is one scheduling unit: a distilled representative coverage
// set and every pool entry assigned to it.
type cluster struct {
	// fp and trace identify the representative group the greedy
	// distillation picked; trace is what newcomers' overlap is measured
	// against.
	fp    uint64
	trace *coverage.Trace
	// members are the pool indices assigned here, in the order they
	// joined: corpus seeds first, recycled mutants via Grew.
	members []int
	// seedCount is how many corpus seeds landed here (members grows
	// past it as the pool recycles mutants).
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

// Scheduler is a SeedSource over the first seeds of a Pass: their
// clusters and the per-cluster yield statistics the clustered or yield
// draw policy feeds on. It serves exactly one engine run; the pass's
// index is one no run draws from.
type Scheduler struct {
	strategy Strategy
	view
	clusters []*cluster
	// assign maps every pool index (initial seed or recycled mutant) to
	// its cluster. Grew extends it in commit order.
	assign []int

	telDraws *telemetry.Counter
	telYield *telemetry.Counter
	telDem   *telemetry.Counter
}

// New builds a clustered or yield scheduler over the seed corpus on a
// fresh Pass, which runs every seed and distils the clusters.
// Construction is deterministic — same corpus and options, same
// clustering, at any GOMAXPROCS.
func New(seeds []*jimple.Class, opts Options) (*Scheduler, error) {
	if opts.Strategy != Clustered && opts.Strategy != Yield {
		return nil, fmt.Errorf("seedsel: New takes the clustered or yield strategy, not %q", opts.Strategy)
	}
	if len(seeds) == 0 {
		return nil, fmt.Errorf("seedsel: empty seed corpus")
	}
	return NewPass(seeds, opts.RefSpec, opts.Telemetry).Source(opts.Strategy, len(seeds), opts.Telemetry).(*Scheduler), nil
}

// cluster distils the corpus's seed runs into the clusters'
// representative coverage sets.
//
// Groups form by structural fingerprint (first-occurrence order); each
// group's trace is the word-OR of its members' baselines. Greedy
// distillation then repeatedly picks the group with the largest
// marginal coverage gain over the running union (ties to the lowest
// group index) until no group adds anything — those picks, in pick
// order, are the clusters.
func (s *Scheduler) cluster(runs []SeedRun) {
	type group struct {
		fp    uint64
		trace *coverage.Trace
	}
	var groups []group
	groupIdx := map[uint64]int{}
	for _, in := range runs {
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
}

// classify maps a seed's run to a cluster index: the cluster whose
// representative trace it overlaps most, ties to the lowest cluster,
// short-circuiting to a cluster whose representative group shares its
// fingerprint. A seed that did not lower overlaps nothing, so it joins
// the first cluster.
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

// Pick implements campaign.SeedSource: an epsilon-floor uniform draw
// or a yield/diversity-weighted cluster pick followed by a uniform
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
	s.join(s.assign[parent], false)
}

// join appends the next pool entry to cluster ci, as a corpus seed or a
// recycled mutant. Cluster identities never change.
func (s *Scheduler) join(ci int, seed bool) {
	s.assign = append(s.assign, ci)
	cl := s.clusters[ci]
	cl.members = append(cl.members, len(s.assign)-1)
	if seed {
		cl.seedCount++
	}
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

// ClusterOf reports the cluster a pool index is assigned to (-1 if the
// index is outside the tracked pool).
func (s *Scheduler) ClusterOf(poolIndex int) int {
	if poolIndex < 0 || poolIndex >= len(s.assign) {
		return -1
	}
	return s.assign[poolIndex]
}
