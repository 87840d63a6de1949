// Package mcmc implements the Metropolis–Hastings mutator-selection
// machinery of §2.2.2: mutators are ranked by their empirical success
// rate at creating representative classfiles, and the sampler draws
// mutators so that the rank distribution approaches the geometric
// distribution Pr(X = k) = (1-p)^(k-1) p — high-success mutators are
// proposed often while the worst mutator still has a chance.
package mcmc

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/telemetry"
)

// Sampler is the Metropolis–Hastings chain over mutator ranks. It owns
// no RNG of its own: each Next call draws from the generator its caller
// passes, so the chain's stochastic behaviour is controlled entirely by
// the caller's stream (the campaign engine hands it the per-iteration
// draw stream).
type Sampler struct {
	n int
	p float64

	selected  []int // times each mutator id was selected
	succeeded []int // representative classfiles each mutator id created
	// order maps rank -> mutator id, sorted by descending success rate;
	// rank maps mutator id -> rank (0-based; the paper's k is rank+1).
	order []int
	rank  []int
	// rates is resort's scratch: each id's success rate, computed once
	// per re-sort instead of once per comparison.
	rates []float64

	current int // current sample (mutator id), the chain state mu1
	total   int // total selections

	// Live per-mutator telemetry, attached via Instrument; nil slices
	// (the default) keep the chain telemetry-free.
	selGauges  []*telemetry.Gauge
	succGauges []*telemetry.Gauge
}

// NewSampler builds a chain over n mutators with geometric parameter p.
// The initial state is a uniformly random mutator (Algorithm 1 line 3);
// rng is consumed only for that initial draw.
func NewSampler(n int, p float64, rng *rand.Rand) *Sampler {
	if n <= 0 {
		panic("mcmc: sampler needs at least one mutator")
	}
	s := &Sampler{
		n:         n,
		p:         p,
		selected:  make([]int, n),
		succeeded: make([]int, n),
		order:     make([]int, n),
		rank:      make([]int, n),
		rates:     make([]float64, n),
	}
	for i := 0; i < n; i++ {
		s.order[i] = i
		s.rank[i] = i
	}
	s.current = rng.Intn(n)
	return s
}

// Instrument attaches live per-mutator gauges, indexed by mutator id:
// selected[id] tracks the selection count, succeeded[id] the
// representative count, updated as Next and Record run. Telemetry is
// observe-only — the chain's stochastic behaviour is untouched. Either
// slice may be nil or short; missing entries are skipped.
func (s *Sampler) Instrument(selected, succeeded []*telemetry.Gauge) {
	s.selGauges = selected
	s.succGauges = succeeded
}

// P returns the geometric parameter.
func (s *Sampler) P() float64 { return s.p }

// N returns the number of mutators.
func (s *Sampler) N() int { return s.n }

// Next performs one Metropolis–Hastings step (Algorithm 1 lines 6–10)
// and returns the accepted mutator id. The proposal distribution is
// uniform (hence symmetric), so the acceptance probability reduces to
// A(mu1→mu2) = min(1, (1-p)^(k2-k1)): proposals ranked at least as well
// as the current state are always accepted; worse-ranked proposals are
// accepted with geometrically decaying probability.
//
// Note: Algorithm 1's line 10 as printed inverts the comparison; we
// follow the acceptance formula of the §2.2.2 text, which matches
// standard Metropolis–Hastings.
func (s *Sampler) Next(rng *rand.Rand) int {
	k1 := s.rank[s.current]
	for {
		mu2 := rng.Intn(s.n)
		k2 := s.rank[mu2]
		if k2 <= k1 || rng.Float64() < math.Pow(1-s.p, float64(k2-k1)) {
			s.current = mu2
			s.selected[mu2]++
			s.total++
			if mu2 < len(s.selGauges) {
				s.selGauges[mu2].Set(int64(s.selected[mu2]))
			}
			return mu2
		}
	}
}

// Record updates the success statistics of a mutator after its mutant
// was judged (success = accepted as representative) and re-sorts the
// rank order (Algorithm 1 lines 15–16).
func (s *Sampler) Record(id int, success bool) {
	if success {
		s.succeeded[id]++
		if id < len(s.succGauges) {
			s.succGauges[id].Set(int64(s.succeeded[id]))
		}
	}
	s.resort()
}

// SuccessRate returns succ(mu) = #representative / #selected.
func (s *Sampler) SuccessRate(id int) float64 {
	if s.selected[id] == 0 {
		return 0
	}
	return float64(s.succeeded[id]) / float64(s.selected[id])
}

// Frequency returns the fraction of all selections that chose id.
func (s *Sampler) Frequency(id int) float64 {
	if s.total == 0 {
		return 0
	}
	return float64(s.selected[id]) / float64(s.total)
}

// Selected returns how many times id was selected.
func (s *Sampler) Selected(id int) int { return s.selected[id] }

// Succeeded returns how many representative classfiles id created.
func (s *Sampler) Succeeded(id int) int { return s.succeeded[id] }

// Rank returns the current 0-based rank of id (0 = highest success rate).
func (s *Sampler) Rank(id int) int { return s.rank[id] }

// Order returns mutator ids in descending success-rate order (a copy).
func (s *Sampler) Order() []int { return append([]int(nil), s.order...) }

// resort re-sorts mutators by descending success rate; ties keep id
// order so the sort is deterministic. (rate desc, id asc) is a strict
// total order, so any correct sort yields the same ranks; an insertion
// pass is the cheap one here, because between two re-sorts only the
// few mutators drawn or recorded since have moved.
func (s *Sampler) resort() {
	for id := range s.rates {
		s.rates[id] = s.SuccessRate(id)
	}
	o := s.order
	for i := 1; i < len(o); i++ {
		id, j := o[i], i
		for ; j > 0 && s.ranksAbove(id, o[j-1]); j-- {
			o[j] = o[j-1]
		}
		o[j] = id
	}
	for r, id := range o {
		s.rank[id] = r
	}
}

// ranksAbove reports whether mutator a sorts before mutator b: a higher
// success rate, or an equal rate and a lower id.
func (s *Sampler) ranksAbove(a, b int) bool {
	if s.rates[a] != s.rates[b] {
		return s.rates[a] > s.rates[b]
	}
	return a < b
}

// UniformSampler is the ablation baseline used by uniquefuzz: mutators
// are selected uniformly at random with no success-rate guidance. Like
// Sampler it draws from the caller's generator.
type UniformSampler struct {
	n        int
	selected []int
	total    int
}

// NewUniformSampler builds the unguided selector.
func NewUniformSampler(n int) *UniformSampler {
	return &UniformSampler{n: n, selected: make([]int, n)}
}

// Next selects a mutator uniformly from rng.
func (u *UniformSampler) Next(rng *rand.Rand) int {
	id := rng.Intn(u.n)
	u.selected[id]++
	u.total++
	return id
}

// Record is a no-op; the uniform sampler ignores feedback.
func (u *UniformSampler) Record(int, bool) {}

// Frequency returns the fraction of selections that chose id.
func (u *UniformSampler) Frequency(id int) float64 {
	if u.total == 0 {
		return 0
	}
	return float64(u.selected[id]) / float64(u.total)
}

// Selector is the interface both samplers satisfy; the campaign engine
// is parameterised over it. Next draws from the generator the caller
// supplies — the engine's sequential draw stage passes the iteration's
// derived draw stream, which is what makes selection deterministic at
// any worker count.
type Selector interface {
	Next(rng *rand.Rand) int
	Record(id int, success bool)
}

var (
	_ Selector = (*Sampler)(nil)
	_ Selector = (*UniformSampler)(nil)
)

// Geometric returns Pr(X = k) = (1-p)^(k-1) p for k ≥ 1.
func Geometric(p float64, k int) float64 {
	if k < 1 {
		return 0
	}
	return math.Pow(1-p, float64(k-1)) * p
}

// PBounds computes the valid range (lo, hi) for the geometric parameter
// under the three conditions of §2.2.2's parameter estimation, for n
// mutators and deviation eps:
//
//  1. Σ_{k=1..n} Pr(X=k) ≥ 0.95   (accumulative probability approaches 1)
//  2. p ≥ 1/n                      (top mutator beats uniform selection)
//  3. (1-p)^(n-1) p > eps          (worst mutator keeps a chance)
//
// For n = 129, eps = 0.001 this reproduces the paper's ≈(0.022, 0.025).
func PBounds(n int, eps float64) (lo, hi float64, err error) {
	cond := func(p float64) (bool, bool, bool) {
		c1 := 1-math.Pow(1-p, float64(n)) >= 0.95
		c2 := p >= 1/float64(n)
		c3 := math.Pow(1-p, float64(n-1))*p > eps
		return c1, c2, c3
	}
	const step = 1e-5
	lo, hi = -1, -1
	for p := step; p < 0.5; p += step {
		c1, c2, c3 := cond(p)
		if c1 && c2 && c3 {
			if lo < 0 {
				lo = p
			}
			hi = p
		}
	}
	if lo < 0 {
		return 0, 0, fmt.Errorf("mcmc: no feasible p for n=%d eps=%g", n, eps)
	}
	return lo, hi, nil
}

// DefaultP returns the paper's choice p = 3/n (≈ 0.023 for n = 129).
func DefaultP(n int) float64 { return 3 / float64(n) }
