// Package seedsel is the seed-corpus intelligence layer: it clusters a
// seed corpus by structural fingerprint and baseline coverage trace
// (greedy coverage-set distillation over the interned bitset traces),
// and schedules draws across the clusters — uniformly per cluster
// ("clustered", a diversity rebalance of the paper's flat draw) or
// weighted by observed mutant yield with stagnant clusters demoted
// ("yield"), always with an epsilon exploration floor so no seed
// starves. Scheduler satisfies campaign.SeedSource structurally (this
// package deliberately does not import campaign, so the engine's tests
// can drive a Scheduler without an import cycle).
//
// Determinism. A Scheduler is a pure function of (seed corpus, options)
// and the sequence of Pick/Observe/Grew calls the engine's sequential
// draw/commit stages issue: Pick consumes only the per-iteration draw
// stream it is handed, cluster iteration follows slice order, and every
// tie breaks toward the lowest index. Campaign results are therefore
// bit-identical at any worker count, and a kill/resume replay
// rebuilds the exact scheduler state (the snapshot carries a
// serialized copy which restore cross-checks).
package seedsel

import (
	"fmt"

	"repro/internal/jvm"
	"repro/internal/telemetry"
)

// Strategy names a seed-selection policy.
type Strategy string

const (
	// Uniform is the paper's flat draw (campaign.FlatSeeds implements
	// it; New refuses it — there is no scheduler to build).
	Uniform Strategy = "uniform"
	// Clustered draws a cluster uniformly, then a member uniformly:
	// structurally/behaviourally distinct seed groups get equal draw
	// mass regardless of their population.
	Clustered Strategy = "clustered"
	// Yield draws clusters proportionally to their observed acceptance
	// yield (Laplace-smoothed), demoting clusters that stagnate.
	Yield Strategy = "yield"
)

// Strategies lists the accepted -seed-strategy flag values.
func Strategies() string { return "uniform|clustered|yield" }

// ParseStrategy validates a flag value. Unknown values are an error —
// callers must reject them with a usage error, never fall back.
func ParseStrategy(s string) (Strategy, error) {
	switch Strategy(s) {
	case Uniform, Clustered, Yield:
		return Strategy(s), nil
	}
	return "", fmt.Errorf("seedsel: unknown seed strategy %q (want %s)", s, Strategies())
}

// Default scheduling parameters: the exploration floor keeps every
// pool entry reachable on ~1 draw in 10; a cluster that goes 48
// consecutive observed draws without an accepted mutant is demoted
// (its weight quartered under the yield strategy) until it yields
// again. Both are overridable per Options.
const (
	DefaultEpsilon     = 0.1
	DefaultDemoteAfter = 48
)

// Options parameterises scheduler construction.
type Options struct {
	// Strategy is Clustered or Yield (Uniform has no scheduler).
	Strategy Strategy
	// RefSpec is the instrumented VM baseline traces are recorded on —
	// use the campaign's reference spec so cluster structure reflects
	// the coverage domain the campaign accepts against.
	RefSpec jvm.Spec
	// Epsilon overrides the exploration floor (0 selects the default;
	// negative disables the floor entirely).
	Epsilon float64
	// DemoteAfter overrides the stagnation threshold (0 selects the
	// default; negative disables demotion).
	DemoteAfter int
	// Base restricts cluster representatives to the corpus prefix
	// seeds[:Base] (0 means the whole corpus). The daemon pins Base to
	// its generated corpus so cluster identities stay stable as
	// submitted seeds join — newcomers are assigned to existing
	// clusters by trace overlap, never founding their own.
	Base int
	// Telemetry, when non-nil, receives per-cluster draw/yield/demotion
	// counters (campaign.seeds.cluster<i>.*) plus corpus-wide totals
	// (campaign.seeds.{draws,yield,demotions}), and times New's seed
	// pass as seedsel.baselines_ns. Observe-only.
	Telemetry *telemetry.Registry
}

func (o *Options) epsilon() float64 {
	switch {
	case o.Epsilon == 0:
		return DefaultEpsilon
	case o.Epsilon < 0:
		return 0
	}
	return o.Epsilon
}

func (o *Options) demoteAfter() int {
	switch {
	case o.DemoteAfter == 0:
		return DefaultDemoteAfter
	case o.DemoteAfter < 0:
		return 0
	}
	return o.DemoteAfter
}
