// Package seedsel is the seed-corpus intelligence layer. Pass is
// Algorithm 1's seed pass over a corpus that only grows: every seed run
// once on the reference VM, shared by every campaign on the corpus.
// Over it, a Scheduler clusters the corpus by structural fingerprint
// and baseline coverage trace (greedy coverage-set distillation over
// the interned bitset traces) and schedules draws across the clusters —
// uniformly per cluster ("clustered", a diversity rebalance of the
// paper's flat draw) or weighted by observed mutant yield with stagnant
// clusters demoted ("yield"), always with an epsilon exploration floor
// so no seed starves. Pass.Source makes every engine run's source, the
// flat draw or a Scheduler, which satisfy campaign.SeedSource
// structurally: this package does not import campaign.
//
// Determinism. A Scheduler is a pure function of (seed corpus, options)
// and the sequence of Pick/Observe/Grew calls the engine's sequential
// draw/commit stages issue: Pick consumes only the per-iteration draw
// stream it is handed, cluster iteration follows slice order, and every
// tie breaks toward the lowest index. Campaign results are therefore
// bit-identical at any worker count, and a campaign run again on a
// fresh scheduler (a restarted daemon epoch, on a fresh fork of the
// daemon's intake index) reproduces it exactly.
package seedsel

import (
	"fmt"

	"repro/internal/jvm"
	"repro/internal/telemetry"
)

// Strategy names a seed-selection policy.
type Strategy string

const (
	// Uniform is the paper's flat draw: one uniform pick per draw, no
	// clusters.
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

// ParseStrategy validates a flag value; "" is Uniform. Unknown values
// are an error — callers must reject them with a usage error, never
// fall back.
func ParseStrategy(s string) (Strategy, error) {
	switch Strategy(s) {
	case "":
		return Uniform, nil
	case Uniform, Clustered, Yield:
		return Strategy(s), nil
	}
	return "", fmt.Errorf("seedsel: unknown seed strategy %q (want %s)", s, Strategies())
}

// Default scheduling parameters: the exploration floor keeps every
// pool entry reachable on ~1 draw in 10; a cluster that goes 48
// consecutive observed draws without an accepted mutant is demoted
// (its weight quartered under the yield strategy) until it yields
// again.
const (
	DefaultEpsilon     = 0.1
	DefaultDemoteAfter = 48
)

// Options parameterises scheduler construction.
type Options struct {
	// Strategy is Clustered or Yield (Pass.Source makes the flat draw).
	Strategy Strategy
	// RefSpec is the instrumented VM baseline traces are recorded on —
	// use the campaign's reference spec so cluster structure reflects
	// the coverage domain the campaign accepts against.
	RefSpec jvm.Spec
	// Telemetry, when non-nil, receives per-cluster draw/yield/demotion
	// counters (ClusterMetric) plus corpus-wide totals
	// (campaign.seeds.{draws,yield,demotions}), and the pass's telemetry
	// (NewPass). Observe-only.
	Telemetry *telemetry.Registry
}

// ClusterMetric names the counter a Scheduler keeps for cluster i's
// stat ("draws", "yield" or "demotions") in its Telemetry registry:
// campaign.seeds.cluster<i>.<stat>.
func ClusterMetric(i int, stat string) string {
	return fmt.Sprintf("campaign.seeds.cluster%d.%s", i, stat)
}
