package experiments

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/difftest"
	"repro/internal/jvm"
	"repro/internal/seedgen"
	"repro/internal/seedsel"
	"repro/internal/telemetry"
)

// SeedStrategyRow is one strategy's outcome at the shared budget.
type SeedStrategyRow struct {
	Strategy    string
	Iterations  int
	GenClasses  int
	TestClasses int
	Succ        float64
	// Differential-testing outcome of the strategy's TestClasses suite.
	Discrepancies int
	Distinct      int
	DiffRate      float64
	// PerCluster is the strategy's final cluster table, nil under
	// uniform, which has no clustering. Its draws, yield and demotions
	// are the campaign.seeds.* telemetry.
	PerCluster []seedsel.ClusterStat
}

// SeedStrategyStudy compares the seed-selection policies on
// classfuzz[stbr] under equal budgets over the same corpus.
type SeedStrategyStudy struct {
	SeedCount  int
	Iterations int
	Rows       []SeedStrategyRow
}

// RunSeedStrategyStudy runs classfuzz[stbr] once per strategy at an
// equal budget and differentially tests each suite. The three campaigns
// share one seed pass, timed into scale.Telemetry.
func RunSeedStrategyStudy(scale Scale) (*SeedStrategyStudy, error) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(scale.SeedCount, scale.Seed))
	pass := seedsel.NewPass(seeds, jvm.HotSpot9(), scale.Telemetry)
	runner := difftest.NewStandardRunner()
	study := &SeedStrategyStudy{SeedCount: scale.SeedCount, Iterations: scale.Iterations}

	for _, strategy := range []seedsel.Strategy{seedsel.Uniform, seedsel.Clustered, seedsel.Yield} {
		reg := telemetry.New()
		sched := pass.Source(strategy, len(seeds), reg)
		res, err := campaign.Run(campaign.Config{
			Algorithm: campaign.Classfuzz, Criterion: coverage.STBR, Source: sched,
			Iterations: scale.Iterations, Rand: scale.Seed + 100,
			RefSpec: jvm.HotSpot9(), Workers: scale.Workers, Telemetry: reg,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: seed-strategy %s: %w", strategy, err)
		}
		row := SeedStrategyRow{
			Strategy:    string(strategy),
			Iterations:  res.Iterations,
			GenClasses:  len(res.Gen),
			TestClasses: len(res.Test),
			Succ:        res.Succ(),
			PerCluster:  sched.ClusterStats(),
		}
		var classes [][]byte
		for _, g := range res.Test {
			classes = append(classes, g.Data)
		}
		sum := runner.Evaluate(classes, difftest.Options{})
		row.Discrepancies = sum.Count(difftest.Discrepancy)
		row.Distinct = sum.DistinctCount()
		row.DiffRate = sum.DiffRate()
		study.Rows = append(study.Rows, row)
	}
	return study, nil
}

// String renders the study as the committed experiments table.
func (s *SeedStrategyStudy) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Seed-strategy study: classfuzz[stbr], %d seeds, %d iterations per strategy\n",
		s.SeedCount, s.Iterations)
	fmt.Fprintf(&b, "%-10s %11s %12s %13s %7s %9s %7s %7s %10s %6s %9s %7s\n",
		"strategy", "#iterations", "|GenClasses|", "|TestClasses|", "succ",
		"clusters", "draws", "yield", "demotions", "discr", "distinct", "diff")
	for _, r := range s.Rows {
		var draws, yield, demotions int64
		for _, cs := range r.PerCluster {
			draws, yield, demotions = draws+cs.Draws, yield+cs.Yield, demotions+cs.Demotions
		}
		fmt.Fprintf(&b, "%-10s %11d %12d %13d %6.1f%% %9d %7d %7d %10d %6d %9d %6.1f%%\n",
			r.Strategy, r.Iterations, r.GenClasses, r.TestClasses, r.Succ*100,
			len(r.PerCluster), draws, yield, demotions,
			r.Discrepancies, r.Distinct, r.DiffRate*100)
	}
	for _, r := range s.Rows {
		for _, cs := range r.PerCluster {
			fmt.Fprintf(&b, "  %s cluster %d: %d seeds, %d pool, %d draws, %d yield, %d demotions, demoted=%v\n",
				r.Strategy, cs.Cluster, cs.Seeds, cs.Pool, cs.Draws, cs.Yield, cs.Demotions, cs.Demoted)
		}
	}
	return b.String()
}
