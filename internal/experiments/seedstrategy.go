package experiments

import (
	"fmt"
	"strings"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/difftest"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/seedgen"
	"repro/internal/seedsel"
	"repro/internal/telemetry"
)

// parseScaleStrategy maps Scale.SeedStrategy to a policy ("" is the
// uniform default; anything else must parse).
func parseScaleStrategy(s string) (seedsel.Strategy, error) {
	if s == "" {
		return seedsel.Uniform, nil
	}
	return seedsel.ParseStrategy(s)
}

// seedSourceFor builds one campaign's SeedSource: the flat-uniform
// adapter, or a fresh scheduler (stateful — one per campaign run). The
// scheduler is also returned directly so callers can read its cluster
// table after the run.
func seedSourceFor(strategy seedsel.Strategy, seeds []*jimple.Class, reg *telemetry.Registry) (campaign.SeedSource, *seedsel.Scheduler, error) {
	if strategy == seedsel.Uniform {
		return campaign.FlatSeeds(seeds), nil, nil
	}
	sched, err := seedsel.New(seeds, seedsel.Options{Strategy: strategy, RefSpec: jvm.HotSpot9(), Telemetry: reg})
	if err != nil {
		return nil, nil, err
	}
	return sched, sched, nil
}

// SeedStrategyRow is one strategy's outcome at the shared budget.
type SeedStrategyRow struct {
	Strategy    string
	Iterations  int
	GenClasses  int
	TestClasses int
	Succ        float64
	// Clusters is the scheduler's cluster count (1 means the corpus
	// collapsed to one representative; 0 under uniform, which has no
	// clustering).
	Clusters int
	// Draws/Yield/Demotions total the scheduler's per-cluster counters
	// (the campaign.seeds.* telemetry); zero under uniform.
	Draws     int64
	Yield     int64
	Demotions int64
	// Differential-testing outcome of the strategy's TestClasses suite.
	Discrepancies int
	Distinct      int
	DiffRate      float64
	// PerCluster is the strategy's final cluster table.
	PerCluster []seedsel.ClusterStat
}

// SeedStrategyStudy compares the seed-selection policies on
// classfuzz[stbr] under equal budgets over the same corpus.
type SeedStrategyStudy struct {
	SeedCount  int
	Iterations int
	Rows       []SeedStrategyRow
	// UniformMatchesBaseline reports that the uniform row's campaign —
	// run through the SeedSource API — reproduced an independent
	// baseline run draw-for-draw, pinning the adapter to the paper's
	// flat-draw behaviour.
	UniformMatchesBaseline bool
}

// RunSeedStrategyStudy runs classfuzz[stbr] once per strategy at an
// equal budget, differentially tests each suite, and cross-checks the
// uniform row against a fresh baseline campaign.
func RunSeedStrategyStudy(scale Scale) (*SeedStrategyStudy, error) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(scale.SeedCount, scale.Seed))
	runner := difftest.NewStandardRunner()
	study := &SeedStrategyStudy{SeedCount: scale.SeedCount, Iterations: scale.Iterations}

	run := func(strategy seedsel.Strategy, reg *telemetry.Registry) (*campaign.Result, *seedsel.Scheduler, error) {
		src, sched, err := seedSourceFor(strategy, seeds, reg)
		if err != nil {
			return nil, nil, err
		}
		res, err := campaign.Run(campaign.Config{
			Algorithm: campaign.Classfuzz, Criterion: coverage.STBR, Source: src,
			Iterations: scale.Iterations, Rand: scale.Seed + 100,
			RefSpec: jvm.HotSpot9(), Workers: scale.Workers, Telemetry: reg,
		})
		return res, sched, err
	}

	for _, strategy := range []seedsel.Strategy{seedsel.Uniform, seedsel.Clustered, seedsel.Yield} {
		res, sched, err := run(strategy, telemetry.New())
		if err != nil {
			return nil, fmt.Errorf("experiments: seed-strategy %s: %w", strategy, err)
		}
		row := SeedStrategyRow{
			Strategy:    string(strategy),
			Iterations:  res.Iterations,
			GenClasses:  len(res.Gen),
			TestClasses: len(res.Test),
			Succ:        res.Succ(),
		}
		if sched != nil {
			row.Clusters = sched.Clusters()
			row.PerCluster = sched.ClusterStats()
			for _, cs := range row.PerCluster {
				row.Draws += cs.Draws
				row.Yield += cs.Yield
				row.Demotions += cs.Demotions
			}
		}
		var classes [][]byte
		for _, g := range res.Test {
			classes = append(classes, g.Data)
		}
		sum := runner.Evaluate(classes, difftest.Options{})
		row.Discrepancies = sum.Discrepancies
		row.Distinct = sum.DistinctCount()
		row.DiffRate = sum.DiffRate()
		study.Rows = append(study.Rows, row)

		if strategy == seedsel.Uniform {
			base, _, err := run(seedsel.Uniform, nil)
			if err != nil {
				return nil, fmt.Errorf("experiments: uniform baseline: %w", err)
			}
			study.UniformMatchesBaseline = drawsEqual(res.Draws, base.Draws) &&
				len(res.Test) == len(base.Test) && len(res.Gen) == len(base.Gen)
		}
	}
	return study, nil
}

func drawsEqual(a, b []campaign.DrawRecord) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
		fmt.Fprintf(&b, "%-10s %11d %12d %13d %6.1f%% %9d %7d %7d %10d %6d %9d %6.1f%%\n",
			r.Strategy, r.Iterations, r.GenClasses, r.TestClasses, r.Succ*100,
			r.Clusters, r.Draws, r.Yield, r.Demotions,
			r.Discrepancies, r.Distinct, r.DiffRate*100)
	}
	for _, r := range s.Rows {
		for _, cs := range r.PerCluster {
			fmt.Fprintf(&b, "  %s cluster %d: %d seeds, %d pool, %d draws, %d yield, %d demotions, demoted=%v\n",
				r.Strategy, cs.Cluster, cs.Seeds, cs.Pool, cs.Draws, cs.Yield, cs.Demotions, cs.Demoted)
		}
	}
	fmt.Fprintf(&b, "uniform row matches flat-draw baseline: %v\n", s.UniformMatchesBaseline)
	return b.String()
}
