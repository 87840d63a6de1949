package campaign

import (
	"testing"

	"repro/internal/coverage"
	"repro/internal/difftest"
	"repro/internal/jvm"
	"repro/internal/mutation"
	"repro/internal/seedgen"
)

func runCampaign(t *testing.T, alg Algorithm, crit coverage.Criterion, iters int) *Result {
	t.Helper()
	cfg := Config{
		Algorithm:  alg,
		Criterion:  crit,
		Source:     FlatSeeds(seedgen.Generate(seedgen.DefaultOptions(30, 5))),
		Iterations: iters,
		Rand:       17,
		RefSpec:    jvm.HotSpot9(),
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestClassfuzzProducesRepresentativeTests(t *testing.T) {
	res := runCampaign(t, Classfuzz, coverage.STBR, 300)
	if len(res.Gen) == 0 {
		t.Fatal("no classes generated")
	}
	if len(res.Test) == 0 {
		t.Fatal("no representative classes accepted")
	}
	if len(res.Test) > len(res.Gen) {
		t.Error("TestClasses must be a subset of GenClasses")
	}
	if res.Succ() <= 0 || res.Succ() > 1 {
		t.Errorf("succ = %g", res.Succ())
	}
	for _, g := range res.Test {
		if !g.Accepted || len(g.Data) == 0 {
			t.Error("accepted class missing data")
		}
	}
	// Coverage-directed campaigns must discard redundant mutants.
	if len(res.Test) == len(res.Gen) {
		t.Error("classfuzz accepted everything: uniqueness filter inactive")
	}
}

func TestRandfuzzAcceptsEverything(t *testing.T) {
	res := runCampaign(t, Randfuzz, coverage.STBR, 300)
	if len(res.Test) != len(res.Gen) {
		t.Errorf("randfuzz: test=%d gen=%d, must be equal", len(res.Test), len(res.Gen))
	}
	if res.GenUniqueStats != 0 {
		t.Error("randfuzz never measures coverage")
	}
}

func TestGreedyfuzzAcceptsFewest(t *testing.T) {
	greedy := runCampaign(t, Greedyfuzz, coverage.STBR, 300)
	cf := runCampaign(t, Classfuzz, coverage.STBR, 300)
	if len(greedy.Test) == 0 {
		t.Fatal("greedyfuzz accepted nothing")
	}
	// Finding 1's shape: greedyfuzz accepts far fewer classes than the
	// uniqueness-based algorithms (98 vs 898 in Table 4).
	if len(greedy.Test) >= len(cf.Test) {
		t.Errorf("greedy accepted %d ≥ classfuzz %d; expected far fewer",
			len(greedy.Test), len(cf.Test))
	}
}

func TestUniquefuzzBetweenGreedyAndClassfuzz(t *testing.T) {
	uf := runCampaign(t, Uniquefuzz, coverage.STBR, 400)
	cf := runCampaign(t, Classfuzz, coverage.STBR, 400)
	if len(uf.Test) == 0 {
		t.Fatal("uniquefuzz accepted nothing")
	}
	// MCMC guidance should yield at least as many representative tests
	// as unguided selection (the paper's +43%); allow equality noise at
	// small scale but never a large deficit.
	if float64(len(cf.Test)) < 0.75*float64(len(uf.Test)) {
		t.Errorf("classfuzz %d far below uniquefuzz %d", len(cf.Test), len(uf.Test))
	}
}

func TestCriterionOrderingOnTestCounts(t *testing.T) {
	st := runCampaign(t, Classfuzz, coverage.ST, 300)
	stbr := runCampaign(t, Classfuzz, coverage.STBR, 300)
	// [st] is strictly coarser than [stbr]: it can only accept fewer.
	if len(st.Test) > len(stbr.Test) {
		t.Errorf("[st] accepted %d > [stbr] %d", len(st.Test), len(stbr.Test))
	}
}

func TestMutatorStatsConsistency(t *testing.T) {
	res := runCampaign(t, Classfuzz, coverage.STBR, 250)
	if len(res.MutatorStats) != mutation.TotalMutators {
		t.Fatalf("stats for %d mutators", len(res.MutatorStats))
	}
	totalSel, totalSucc := 0, 0
	for _, st := range res.MutatorStats {
		if st.Success > st.Selected {
			t.Errorf("%s: success %d > selected %d", st.Name, st.Success, st.Selected)
		}
		totalSel += st.Selected
		totalSucc += st.Success
	}
	if totalSel != res.Iterations {
		t.Errorf("total selections %d != iterations %d", totalSel, res.Iterations)
	}
	if totalSucc != len(res.Test) {
		t.Errorf("total successes %d != |TestClasses| %d", totalSucc, len(res.Test))
	}
}

func TestDeterministicCampaign(t *testing.T) {
	a := runCampaign(t, Classfuzz, coverage.STBR, 150)
	b := runCampaign(t, Classfuzz, coverage.STBR, 150)
	if len(a.Gen) != len(b.Gen) || len(a.Test) != len(b.Test) {
		t.Fatalf("campaign not deterministic: gen %d/%d test %d/%d",
			len(a.Gen), len(b.Gen), len(a.Test), len(b.Test))
	}
	for i := range a.Gen {
		if a.Gen[i].MutatorID != b.Gen[i].MutatorID || a.Gen[i].Stats != b.Gen[i].Stats {
			t.Fatalf("generation diverged at %d", i)
		}
	}
}

func TestSeedRecyclingAblation(t *testing.T) {
	base := runCampaign(t, Classfuzz, coverage.STBR, 300)
	cfg := Config{
		Algorithm:       Classfuzz,
		Criterion:       coverage.STBR,
		Source:          FlatSeeds(seedgen.Generate(seedgen.DefaultOptions(30, 5))),
		Iterations:      300,
		Rand:            17,
		RefSpec:         jvm.HotSpot9(),
		NoSeedRecycling: true,
	}
	noRecycle, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("recycling: %d tests; no recycling: %d tests", len(base.Test), len(noRecycle.Test))
	if len(noRecycle.Test) == 0 {
		t.Error("no-recycling campaign accepted nothing")
	}
}

func TestGeneratedSuiteTriggersDiscrepancies(t *testing.T) {
	// Finding 3's mechanism: the representative suite must reveal more
	// discrepancies proportionally than the raw seed corpus.
	res := runCampaign(t, Classfuzz, coverage.STBR, 500)
	var classes [][]byte
	for _, g := range res.Test {
		classes = append(classes, g.Data)
	}
	runner := difftest.NewStandardRunner()
	sum := runner.Evaluate(classes, difftest.Options{})
	if sum.Count(difftest.Discrepancy) == 0 {
		t.Error("representative suite triggered no discrepancies")
	}
	if sum.DistinctCount() < 2 {
		t.Errorf("only %d distinct discrepancies", sum.DistinctCount())
	}
	t.Logf("suite: %d classes, %d discrepancies (%.1f%%), %d distinct",
		len(sum.Vectors), sum.Count(difftest.Discrepancy), sum.DiffRate()*100, sum.DistinctCount())
}

func TestBytefuzzBlindMutation(t *testing.T) {
	res := runCampaign(t, Bytefuzz, coverage.STBR, 300)
	if len(res.Gen) != 300 || len(res.Test) != 300 {
		t.Fatalf("bytefuzz must keep every mutant: gen=%d test=%d", len(res.Gen), len(res.Test))
	}
	for _, g := range res.Gen {
		if g.MutatorID != -1 {
			t.Fatal("bytefuzz mutants carry no mutator attribution")
		}
		if len(g.Data) == 0 {
			t.Fatal("bytefuzz mutant without bytes")
		}
	}
	if len(res.MutatorStats) != 0 {
		t.Error("bytefuzz never selects mutators")
	}
	// The defining property (§1): most blind byte mutants are invalid —
	// rejected before linking even starts — far more than structured
	// mutants.
	runner := difftest.NewStandardRunner()
	invalid := 0
	for _, g := range res.Gen {
		v := runner.Run(g.Data)
		allLoad := true
		for _, c := range v.Codes {
			if c != 1 {
				allLoad = false
			}
		}
		if allLoad {
			invalid++
		}
	}
	if invalid*2 < len(res.Gen) {
		t.Errorf("only %d/%d byte mutants invalid; expected a majority", invalid, len(res.Gen))
	}
	// Determinism.
	res2 := runCampaign(t, Bytefuzz, coverage.STBR, 300)
	for i := range res.Gen {
		if string(res.Gen[i].Data) != string(res2.Gen[i].Data) {
			t.Fatal("bytefuzz not deterministic")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Algorithm: Classfuzz}); err == nil {
		t.Error("empty seeds must fail")
	}
	seeds := seedgen.Generate(seedgen.DefaultOptions(2, 1))
	if _, err := Run(Config{Algorithm: Classfuzz, Source: FlatSeeds(seeds)}); err == nil {
		t.Error("zero iterations must fail")
	}
	if _, err := Run(Config{Algorithm: "bogus", Source: FlatSeeds(seeds), Iterations: 1}); err == nil {
		t.Error("unknown algorithm must fail")
	}
}

func TestResultTimingHelpers(t *testing.T) {
	res := runCampaign(t, Classfuzz, coverage.STBR, 100)
	if res.TimePerGen() < 0 || res.TimePerTest() < 0 {
		t.Error("negative timings")
	}
	empty := &Result{}
	if empty.TimePerGen() != 0 || empty.TimePerTest() != 0 || empty.Succ() != 0 {
		t.Error("zero-value result helpers must be 0")
	}
}
