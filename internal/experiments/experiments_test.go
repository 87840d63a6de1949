package experiments

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/difftest"
	"repro/internal/jvm"
	"repro/internal/seedgen"
	"repro/internal/seedsel"
	"repro/internal/telemetry"
)

// The session is expensive; share one across the test functions.
var (
	once sync.Once
	sess *Session
	serr error
)

func session(t *testing.T) *Session {
	t.Helper()
	once.Do(func() {
		sess, serr = NewSession(DefaultScale())
	})
	if serr != nil {
		t.Fatal(serr)
	}
	return sess
}

func TestSessionRunsAllCampaigns(t *testing.T) {
	s := session(t)
	if len(s.Campaigns) != 6 {
		t.Fatalf("%d campaigns", len(s.Campaigns))
	}
	for _, key := range CampaignOrder {
		r, ok := s.Campaigns[key]
		if !ok {
			t.Fatalf("campaign %s missing", key)
		}
		if len(r.Gen) == 0 {
			t.Errorf("%s generated nothing", key)
		}
	}
}

// TestSessionTelemetryMergedTotals asserts the session roll-up: the
// campaign.* counters in Session.Telemetry are the Registry.Merge fold
// of the six per-campaign registries, so they must equal the sums of
// the per-campaign results.
func TestSessionTelemetryMergedTotals(t *testing.T) {
	s := session(t)
	if s.Telemetry == nil {
		t.Fatal("session has no telemetry registry")
	}
	snap := s.Telemetry.Snapshot()

	var iters, gen, accepts int64
	for _, res := range s.Campaigns {
		iters += int64(res.Iterations)
		gen += int64(len(res.Gen))
		accepts += int64(len(res.Test))
	}
	if got := snap.Counter("campaign.iterations"); got != iters {
		t.Errorf("merged campaign.iterations = %d, want %d", got, iters)
	}
	if got := snap.Counter("campaign.generated"); got != gen {
		t.Errorf("merged campaign.generated = %d, want %d", got, gen)
	}
	if got := snap.Counter("campaign.accepts"); got != accepts {
		t.Errorf("merged campaign.accepts = %d, want %d", got, accepts)
	}
}

func TestTable4Shapes(t *testing.T) {
	tab := session(t).Table4()
	if len(tab.Rows) != 6 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	byName := map[string]Table4Row{}
	for _, r := range tab.Rows {
		byName[r.Campaign] = r
		if r.TestClasses > r.GenClasses {
			t.Errorf("%s: tests > gen", r.Campaign)
		}
	}
	// Finding 1: randfuzz generates many times more classfiles than any
	// coverage-directed algorithm (20× in the paper; ≥3× at our scale).
	rf := byName[KeyRandfuzz]
	for _, key := range CampaignOrder[:5] {
		if rf.GenClasses < 3*byName[key].GenClasses {
			t.Errorf("randfuzz gen=%d not ≫ %s gen=%d", rf.GenClasses, key, byName[key].GenClasses)
		}
	}
	// Finding 1: classfuzz[stbr] accepts the most representative classes
	// among the directed algorithms.
	stbr := byName[KeyClassfuzzSTBR]
	for _, key := range []string{KeyClassfuzzST, KeyGreedyfuzz} {
		if stbr.TestClasses < byName[key].TestClasses {
			t.Errorf("classfuzz[stbr] tests=%d below %s tests=%d", stbr.TestClasses, key, byName[key].TestClasses)
		}
	}
	// Greedy accepts the fewest among directed algorithms.
	greedy := byName[KeyGreedyfuzz]
	for _, key := range []string{KeyClassfuzzSTBR, KeyClassfuzzTR, KeyUniquefuzz} {
		if greedy.TestClasses > byName[key].TestClasses {
			t.Errorf("greedyfuzz tests=%d above %s", greedy.TestClasses, key)
		}
	}
	// Randfuzz accepts everything.
	if rf.TestClasses != rf.GenClasses {
		t.Error("randfuzz must accept every generated class")
	}
	// [st] accepts no more than [stbr] (one- vs two-dimensional space).
	if byName[KeyClassfuzzST].TestClasses > stbr.TestClasses {
		t.Error("[st] accepted more than [stbr]")
	}
	out := tab.String()
	if !strings.Contains(out, "classfuzz[stbr]") || !strings.Contains(out, "randfuzz") {
		t.Error("rendering incomplete")
	}
}

func TestTable5TopMutators(t *testing.T) {
	tab := session(t).Table5()
	if len(tab.Rows) == 0 || len(tab.Rows) > 10 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	for i := 1; i < len(tab.Rows); i++ {
		if tab.Rows[i].Rate > tab.Rows[i-1].Rate {
			t.Error("rows not sorted by success rate")
		}
	}
	if tab.Rows[0].Rate <= 0 {
		t.Error("top mutator has zero success rate")
	}
	if !strings.Contains(tab.String(), "Top ten mutators") {
		t.Error("rendering incomplete")
	}
}

// newSession runs a session of its own, for tests that count what the
// first Table6 call evaluates: on the shared session an earlier test
// may already have made it.
func newSession(t *testing.T) *Session {
	t.Helper()
	s, err := NewSession(DefaultScale())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// classesEvaluated reads the session's difftest.classes counter.
func classesEvaluated(s *Session) int64 {
	return s.Telemetry.Snapshot().Counter(difftest.MetricClasses)
}

// table6Classes is the number of classes one Table 6 evaluation runs:
// each class of its sets once, the directed campaigns' Test classes
// inside their Gen sets.
func table6Classes(tab *Table6) int64 {
	var n int64
	for _, r := range tab.Rows {
		if !strings.HasPrefix(r.Set, "Test:") || r.Set == "Test:"+KeyRandfuzz {
			n += int64(r.Size)
		}
	}
	return n
}

// testClasses returns the bytes of campaign key's TestClasses.
func testClasses(s *Session, key string) [][]byte {
	var classes [][]byte
	for _, g := range s.Campaigns[key].Test {
		classes = append(classes, g.Data)
	}
	return classes
}

// TestTable6TestRowsReuseGenVectors: every Test:<campaign> row — the
// directed campaigns' taken from the accepted subset of their Gen
// vectors — equals a direct evaluation of that campaign's Test bytes,
// and Table 6 runs each class of its sets once.
func TestTable6TestRowsReuseGenVectors(t *testing.T) {
	s := newSession(t)
	before := classesEvaluated(s)
	tab := s.Table6()
	evaluated := classesEvaluated(s) - before

	rows := map[string]Table6Row{}
	for _, r := range tab.Rows {
		rows[r.Set] = r
	}
	want := int64(rows["library-corpus"].Size + rows["seeds"].Size)
	runner := difftest.NewStandardRunner()
	for _, key := range CampaignOrder {
		classes := testClasses(s, key)
		direct := table6Row("Test:"+key, runner.Evaluate(classes, difftest.Options{}))
		if got := rows["Test:"+key]; !reflect.DeepEqual(got, direct) {
			t.Errorf("%s: Table 6 row %+v, direct evaluation %+v", key, got, direct)
		}
		if key == KeyRandfuzz {
			want += int64(len(classes))
		} else {
			want += int64(rows["Gen:"+key].Size)
		}
	}
	if evaluated != want {
		t.Errorf("Table 6 evaluated %d classes, want %d (each class once)", evaluated, want)
	}
	if got := table6Classes(tab); got != want {
		t.Errorf("table6Classes = %d, want %d", got, want)
	}
}

// TestTable7AndPreliminaryReadTable6: after Table 6, Table 7 and the
// preliminary study run no class, and each equals a direct evaluation
// of its class set — the classfuzz[stbr] suite's phase histogram and
// the library corpus's row.
func TestTable7AndPreliminaryReadTable6(t *testing.T) {
	s := session(t)
	s.Table6()
	before := classesEvaluated(s)
	t7 := s.Table7()
	p := s.Preliminary()
	if n := classesEvaluated(s) - before; n != 0 {
		t.Errorf("Table 7 and the preliminary study evaluated %d classes after Table 6, want 0", n)
	}

	runner := difftest.NewStandardRunner()
	suite := runner.Evaluate(testClasses(s, KeyClassfuzzSTBR), difftest.Options{})
	want7 := &Table7{VMNames: suite.VMNames, Counts: suite.PhaseHistogram(), Suite: len(suite.Vectors)}
	if !reflect.DeepEqual(t7, want7) {
		t.Errorf("Table 7 %+v, direct evaluation %+v", t7, want7)
	}

	corpus, err := seedgen.GenerateFiles(seedgen.DefaultOptions(s.Scale.CorpusCount, s.Scale.Seed+7))
	if err != nil {
		t.Fatal(err)
	}
	wantP := Preliminary(table6Row("library-corpus", runner.Evaluate(corpus, difftest.Options{})))
	if p == nil || *p != wantP {
		t.Errorf("preliminary study %+v, direct evaluation %+v", p, wantP)
	}
}

// TestSessionTablesConcurrent calls Table6, Table7 and Preliminary from
// several goroutines on a fresh session (run it under -race): they
// agree, share one Table 6, and the session evaluates Table 6's classes
// once.
func TestSessionTablesConcurrent(t *testing.T) {
	s := newSession(t)
	before := classesEvaluated(s)
	type result struct {
		t6 *Table6
		t7 *Table7
		p  *Preliminary
	}
	results := make([]result, 4)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(r *result, first int) {
			defer wg.Done()
			calls := []func(){
				func() { r.t6 = s.Table6() },
				func() { r.t7 = s.Table7() },
				func() { r.p = s.Preliminary() },
			}
			for k := range calls {
				calls[(first+k)%len(calls)]()
			}
		}(&results[i], i)
	}
	wg.Wait()

	r0 := results[0]
	if r0.t6 == nil || r0.t7 == nil || r0.p == nil {
		t.Fatalf("missing result: %+v", r0)
	}
	for i, r := range results[1:] {
		if r.t6 != r0.t6 {
			t.Errorf("goroutine %d got a Table 6 of its own", i+1)
		}
		if !reflect.DeepEqual(r.t7, r0.t7) || *r.p != *r0.p {
			t.Errorf("goroutine %d: Table 7 %+v, preliminary %+v; goroutine 0: %+v, %+v", i+1, r.t7, r.p, r0.t7, r0.p)
		}
	}
	if got, want := classesEvaluated(s)-before, table6Classes(r0.t6); got != want {
		t.Errorf("concurrent callers evaluated %d classes, want %d (one Table 6)", got, want)
	}
}

func TestTable6Shapes(t *testing.T) {
	tab := session(t).Table6()
	byName := map[string]Table6Row{}
	for _, r := range tab.Rows {
		byName[r.Set] = r
		if r.AllInvoked+r.AllRejectedSameStage+r.Discrepancies != r.Size {
			t.Errorf("%s: partition does not sum (%d+%d+%d != %d)", r.Set,
				r.AllInvoked, r.AllRejectedSameStage, r.Discrepancies, r.Size)
		}
	}
	lib := byName["library-corpus"]
	stbr := byName["Test:"+KeyClassfuzzSTBR]
	// The GenClasses block exists for every directed algorithm and each
	// Gen set contains its Test subset.
	for _, key := range CampaignOrder {
		if key == KeyRandfuzz {
			continue
		}
		gen, ok := byName["Gen:"+key]
		if !ok {
			t.Fatalf("Gen row for %s missing", key)
		}
		if gen.Size < byName["Test:"+key].Size {
			t.Errorf("%s: Gen smaller than Test", key)
		}
		// Finding 4's side observation: Gen and Test reveal comparable
		// distinct-discrepancy counts for classfuzz[stbr].
		if key == KeyClassfuzzSTBR && gen.Distinct < byName["Test:"+key].Distinct-3 {
			t.Errorf("%s: Gen distinct %d far below Test distinct %d", key, gen.Distinct, byName["Test:"+key].Distinct)
		}
	}
	// Finding 3's headline: the representative suite's diff-rate is far
	// above the library baseline (1.7% -> 11.9% in the paper).
	if lib.DiffRate <= 0 {
		t.Error("library baseline shows no discrepancies")
	}
	if stbr.DiffRate < 3*lib.DiffRate {
		t.Errorf("suite diff rate %.2f%% not ≫ library %.2f%%", stbr.DiffRate*100, lib.DiffRate*100)
	}
	// Finding 4: classfuzz[stbr] reveals at least as many distinct
	// discrepancies as the other suites (±2 at this small scale, since
	// distinct-vector counts are noisy single digits here).
	for _, key := range []string{KeyUniquefuzz, KeyGreedyfuzz} {
		if stbr.Distinct+2 < byName["Test:"+key].Distinct {
			t.Errorf("classfuzz[stbr] distinct=%d below %s=%d", stbr.Distinct, key, byName["Test:"+key].Distinct)
		}
	}
	if stbr.Distinct < byName["Test:"+KeyGreedyfuzz].Distinct {
		t.Errorf("classfuzz[stbr] distinct=%d below greedyfuzz", stbr.Distinct)
	}
}

func TestTable7Shapes(t *testing.T) {
	tab := session(t).Table7()
	if len(tab.VMNames) != 5 {
		t.Fatalf("%d VMs", len(tab.VMNames))
	}
	for vm := range tab.VMNames {
		n := 0
		for _, c := range tab.Counts[vm] {
			n += c
		}
		if n != tab.Suite {
			t.Errorf("%s histogram sums to %d, suite is %d", tab.VMNames[vm], n, tab.Suite)
		}
	}
	// Shape: GIJ is the most lenient (runs the most classes).
	gij := tab.Counts[4][0]
	for vm := 0; vm < 4; vm++ {
		if gij < tab.Counts[vm][0] {
			t.Errorf("GIJ invoked %d < %s invoked %d; GIJ should accept the most",
				gij, tab.VMNames[vm], tab.Counts[vm][0])
		}
	}
	// Shape: only GIJ rejects at runtime in meaningful numbers (its lazy
	// resolution); eager HotSpot rejects at linking instead.
	if tab.Counts[0][2] == 0 {
		t.Error("HotSpot7 shows no linking rejections")
	}
	if !strings.Contains(tab.String(), "Rejected during the linking phase") {
		t.Error("rendering incomplete")
	}
}

func TestFigure4Correlation(t *testing.T) {
	fig := session(t).Figure4()
	if len(fig.Names) != 129 {
		t.Fatalf("%d mutators in figure", len(fig.Names))
	}
	for i := 1; i < len(fig.SuccRate); i++ {
		if fig.SuccRate[i] > fig.SuccRate[i-1] {
			t.Fatal("panel (a) not sorted descending")
		}
	}
	// Finding 2: classfuzz selects high-success mutators more often than
	// low-success ones; compare mean frequency of the top third vs the
	// bottom third.
	third := len(fig.Names) / 3
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	top := mean(fig.FreqClassfuzz[:third])
	bottom := mean(fig.FreqClassfuzz[len(fig.FreqClassfuzz)-third:])
	if top <= bottom {
		t.Errorf("classfuzz frequency top-third %.4f not above bottom-third %.4f", top, bottom)
	}
	// Panel (c): uniquefuzz shows no such correlation — its top/bottom
	// ratio stays near 1 while classfuzz's is clearly above it.
	utop := mean(fig.FreqUniquefuzz[:third])
	ubottom := mean(fig.FreqUniquefuzz[len(fig.FreqUniquefuzz)-third:])
	if ubottom == 0 {
		ubottom = 1e-9
	}
	if top/bottom <= utop/ubottom {
		t.Errorf("classfuzz bias (%.2f) should exceed uniquefuzz bias (%.2f)", top/bottom, utop/ubottom)
	}
}

func TestMCMCGainPositive(t *testing.T) {
	gain := session(t).MCMCGain()
	// The paper reports +43%; at small scale any clear positive gain
	// demonstrates the mechanism. Tolerate noise but demand non-collapse.
	if gain < -0.25 {
		t.Errorf("MCMC gain %.2f collapsed", gain)
	}
	t.Logf("MCMC gain over uniform selection: %+.1f%%", gain*100)
}

func TestMCMCGainStudyPositiveOnAverage(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-repeat campaign study")
	}
	scale := DefaultScale()
	scale.Iterations = 500
	study, err := RunMCMCGainStudy(scale, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(study)
	// The paper reports +43% at three-day scale; at this scale the mean
	// must at least not collapse below parity by more than noise.
	if study.Gain() < -0.10 {
		t.Errorf("mean MCMC gain %.1f%% is clearly negative", study.Gain()*100)
	}
	if study.ClassfuzzTests == 0 || study.UniquefuzzTests == 0 {
		t.Error("degenerate study")
	}
}

func TestPreliminaryStudy(t *testing.T) {
	p := session(t).Preliminary()
	if p == nil {
		t.Fatal("no library-corpus row")
	}
	if p.DiffRate < 0.003 || p.DiffRate > 0.06 {
		t.Errorf("baseline diff rate %.2f%%, paper reports 1.7%%", p.DiffRate*100)
	}
	if !strings.Contains(p.String(), "Preliminary study") {
		t.Error("rendering incomplete")
	}
}

func TestBlindBaselineShape(t *testing.T) {
	scale := DefaultScale()
	scale.Iterations = 250
	b, err := RunBlindBaseline(scale)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(b)
	// §1's motivation: blind byte mutation yields mostly invalid
	// classfiles; structured mutation does not.
	if b.ByteLoadReject < 0.4 {
		t.Errorf("bytefuzz load-reject rate %.0f%% too low", b.ByteLoadReject*100)
	}
	if b.RandLoadReject > b.ByteLoadReject/2 {
		t.Errorf("structured randfuzz load-reject %.0f%% should be far below bytefuzz %.0f%%",
			b.RandLoadReject*100, b.ByteLoadReject*100)
	}
	if b.RandDiff <= b.ByteDiff {
		t.Errorf("structured mutants should trigger more discrepancies (%.1f%% vs %.1f%%)",
			b.RandDiff*100, b.ByteDiff*100)
	}
}

func TestPEstimate(t *testing.T) {
	p, err := RunPEstimate()
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 129 {
		t.Errorf("N = %d", p.N)
	}
	if p.Default < p.Lo || p.Default > p.Hi {
		t.Errorf("3/129 = %g outside (%g, %g)", p.Default, p.Lo, p.Hi)
	}
	if !strings.Contains(p.String(), "3/129") {
		t.Error("rendering incomplete")
	}
}

// TestSeedStrategyStudySharesPass: the strategy study's three rows read
// one seed pass, which runs each seed once, so every row's source hands
// out the same traces; and each row equals a campaign on a fresh
// per-strategy source, its suite differentially tested alike.
func TestSeedStrategyStudySharesPass(t *testing.T) {
	reg := telemetry.New()
	scale := Scale{SeedCount: 20, Iterations: 150, Seed: 3, Telemetry: reg}
	study, err := RunSeedStrategyStudy(scale)
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Snapshot().Counter("seedsel.seeds_run"); n != int64(scale.SeedCount) {
		t.Errorf("three rows ran %d seeds of a %d-seed corpus", n, scale.SeedCount)
	}
	seeds := seedgen.Generate(seedgen.DefaultOptions(scale.SeedCount, scale.Seed))
	runner := difftest.NewStandardRunner()
	for i, strategy := range []seedsel.Strategy{seedsel.Uniform, seedsel.Clustered, seedsel.Yield} {
		sched, row := campaign.FlatSeeds(seeds).(seedsel.Source), study.Rows[i]
		if strategy != seedsel.Uniform {
			if sched, err = seedsel.New(seeds, seedsel.Options{Strategy: strategy, RefSpec: jvm.HotSpot9()}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := campaign.Run(campaign.Config{
			Algorithm: campaign.Classfuzz, Criterion: coverage.STBR, Source: sched,
			Iterations: scale.Iterations, Rand: scale.Seed + 100, RefSpec: jvm.HotSpot9(),
		})
		if err != nil {
			t.Fatal(err)
		}
		var classes [][]byte
		for _, g := range res.Test {
			classes = append(classes, g.Data)
		}
		sum := runner.Evaluate(classes, difftest.Options{})
		clusters := sched.ClusterStats()
		if row.Strategy != string(strategy) || row.GenClasses != len(res.Gen) || row.TestClasses != len(res.Test) ||
			row.Discrepancies != sum.Count(difftest.Discrepancy) || !reflect.DeepEqual(row.PerCluster, clusters) {
			t.Errorf("%s: the study's row differs from a campaign on a fresh source:\n%+v\ngen %d, test %d, discrepancies %d, clusters %+v",
				strategy, row, len(res.Gen), len(res.Test), sum.Count(difftest.Discrepancy), clusters)
		}
	}
}
