// Package experiments regenerates every table and figure of the
// paper's evaluation (§3): Table 4 (classfile generation), Table 5 (top
// ten mutators), Table 6 (differential-testing results per suite),
// Table 7 (per-VM phase histogram), Figure 4 (mutator success rates and
// selection frequencies) and the §1/§3.3 preliminary study (the 1.7 %
// library baseline). A Session runs the six campaigns once — classfuzz
// under each uniqueness criterion, uniquefuzz, greedyfuzz, randfuzz —
// and derives all tables from the shared results, exactly as the paper
// derives its tables from the same three-day runs. Likewise it runs the
// five VMs once, for Table 6; Table 7 and the preliminary study read
// Table 6's vectors.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/difftest"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/mcmc"
	"repro/internal/mutation"
	"repro/internal/seedgen"
	"repro/internal/seedsel"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// Scale sets the campaign sizes. The paper's comparisons hold at any
// equal budget; DefaultScale finishes in seconds, PaperScale mirrors
// the §3.1 setup (1,216 seeds; randfuzz iterating ≈22× more than the
// directed algorithms, as its 46,318 vs ≈2,000 iterations show).
type Scale struct {
	// SeedCount is the number of seed classfiles (paper: 1,216).
	SeedCount int
	// Iterations is the budget per coverage-directed campaign
	// (paper: ≈2,000).
	Iterations int
	// RandfuzzFactor multiplies the budget for randfuzz (paper: ≈22×).
	RandfuzzFactor int
	// CorpusCount is the size of the library-corpus stand-in for the
	// preliminary study (paper: 21,736 JRE7 classfiles).
	CorpusCount int
	// Seed drives all randomness.
	Seed int64
	// Workers sizes each campaign's mutate/execute worker pool (0 → 1).
	// Campaign results are identical at any value; this only trades CPU
	// for wall clock.
	Workers int
	// SeedStrategy selects the seed-scheduling policy every campaign
	// draws under ("" or "uniform" is the paper's flat draw; "clustered"
	// and "yield" route through seedsel). Unknown values fail NewSession.
	SeedStrategy string
	// Telemetry, when non-nil, becomes the session's roll-up registry
	// (Session.Telemetry) instead of a fresh one — attach it before
	// NewSession so a live /metrics.json endpoint watches the campaigns
	// as they run. Observe-only: tables are identical either way.
	Telemetry *telemetry.Registry
}

// DefaultScale is the quick configuration used by tests and benches.
func DefaultScale() Scale {
	return Scale{SeedCount: 60, Iterations: 400, RandfuzzFactor: 10, CorpusCount: 1200, Seed: 1}
}

// PaperScale mirrors the paper's seed count and iteration ratios.
func PaperScale() Scale {
	return Scale{SeedCount: 1216, Iterations: 2100, RandfuzzFactor: 22, CorpusCount: 21736, Seed: 1}
}

// Campaign keys used across tables.
const (
	KeyClassfuzzSTBR = "classfuzz[stbr]"
	KeyClassfuzzST   = "classfuzz[st]"
	KeyClassfuzzTR   = "classfuzz[tr]"
	KeyUniquefuzz    = "uniquefuzz"
	KeyGreedyfuzz    = "greedyfuzz"
	KeyRandfuzz      = "randfuzz"
)

// CampaignOrder is the column order of Tables 4 and 6.
var CampaignOrder = []string{
	KeyClassfuzzSTBR, KeyClassfuzzST, KeyClassfuzzTR,
	KeyUniquefuzz, KeyGreedyfuzz, KeyRandfuzz,
}

// Session holds the shared campaign results. It is a service.Session
// — the same folding aggregate the classfuzzd daemon uses for its
// shard epochs — plus the experiment-specific seed corpus: Campaigns
// and the Telemetry roll-up promote from the embedded session.
type Session struct {
	Scale     Scale
	Seeds     []*jimple.Class
	SeedFiles [][]byte
	*service.Session

	// table6 is evaluated once, on the first call of Table6, Table7 or
	// Preliminary; stbrSuite holds its Test:classfuzz[stbr] vectors.
	table6Once sync.Once
	table6     *Table6
	stbrSuite  *difftest.Summary
}

// NewSession generates seeds and runs all six campaigns.
func NewSession(s Scale) (*Session, error) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(s.SeedCount, s.Seed))
	seedFiles := make([][]byte, 0, len(seeds))
	for _, c := range seeds {
		f, err := jimple.Lower(c)
		if err != nil {
			return nil, err
		}
		data, err := f.Bytes()
		if err != nil {
			return nil, err
		}
		seedFiles = append(seedFiles, data)
	}

	strategy, err := seedsel.ParseStrategy(s.SeedStrategy)
	if err != nil {
		return nil, err
	}
	// One seed pass serves the six campaigns: they share one FlatSeeds,
	// or each gets a Fork of one scheduler index (a scheduler's draw
	// state serves one run).
	flat := campaign.FlatSeeds(seeds)
	var idx *seedsel.Scheduler
	if strategy != seedsel.Uniform {
		if idx, err = seedsel.New(seeds, seedsel.Options{Strategy: strategy, RefSpec: jvm.HotSpot9()}); err != nil {
			return nil, err
		}
	}
	mk := func(alg campaign.Algorithm, crit coverage.Criterion, iters int) (*campaign.Result, *telemetry.Registry, error) {
		reg := telemetry.New()
		src := flat
		if idx != nil {
			src = idx.Fork(len(seeds), reg)
		}
		res, err := campaign.Run(campaign.Config{
			Algorithm:  alg,
			Criterion:  crit,
			Source:     src,
			Iterations: iters,
			Rand:       s.Seed + 100,
			RefSpec:    jvm.HotSpot9(),
			// Table 6's GenClasses block differential-tests every
			// generated mutant, so the session keeps bytes the engine
			// would otherwise drop for unaccepted mutants.
			KeepGenBytes: true,
			Workers:      s.Workers,
			Telemetry:    reg,
		})
		return res, reg, err
	}

	sess := &Session{
		Scale: s, Seeds: seeds, SeedFiles: seedFiles,
		Session: service.NewSession(s.Telemetry),
	}
	type job struct {
		key   string
		alg   campaign.Algorithm
		crit  coverage.Criterion
		iters int
	}
	jobs := []job{
		{KeyClassfuzzSTBR, campaign.Classfuzz, coverage.STBR, s.Iterations},
		{KeyClassfuzzST, campaign.Classfuzz, coverage.ST, s.Iterations},
		{KeyClassfuzzTR, campaign.Classfuzz, coverage.TR, s.Iterations},
		{KeyUniquefuzz, campaign.Uniquefuzz, coverage.STBR, s.Iterations},
		{KeyGreedyfuzz, campaign.Greedyfuzz, coverage.STBR, s.Iterations},
		{KeyRandfuzz, campaign.Randfuzz, coverage.STBR, s.Iterations * s.RandfuzzFactor},
	}
	// The six campaigns share nothing but the read-only seed corpus and
	// its seed pass, so the session fans them out concurrently; each
	// campaign's own worker pool handles intra-campaign parallelism.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			res, reg, err := mk(j.alg, j.crit, j.iters)
			if err != nil {
				mu.Lock()
				defer mu.Unlock()
				if firstErr == nil {
					firstErr = fmt.Errorf("experiments: %s: %w", j.key, err)
				}
				return
			}
			sess.Fold(j.key, res, reg)
		}(j)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return sess, nil
}

// --- Table 4 -----------------------------------------------------------------

// Table4Row is one column of the paper's Table 4 (transposed to rows).
type Table4Row struct {
	Campaign    string
	Iterations  int
	GenClasses  int
	TestClasses int
	Succ        float64
	// Times are microseconds per class in this simulation (the paper
	// reports seconds on real HotSpot; only relative order matters).
	MicrosPerGen  float64
	MicrosPerTest float64
}

// Table4 reproduces "Results on classfile generation".
type Table4 struct{ Rows []Table4Row }

// Table4 derives the table from the session.
func (s *Session) Table4() *Table4 {
	t := &Table4{}
	for _, key := range CampaignOrder {
		r := s.Campaigns[key]
		t.Rows = append(t.Rows, Table4Row{
			Campaign:      key,
			Iterations:    r.Iterations,
			GenClasses:    len(r.Gen),
			TestClasses:   len(r.Test),
			Succ:          r.Succ(),
			MicrosPerGen:  float64(r.TimePerGen().Microseconds()),
			MicrosPerTest: float64(r.TimePerTest().Microseconds()),
		})
	}
	return t
}

// String renders the table.
func (t *Table4) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: Results on classfile generation\n")
	fmt.Fprintf(&b, "%-18s %11s %11s %12s %7s %10s %11s\n",
		"algorithm", "#iterations", "|GenClasses|", "|TestClasses|", "succ", "µs/gen", "µs/test")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-18s %11d %11d %12d %6.1f%% %10.1f %11.1f\n",
			r.Campaign, r.Iterations, r.GenClasses, r.TestClasses, r.Succ*100,
			r.MicrosPerGen, r.MicrosPerTest)
	}
	return b.String()
}

// --- Table 5 -----------------------------------------------------------------

// Table5Row is one top mutator.
type Table5Row struct {
	Category  mutation.Category
	Name      string
	Doc       string
	Rate      float64
	Frequency float64
}

// Table5 reproduces "Top ten mutators".
type Table5 struct{ Rows []Table5Row }

// Table5 ranks mutators of the classfuzz[stbr] campaign by success rate
// (requiring a minimal selection count so rates are meaningful).
func (s *Session) Table5() *Table5 {
	r := s.Campaigns[KeyClassfuzzSTBR]
	total := r.Iterations
	stats := append([]campaign.MutatorStat(nil), r.MutatorStats...)
	sort.SliceStable(stats, func(a, b int) bool {
		ra, rb := stats[a].Rate(), stats[b].Rate()
		if ra != rb {
			return ra > rb
		}
		return stats[a].Selected > stats[b].Selected
	})
	t := &Table5{}
	reg := mutation.Registry()
	for _, st := range stats {
		if st.Selected < 2 {
			continue
		}
		m := reg[st.ID]
		t.Rows = append(t.Rows, Table5Row{
			Category:  m.Category,
			Name:      m.Name,
			Doc:       m.Doc,
			Rate:      st.Rate(),
			Frequency: st.Frequency(total),
		})
		if len(t.Rows) == 10 {
			break
		}
	}
	return t
}

// String renders the table.
func (t *Table5) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: Top ten mutators\n")
	fmt.Fprintf(&b, "%-10s %-30s %9s %9s\n", "category", "mutator", "succ", "freq")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-10s %-30s %9.3f %9.3f\n", r.Category, r.Name, r.Rate, r.Frequency)
	}
	return b.String()
}

// --- Table 6 -----------------------------------------------------------------

// Table6Row is one class set's differential-testing summary.
type Table6Row struct {
	Set                  string
	Size                 int
	AllInvoked           int
	AllRejectedSameStage int
	Discrepancies        int
	Distinct             int
	DiffRate             float64
}

// Table6 reproduces "Results on testing of JVMs": both blocks of the
// paper's table — every campaign's GenClasses set and its TestClasses
// suite — plus the library-corpus and seed baselines.
type Table6 struct{ Rows []Table6Row }

// table6Row derives one class set's row from its vectors.
func table6Row(set string, sum *difftest.Summary) Table6Row {
	return Table6Row{
		Set:                  set,
		Size:                 len(sum.Vectors),
		AllInvoked:           sum.Count(difftest.Invoked),
		AllRejectedSameStage: sum.Count(difftest.RejectedSameStage),
		Discrepancies:        sum.Count(difftest.Discrepancy),
		Distinct:             sum.DistinctCount(),
		DiffRate:             sum.DiffRate(),
	}
}

// Table6 evaluates the corpora, generated sets and suites on the five
// VMs (in parallel; the sets are independent classfiles). A session
// evaluates them once: every call, concurrent ones included, returns
// the same table. Each class runs once: a coverage-directed campaign's
// TestClasses are a subset of its GenClasses (the same *GenClass
// values, in iteration order), so its Test row comes from the accepted
// subset of the Gen vectors; only randfuzz's suite runs on its own.
func (s *Session) Table6() *Table6 {
	s.table6Once.Do(s.evalTable6)
	return s.table6
}

func (s *Session) evalTable6() {
	runner := s.Runner()
	eval := func(classes [][]byte) *difftest.Summary {
		return runner.Evaluate(classes, difftest.Options{Workers: runtime.GOMAXPROCS(0)})
	}
	t := &Table6{}

	// Library-corpus baseline (the JRE7 column).
	corpus, err := seedgen.GenerateFiles(seedgen.DefaultOptions(s.Scale.CorpusCount, s.Scale.Seed+7))
	if err == nil {
		t.Rows = append(t.Rows, table6Row("library-corpus", eval(corpus)))
	}
	t.Rows = append(t.Rows, table6Row("seeds", eval(s.SeedFiles)))
	// GenClasses block. For randfuzz Gen == Test, so (like the paper's
	// "-" cells) the row appears once, in the Test block, from an
	// evaluation of its own.
	tests := map[string]*difftest.Summary{}
	for _, key := range CampaignOrder {
		r := s.Campaigns[key]
		if key == KeyRandfuzz {
			var classes [][]byte
			for _, g := range r.Test {
				classes = append(classes, g.Data)
			}
			tests[key] = eval(classes)
			continue
		}
		var classes [][]byte
		var accepted []int // index into classes of each r.Test class
		for _, g := range r.Gen {
			if len(g.Data) == 0 {
				continue
			}
			if len(accepted) < len(r.Test) && g == r.Test[len(accepted)] {
				accepted = append(accepted, len(classes))
			}
			classes = append(classes, g.Data)
		}
		gen := eval(classes)
		t.Rows = append(t.Rows, table6Row("Gen:"+key, gen))
		test := &difftest.Summary{VMNames: gen.VMNames, Vectors: make([]difftest.Vector, len(accepted))}
		for j, i := range accepted {
			test.Vectors[j] = gen.Vectors[i]
		}
		tests[key] = test
	}
	// TestClasses block.
	for _, key := range CampaignOrder {
		t.Rows = append(t.Rows, table6Row("Test:"+key, tests[key]))
	}
	s.table6, s.stbrSuite = t, tests[KeyClassfuzzSTBR]
}

// String renders the table.
func (t *Table6) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 6: Results on testing of JVMs\n")
	fmt.Fprintf(&b, "%-22s %7s %9s %9s %8s %9s %7s\n",
		"set", "size", "invoked", "same-st", "discr", "distinct", "diff")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-22s %7d %9d %9d %8d %9d %6.1f%%\n",
			r.Set, r.Size, r.AllInvoked, r.AllRejectedSameStage,
			r.Discrepancies, r.Distinct, r.DiffRate*100)
	}
	return b.String()
}

// --- Table 7 -----------------------------------------------------------------

// Table7 reproduces the per-VM phase histogram of the classfuzz[stbr]
// test suite.
type Table7 struct {
	VMNames []string
	// Counts[vm][phase] with phase codes 0..4.
	Counts [][]int
	Suite  int
}

// Table7 is the phase histogram of Table 6's Test:classfuzz[stbr]
// vectors; it runs no VM of its own.
func (s *Session) Table7() *Table7 {
	s.Table6()
	sum := s.stbrSuite
	return &Table7{VMNames: sum.VMNames, Counts: sum.PhaseHistogram(), Suite: len(sum.Vectors)}
}

// String renders the table.
func (t *Table7) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 7: Results on testing of JVMs using the %d classfile mutants in TestClasses_classfuzz[stbr]\n", t.Suite)
	fmt.Fprintf(&b, "%-42s", "")
	for _, n := range t.VMNames {
		fmt.Fprintf(&b, " %14s", n)
	}
	b.WriteString("\n")
	labels := []string{
		"Normally invoked",
		"Rejected during the creation/loading phase",
		"Rejected during the linking phase",
		"Rejected during the initialization phase",
		"Rejected at runtime",
	}
	for phase, label := range labels {
		fmt.Fprintf(&b, "%-42s", label)
		for vm := range t.VMNames {
			fmt.Fprintf(&b, " %14d", t.Counts[vm][phase])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// --- Figure 4 -----------------------------------------------------------------

// Figure4 reproduces the mutator success-rate/frequency correlation:
// mutators sorted in descending order of their classfuzz[stbr] success
// rates (panel a), with the classfuzz selection frequencies (panel b)
// and the uniquefuzz frequencies over the same order (panel c).
type Figure4 struct {
	// Names[i] is the mutator at x-position i.
	Names []string
	// SuccRate is panel (a); FreqClassfuzz panel (b); FreqUniquefuzz
	// panel (c).
	SuccRate       []float64
	FreqClassfuzz  []float64
	FreqUniquefuzz []float64
}

// Figure4 derives the three series.
func (s *Session) Figure4() *Figure4 {
	cf := s.Campaigns[KeyClassfuzzSTBR]
	uf := s.Campaigns[KeyUniquefuzz]
	order := make([]int, len(cf.MutatorStats))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := cf.MutatorStats[order[a]].Rate(), cf.MutatorStats[order[b]].Rate()
		if ra != rb {
			return ra > rb
		}
		return order[a] < order[b]
	})
	fig := &Figure4{}
	for _, id := range order {
		fig.Names = append(fig.Names, cf.MutatorStats[id].Name)
		fig.SuccRate = append(fig.SuccRate, cf.MutatorStats[id].Rate())
		fig.FreqClassfuzz = append(fig.FreqClassfuzz, cf.MutatorStats[id].Frequency(cf.Iterations))
		fig.FreqUniquefuzz = append(fig.FreqUniquefuzz, uf.MutatorStats[id].Frequency(uf.Iterations))
	}
	return fig
}

// String renders the three series as columns.
func (f *Figure4) String() string {
	var b strings.Builder
	b.WriteString("Figure 4: mutator success rates vs selection frequencies (sorted by classfuzz[stbr] success rate)\n")
	fmt.Fprintf(&b, "%4s %-30s %9s %12s %13s\n", "rank", "mutator", "(a) succ", "(b) cf freq", "(c) uf freq")
	for i := range f.Names {
		fmt.Fprintf(&b, "%4d %-30s %9.3f %12.4f %13.4f\n",
			i+1, f.Names[i], f.SuccRate[i], f.FreqClassfuzz[i], f.FreqUniquefuzz[i])
	}
	return b.String()
}

// MCMCGain estimates the paper's "+43% representative classfiles from
// MCMC sampling": (|Test_classfuzz[stbr]| - |Test_uniquefuzz|) /
// |Test_uniquefuzz|.
func (s *Session) MCMCGain() float64 {
	u := len(s.Campaigns[KeyUniquefuzz].Test)
	c := len(s.Campaigns[KeyClassfuzzSTBR].Test)
	if u == 0 {
		return 0
	}
	return float64(c-u) / float64(u)
}

// MCMCGainStudy averages the MCMC-vs-uniform comparison over several
// seed corpora at a fixed budget; single campaigns are noisy, the mean
// shows the +43 % effect's direction reliably.
type MCMCGainStudy struct {
	Repeats    int
	Iterations int
	// Totals of representative tests across repeats.
	ClassfuzzTests  int
	UniquefuzzTests int
}

// Gain returns the mean relative gain of MCMC selection.
func (s *MCMCGainStudy) Gain() float64 {
	if s.UniquefuzzTests == 0 {
		return 0
	}
	return float64(s.ClassfuzzTests-s.UniquefuzzTests) / float64(s.UniquefuzzTests)
}

// String renders the study.
func (s *MCMCGainStudy) String() string {
	return fmt.Sprintf("MCMC gain study: %d repeats × %d iterations -> classfuzz %d vs uniquefuzz %d representative tests (%+.1f%%)",
		s.Repeats, s.Iterations, s.ClassfuzzTests, s.UniquefuzzTests, s.Gain()*100)
}

// RunMCMCGainStudy runs the paired campaigns `repeats` times with
// different seed corpora.
func RunMCMCGainStudy(scale Scale, repeats int) (*MCMCGainStudy, error) {
	study := &MCMCGainStudy{Repeats: repeats, Iterations: scale.Iterations}
	for r := 0; r < repeats; r++ {
		// The repeat's two campaigns share one source and its seed pass.
		src := campaign.FlatSeeds(seedgen.Generate(seedgen.DefaultOptions(scale.SeedCount, scale.Seed+int64(r))))
		run := func(alg campaign.Algorithm) (int, error) {
			res, err := campaign.Run(campaign.Config{
				Algorithm: alg, Criterion: coverage.STBR, Source: src,
				Iterations: scale.Iterations, Rand: scale.Seed + int64(r)*31,
				RefSpec: jvm.HotSpot9(),
			})
			if err != nil {
				return 0, err
			}
			return len(res.Test), nil
		}
		c, err := run(campaign.Classfuzz)
		if err != nil {
			return nil, err
		}
		u, err := run(campaign.Uniquefuzz)
		if err != nil {
			return nil, err
		}
		study.ClassfuzzTests += c
		study.UniquefuzzTests += u
	}
	return study, nil
}

// BlindBaseline compares byte-level blind fuzzing (the Sirer & Bershad
// style the paper's related work describes) against the structured
// randfuzz at an equal budget: the fraction of mutants rejected during
// loading quantifies §1's claim that blind binary mutation yields
// mostly invalid classfiles.
type BlindBaseline struct {
	Iterations int
	// LoadRejectRate[alg] is the fraction of mutants every VM rejects in
	// the loading phase.
	ByteLoadReject float64
	RandLoadReject float64
	// Discrepancy rates for context.
	ByteDiff float64
	RandDiff float64
}

// String renders the study.
func (b *BlindBaseline) String() string {
	return fmt.Sprintf("Blind-fuzzing baseline (%d iterations each): bytefuzz %.0f%% of mutants rejected at loading (diff %.1f%%) vs structured randfuzz %.0f%% (diff %.1f%%)",
		b.Iterations, b.ByteLoadReject*100, b.ByteDiff*100, b.RandLoadReject*100, b.RandDiff*100)
}

// RunBlindBaseline runs both blind fuzzers and evaluates their mutants.
func RunBlindBaseline(scale Scale) (*BlindBaseline, error) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(scale.SeedCount, scale.Seed))
	runner := difftest.NewStandardRunner()
	out := &BlindBaseline{Iterations: scale.Iterations}
	for _, alg := range []campaign.Algorithm{campaign.Bytefuzz, campaign.Randfuzz} {
		res, err := campaign.Run(campaign.Config{
			Algorithm: alg, Criterion: coverage.STBR, Source: campaign.FlatSeeds(seeds),
			Iterations: scale.Iterations, Rand: scale.Seed + 3, RefSpec: jvm.HotSpot9(),
		})
		if err != nil {
			return nil, err
		}
		var classes [][]byte
		for _, g := range res.Gen {
			if len(g.Data) > 0 {
				classes = append(classes, g.Data)
			}
		}
		// One evaluation: count discrepancies and all-rejected-at-loading
		// ("invalid") mutants from its kept vectors.
		sum := runner.Evaluate(classes, difftest.Options{})
		loadRejected, discrepant := 0, 0
		for _, v := range sum.Vectors {
			if v.Discrepant() {
				discrepant++
			}
			if v.Category() == difftest.RejectedSameStage && v.Codes[0] == int(jvm.PhaseLoading) {
				loadRejected++
			}
		}
		rate, diff := 0.0, 0.0
		if n := len(classes); n > 0 {
			rate = float64(loadRejected) / float64(n)
			diff = float64(discrepant) / float64(n)
		}
		if alg == campaign.Bytefuzz {
			out.ByteLoadReject = rate
			out.ByteDiff = diff
		} else {
			out.RandLoadReject = rate
			out.RandDiff = diff
		}
	}
	return out, nil
}

// --- preliminary study ---------------------------------------------------------

// Preliminary reproduces the §1 baseline: the discrepancy rate of a
// library-like corpus across the five JVMs (the paper's 1.7 %:
// 364/21,736). It is Table 6's library-corpus row, as the paper's study
// is its Table 6's JRE column.
type Preliminary Table6Row

// Preliminary returns Table 6's library-corpus row, or nil if the
// corpus could not be generated.
func (s *Session) Preliminary() *Preliminary {
	for _, r := range s.Table6().Rows {
		if r.Set == "library-corpus" {
			p := Preliminary(r)
			return &p
		}
	}
	return nil
}

// String renders the study.
func (p *Preliminary) String() string {
	return fmt.Sprintf("Preliminary study: %d/%d (%.1f%%) library classfiles trigger JVM discrepancies (%d distinct)",
		p.Discrepancies, p.Size, p.DiffRate*100, p.Distinct)
}

// PEstimate reproduces the §2.2.2 parameter estimation.
type PEstimate struct {
	N       int
	Eps     float64
	Lo, Hi  float64
	Default float64
}

// RunPEstimate computes the feasible p range for the mutator count.
func RunPEstimate() (*PEstimate, error) {
	n := mutation.TotalMutators
	lo, hi, err := mcmc.PBounds(n, 0.001)
	if err != nil {
		return nil, err
	}
	return &PEstimate{N: n, Eps: 0.001, Lo: lo, Hi: hi, Default: mcmc.DefaultP(n)}, nil
}

// String renders the estimation.
func (p *PEstimate) String() string {
	return fmt.Sprintf("Parameter estimation: n=%d, eps=%g -> p in (%.4f, %.4f); chosen p = 3/%d = %.4f",
		p.N, p.Eps, p.Lo, p.Hi, p.N, p.Default)
}
