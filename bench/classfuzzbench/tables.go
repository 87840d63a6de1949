package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/classfile"
	"repro/internal/coverage"
	"repro/internal/difftest"
	"repro/internal/experiments"
	"repro/internal/jvm"
	"repro/internal/telemetry"
)

// tablesTrace accumulates the traced paper-tables run's own layer
// numbers; its campaign replays and mismatches go through ct.
type tablesTrace struct {
	ct *campaignTrace
	// phases sums each session phase (experiments.campaigns, .table4,
	// .table6, .table7) over the sessions.
	phases map[string]time.Duration
	corpus time.Duration
	t6     telemetry.Snapshot // Table 6 deltas, summed
	nextID int
}

// phase is one public call of a session, timed by runTables.
type phase struct {
	name       string
	start, end time.Time
}

// runTables runs one paper-reproduction session per seed s, s+1, ...:
// NewSession (seed generation and the six campaigns), then Tables 4, 6
// and 7. A traced run also re-runs and replays each session's
// classfuzz[stbr] campaign, times the library-corpus generation on its
// own and re-evaluates every Table 6 block on a fresh five-VM lineup,
// checking each block's discrepancy and distinct-vector counts.
func runTables(c *runCtx) (*outcome, error) {
	o := newOutcome()
	first := c.size.tables
	// Set-up: the first session's seed corpus, generated and lowered the
	// way NewSession does; the session must reproduce it byte for byte.
	var setupFiles [][]byte
	if err := c.setup(o, func() error {
		files, err := c.generateFiles(first.SeedCount, c.seed)
		setupFiles = files
		return err
	}, nil); err != nil {
		return nil, err
	}

	var tt *tablesTrace
	if c.tr != nil {
		tt = &tablesTrace{ct: newCampaignTrace(c), phases: map[string]time.Duration{}}
	}
	var wall, campaignsT, tablesT time.Duration
	var sessionMs []float64
	var allocs uint64
	iters, classes := 0, 0
	for k := 0; k < c.size.sessions; k++ {
		sc := c.size.tables
		sc.Seed = c.seed + int64(k)
		sc.Workers = c.workers
		// Each session starts from a collected heap, so the previous
		// session's garbage does not decide this one's peak memory.
		runtime.GC()
		m0 := mallocs()
		t0 := time.Now()
		s, err := experiments.NewSession(sc)
		t1 := time.Now()
		if err != nil {
			return nil, err
		}
		t4 := s.Table4()
		t2 := time.Now()
		before := s.Telemetry.Snapshot()
		t6 := s.Table6()
		t3 := time.Now()
		t6delta := s.Telemetry.Snapshot().Diff(before)
		t7 := s.Table7()
		t5 := time.Now()
		allocs += mallocs() - m0

		wall += t5.Sub(t0)
		sessionMs = append(sessionMs, float64(t5.Sub(t0).Nanoseconds())/1e6)
		campaignsT += t1.Sub(t0)
		tablesT += t3.Sub(t2) + t5.Sub(t3)
		for _, r := range s.Campaigns {
			iters += r.Iterations
		}
		for _, r := range t6.Rows {
			classes += r.Size
		}
		classes += t7.Suite

		tag := fmt.Sprintf("session%d", k)
		if k == 0 {
			same := len(s.SeedFiles) == len(setupFiles)
			for i := 0; same && i < len(setupFiles); i++ {
				same = bytes.Equal(s.SeedFiles[i], setupFiles[i])
			}
			o.check(same, "%s: seed corpus differs from the one set-up generated", tag)
		}
		checkTables(o, tag, sc, t4, t6, t7)
		o.invariants[tag+".table4"] = table4Invariant(t4)
		o.invariants[tag+".table6"] = table6Invariant(t6)
		o.invariants[tag+".table7"] = fmt.Sprint(t7.Suite, t7.Counts)

		if tt != nil {
			phases := []phase{
				{"experiments.campaigns", t0, t1},
				{"experiments.table4", t1, t2},
				{"experiments.table6", t2, t3},
				{"experiments.table7", t3, t5},
			}
			if err := tt.session(s, k, phases, t6, t6delta); err != nil {
				return nil, err
			}
		}
	}
	o.set("wall_s", wall.Seconds())
	o.ratio("iters_per_s", float64(iters), campaignsT.Seconds())
	o.ratio("classes_per_s", float64(classes), tablesT.Seconds())
	setLatency(o, sessionMs)
	o.ratio("allocs_per_iter", float64(allocs), float64(iters))
	if tt != nil {
		tt.layers(o, c.size.sessions)
	}
	return o, nil
}

// checkTables checks that one session's tables agree with each other.
func checkTables(o *outcome, tag string, sc experiments.Scale, t4 *experiments.Table4, t6 *experiments.Table6, t7 *experiments.Table7) {
	gen, test := map[string]int{}, map[string]int{}
	o.check(len(t4.Rows) == len(experiments.CampaignOrder), "%s: Table 4 has %d rows", tag, len(t4.Rows))
	for _, r := range t4.Rows {
		gen[r.Campaign], test[r.Campaign] = r.GenClasses, r.TestClasses
		o.check(r.TestClasses <= r.GenClasses && r.GenClasses <= r.Iterations,
			"%s: Table 4 %s: %d tests of %d generated in %d iterations", tag, r.Campaign, r.TestClasses, r.GenClasses, r.Iterations)
	}
	rows := map[string]experiments.Table6Row{}
	for _, r := range t6.Rows {
		rows[r.Set] = r
		o.check(r.Size == r.AllInvoked+r.AllRejectedSameStage+r.Discrepancies && r.Distinct <= r.Discrepancies,
			"%s: Table 6 %s does not add up: %+v", tag, r.Set, r)
	}
	o.check(rows["seeds"].Size == sc.SeedCount, "%s: Table 6 seeds row has %d classes, want %d", tag, rows["seeds"].Size, sc.SeedCount)
	for _, key := range experiments.CampaignOrder {
		if key != experiments.KeyRandfuzz {
			o.check(rows["Gen:"+key].Size == gen[key], "%s: Table 6 Gen:%s has %d classes, Table 4 %d", tag, key, rows["Gen:"+key].Size, gen[key])
		}
		o.check(rows["Test:"+key].Size == test[key], "%s: Table 6 Test:%s has %d classes, Table 4 %d", tag, key, rows["Test:"+key].Size, test[key])
	}
	o.check(t7.Suite == test[experiments.KeyClassfuzzSTBR], "%s: Table 7 covers %d classes, Table 4 accepted %d", tag, t7.Suite, test[experiments.KeyClassfuzzSTBR])
	for vm, counts := range t7.Counts {
		sum := 0
		for _, n := range counts {
			sum += n
		}
		o.check(sum == t7.Suite, "%s: Table 7 column %s sums to %d of %d", tag, t7.VMNames[vm], sum, t7.Suite)
	}
}

// table4Invariant renders Table 4 without its timing columns.
func table4Invariant(t *experiments.Table4) string {
	var b strings.Builder
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%s:%d/%d/%d;", r.Campaign, r.Iterations, r.GenClasses, r.TestClasses)
	}
	return b.String()
}

func table6Invariant(t *experiments.Table6) string {
	var b strings.Builder
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%s:%d/%d/%d/%d/%d;", r.Set, r.Size, r.AllInvoked, r.AllRejectedSameStage, r.Discrepancies, r.Distinct)
	}
	return b.String()
}

// tableBlock is one Table 6 row's class set.
type tableBlock struct {
	name    string
	classes [][]byte
}

// tableBlocks rebuilds Table 6's class sets from the session, in its
// row order, with the library corpus generated (and timed) here.
func (tt *tablesTrace) tableBlocks(s *experiments.Session) ([]tableBlock, error) {
	t := time.Now()
	corpus, err := tt.ct.c.generateFiles(s.Scale.CorpusCount, s.Scale.Seed+7)
	tt.corpus += time.Since(t)
	if err != nil {
		return nil, err
	}
	blocks := []tableBlock{{"library-corpus", corpus}, {"seeds", s.SeedFiles}}
	for _, key := range experiments.CampaignOrder {
		if key == experiments.KeyRandfuzz {
			continue
		}
		var classes [][]byte
		for _, g := range s.Campaigns[key].Gen {
			if len(g.Data) > 0 {
				classes = append(classes, g.Data)
			}
		}
		blocks = append(blocks, tableBlock{"Gen:" + key, classes})
	}
	for _, key := range experiments.CampaignOrder {
		var classes [][]byte
		for _, g := range s.Campaigns[key].Test {
			classes = append(classes, g.Data)
		}
		blocks = append(blocks, tableBlock{"Test:" + key, classes})
	}
	return blocks, nil
}

// reevaluate runs every Table 6 block again on a fresh five-VM lineup,
// on one goroutine:
// each distinct class is parsed once and run on every VM (a repeat
// within the session reuses its vector, as the session's outcome memo
// does). Each block's discrepancy and distinct-vector counts must
// equal Table 6's.
func (tt *tablesTrace) reevaluate(s *experiments.Session, t6 *experiments.Table6) error {
	tr := tt.ct.c.tr
	blocks, err := tt.tableBlocks(s)
	if err != nil {
		return err
	}
	vms := difftest.NewStandardRunner().VMs
	jvm.ShareVerifyMemo(vms, jvm.NewVerifyMemo())
	spanNames := make([]string, len(vms))
	for i, vm := range vms {
		spanNames[i] = "jvm." + vm.Spec.Name + ".run"
	}
	rows := map[string]experiments.Table6Row{}
	for _, r := range t6.Rows {
		rows[r.Set] = r
	}
	seen := map[string]difftest.Vector{}
	for _, b := range blocks {
		disc := 0
		distinct := map[string]bool{}
		for _, data := range b.classes {
			v, ok := seen[string(data)]
			if !ok {
				tr.beginRoot(tt.nextID)
				tt.nextID++
				v = difftest.Vector{Codes: make([]int, len(vms)), Outcomes: make([]jvm.Outcome, len(vms))}
				t := time.Now()
				f, perr := classfile.Parse(data)
				tr.child("classfile.parse", t)
				for i, vm := range vms {
					if perr != nil {
						v.Outcomes[i] = jvm.ParseReject(perr)
					} else {
						t = time.Now()
						v.Outcomes[i] = vm.RunParsed(f)
						tr.child(spanNames[i], t)
					}
					v.Codes[i] = v.Outcomes[i].Code()
				}
				tr.endRoot("difftest.class")
				seen[string(data)] = v
			}
			if !v.AllInvoked() && v.Discrepant() {
				disc++
				distinct[v.Key()] = true
			}
		}
		row, ok := rows[b.name]
		if !ok || row.Discrepancies != disc || row.Distinct != len(distinct) {
			tt.ct.r.mismatch("session %d block %s: re-evaluation found %d discrepancies (%d distinct), Table 6 %d (%d)",
				s.Scale.Seed, b.name, disc, len(distinct), row.Discrepancies, row.Distinct)
		}
	}
	return nil
}

// session traces session k: its public calls as spans, the replay of
// its classfuzz[stbr] campaign, and the Table 6 re-evaluation.
func (tt *tablesTrace) session(s *experiments.Session, k int, phases []phase, t6 *experiments.Table6, t6delta telemetry.Snapshot) error {
	for _, p := range phases {
		tt.phases[p.name] += tt.ct.c.tr.interval(p.name, p.start, p.end, map[string]any{"session": k})
	}
	tt.t6 = telemetry.MergeSnapshots(tt.t6, t6delta)

	// The session runs its campaigns without the static prefilter,
	// seeded Scale.Seed+100, each with a private verify memo.
	cfg := campaign.Config{
		Algorithm:  campaign.Classfuzz,
		Criterion:  coverage.STBR,
		Iterations: s.Scale.Iterations,
		Rand:       s.Scale.Seed + 100,
		RefSpec:    jvm.HotSpot9(),
	}
	tt.ct.newMemo()
	src := func() (campaign.SeedSource, error) { return campaign.FlatSeeds(s.Seeds), nil }
	if err := tt.ct.run(cfg, src, s.Campaigns[experiments.KeyClassfuzzSTBR]); err != nil {
		return err
	}
	return tt.reevaluate(s, t6)
}

// layers sets the traced paper-tables run's per-layer metrics.
func (tt *tablesTrace) layers(o *outcome, sessions int) {
	tt.ct.layers(o)
	tr := tt.ct.c.tr
	n := float64(sessions)
	for _, name := range []string{"experiments.campaigns", "experiments.table6", "experiments.table7"} {
		o.ratio(name+"_s", tt.phases[name].Seconds(), n)
	}
	o.ratio("seedgen.corpus_s", tt.corpus.Seconds(), n)
	for _, spec := range jvm.StandardFive() {
		span := "jvm." + spec.Name + ".run"
		o.ratio(span+"_us", float64(tr.selfNs(span))/1e3, float64(tr.count(span)))
	}
	o.ratio("difftest.memo_hit_rate", float64(tt.t6.Counter(difftest.MetricMemoHits)), float64(tt.t6.Counter(difftest.MetricMemoProbes)))
	o.ratio("difftest.vm_runs_per_class", float64(tt.t6.Counter(difftest.MetricVMRuns)), float64(tt.t6.Counter(difftest.MetricClasses)))
}
