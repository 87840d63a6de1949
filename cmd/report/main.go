// Command report runs the full classfuzz workflow — campaign,
// differential testing, triage — and emits a self-contained Markdown
// report: the document a JVM team would receive from one fuzzing
// session (campaign statistics, mutator effectiveness, discrepancy
// inventory with vectors and triage verdicts, reduced witnesses).
//
// Usage:
//
//	report [-seeds N] [-iters N] [-seed N] [-reduce N]
//	       [-seed-strategy uniform|clustered|yield]
//	       [-service-metrics FILE] > report.md
//
// -service-metrics folds a telemetry snapshot dumped by a classfuzzd
// daemon (curl .../metrics.json > FILE) into the session registry and
// appends a Service section covering the daemon's shard folds,
// API-requested state checkpoints and corpus intake.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/difftest"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/reduce"
	"repro/internal/seedgen"
	"repro/internal/seedsel"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/triage"
)

func main() {
	seedCount := flag.Int("seeds", 100, "seed corpus size")
	iters := flag.Int("iters", 1000, "campaign iterations")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 1, "campaign worker pool size (results are identical at any value)")
	reduceN := flag.Int("reduce", 3, "number of discrepancy witnesses to reduce")
	seedStrategy := flag.String("seed-strategy", "uniform", "seed selection: uniform, clustered, yield")
	serviceMetrics := flag.String("service-metrics", "", "telemetry snapshot JSON from a classfuzzd daemon (/metrics.json) to report on")
	flag.Parse()

	strategy, err := seedsel.ParseStrategy(*seedStrategy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "unknown seed strategy %q (want %s)\n", *seedStrategy, seedsel.Strategies())
		os.Exit(2)
	}

	// One registry for the whole session: campaign stage timing, per-VM
	// phase timing and the difftest engine all report here, and the
	// Telemetry section at the end renders from its snapshot.
	treg := telemetry.New()
	seeds := seedgen.Generate(seedgen.DefaultOptions(*seedCount, *seed))
	sched := seedsel.NewPass(seeds, jvm.HotSpot9(), treg).Source(strategy, len(seeds), treg)
	cfg := campaign.Config{
		Algorithm:       campaign.Classfuzz,
		Criterion:       coverage.STBR,
		Source:          sched,
		Iterations:      *iters,
		Rand:            *seed,
		RefSpec:         jvm.HotSpot9(),
		StaticPrefilter: true,
		Workers:         *workers,
		Telemetry:       treg,
	}
	res, err := campaign.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign: %v\n", err)
		os.Exit(1)
	}

	runner := difftest.NewStandardRunner()
	runner.UseTelemetry(treg)
	var classes [][]byte
	for _, g := range res.Test {
		classes = append(classes, g.Data)
	}
	sum := runner.Evaluate(classes, difftest.Options{Workers: runtime.GOMAXPROCS(0), Checked: true})
	diffStats := runner.Stats()
	tr := triage.New()

	fmt.Printf("# classfuzz session report\n\n")
	fmt.Printf("Coverage-directed differential testing of five simulated JVM implementations\n")
	fmt.Printf("(HotSpot 7/8/9, J9, GIJ), per Chen et al., PLDI 2016.\n\n")

	fmt.Printf("## Campaign\n\n")
	fmt.Printf("| metric | value |\n|---|---|\n")
	fmt.Printf("| algorithm | %s%s |\n", res.Algorithm, res.Criterion)
	fmt.Printf("| seeds | %d |\n", *seedCount)
	fmt.Printf("| iterations | %d |\n", res.Iterations)
	fmt.Printf("| generated classfiles | %d |\n", len(res.Gen))
	fmt.Printf("| representative tests | %d |\n", len(res.Test))
	fmt.Printf("| success rate | %.1f%% |\n", res.Succ()*100)
	fmt.Printf("| seed strategy | %s |\n", strategy)
	fmt.Printf("| wall clock | %s |\n\n", res.Elapsed.Round(1000000))

	if stats := sched.ClusterStats(); stats != nil {
		fmt.Printf("## Seed scheduling\n\n")
		fmt.Printf("Corpus clustered by structural fingerprint and baseline coverage\n")
		fmt.Printf("trace; draws scheduled per cluster under the %s policy (counters\n", strategy)
		fmt.Printf("are the campaign.seeds.* telemetry series).\n\n")
		fmt.Printf("| cluster | seeds | pool | draws | yield | demotions | demoted |\n|---|---|---|---|---|---|---|\n")
		for _, cs := range stats {
			fmt.Printf("| %d | %d | %d | %d | %d | %d | %v |\n",
				cs.Cluster, cs.Seeds, cs.Pool, cs.Draws, cs.Yield, cs.Demotions, cs.Demoted)
		}
		fmt.Printf("\n")
	}

	ev := treg.Snapshot()
	fmt.Printf("## Engine events\n\n")
	fmt.Printf("The campaign engine's campaign.* counters; they move only on the\n")
	fmt.Printf("sequential draw/commit stages, so these counts are deterministic\n")
	fmt.Printf("at any worker count.\n\n")
	fmt.Printf("| event | count |\n|---|---|\n")
	fmt.Printf("| iterations drawn | %d |\n", ev.Counter("campaign.iterations"))
	fmt.Printf("| mutants generated | %d |\n", ev.Counter("campaign.generated"))
	fmt.Printf("| mutator failures | %d |\n", ev.Counter("campaign.mutator_failures"))
	fmt.Printf("| reference-VM executions | %d |\n", ev.Counter("campaign.executions"))
	fmt.Printf("| prefilter cache hits | %d |\n", ev.Counter("campaign.prefilter.skipped"))
	fmt.Printf("| accepted tests | %d |\n\n", ev.Counter("campaign.accepts"))

	if pf := res.Prefilter; pf != nil {
		fmt.Printf("## Prefilter savings\n\n")
		fmt.Printf("A mutant the reference VM rejects during loading or linking is\n")
		fmt.Printf("doomed: its run's coverage trace is cached under a fingerprint, and\n")
		fmt.Printf("a fingerprint-equal repeat reuses it instead of running the\n")
		fmt.Printf("reference VM. The accepted suite is identical either way.\n\n")
		fmt.Printf("| metric (%s%s) | value |\n|---|---|\n", res.Algorithm, res.Criterion)
		fmt.Printf("| mutants checked | %d |\n", pf.Checked)
		fmt.Printf("| doomed (rejected in loading or linking) | %d |\n", pf.Doomed)
		fmt.Printf("| of which rejected in linking | %d |\n", pf.VerifyDoomed)
		fmt.Printf("| executions skipped | %d |\n", pf.Skipped)
		fmt.Printf("| doomed but executed (cache miss) | %d |\n\n", pf.Executed)
	}

	fmt.Printf("## Differential engine\n\n")
	fmt.Printf("The five-VM stage parses each class once and fans the parsed form\n")
	fmt.Printf("out to the lineup. Counters cover the checked suite evaluation\n")
	fmt.Printf("above.\n\n")
	diffClasses := diffStats.Counter(difftest.MetricClasses)
	diffParses := diffStats.Counter(difftest.MetricParses)
	fmt.Printf("| metric | value |\n|---|---|\n")
	fmt.Printf("| classes evaluated | %d |\n", diffClasses)
	fmt.Printf("| classfile parses | %d |\n", diffParses)
	fmt.Printf("| parses avoided (vs per-VM reparse) | %d |\n", diffClasses*int64(len(runner.VMs))-diffParses)
	fmt.Printf("| VM pipeline executions | %d |\n", diffStats.Counter(difftest.MetricVMRuns))
	fmt.Printf("| difftest stage wall clock | %s |\n\n",
		time.Duration(diffStats.Hist(difftest.MetricEvaluateNs).Sum).Round(1000000))

	// The campaign already merged (the ⊕ operator) the reference VM's
	// tracefiles of the seeds and every accepted test. Probe indices
	// resolve back to human-readable names through the shared registry.
	reg := jvm.ProbeRegistry()
	merged := res.Coverage
	mst := merged.Stats()

	fmt.Printf("## Reference-VM coverage of the seeds plus accepted tests\n\n")
	fmt.Printf("Merged tracefile of every seed and representative test (Algorithm 1's\n")
	fmt.Printf("TestClasses) on the instrumented reference VM, as the campaign\n")
	fmt.Printf("recorded it (statement and branch-edge probes over the interned\n")
	fmt.Printf("probe registry).\n\n")
	fmt.Printf("| metric | value |\n|---|---|\n")
	fmt.Printf("| statement probes covered | %d / %d |\n", mst.Stmts, reg.NumStmts())
	fmt.Printf("| branch edges covered | %d / %d |\n", mst.Branches, 2*reg.NumBranches())
	fmt.Printf("| combined statistic | %s |\n\n", mst)
	var uncovered []string
	for id := 0; id < reg.NumStmts(); id++ {
		if !merged.HasStmt(coverage.StmtID(id)) {
			uncovered = append(uncovered, reg.StmtName(coverage.StmtID(id)))
		}
	}
	sort.Strings(uncovered)
	if n := len(uncovered); n > 0 {
		const show = 12
		fmt.Printf("Uncovered statement probes (%d total, first %d):\n\n", n, min(show, n))
		for _, name := range uncovered[:min(show, n)] {
			fmt.Printf("- `%s`\n", name)
		}
		fmt.Printf("\n")
	}

	// An all-invoked class whose VMs print different lines is discrepant
	// under Definition 1, yet the Summary files it as invoked; counting
	// it here reconciles the table with the inventory below.
	outputDivergent := 0
	for _, v := range sum.Vectors {
		if v.AllInvoked() && v.OutputDivergent() {
			outputDivergent++
		}
	}
	fmt.Printf("## Differential testing\n\n")
	fmt.Printf("| metric | value |\n|---|---|\n")
	fmt.Printf("| suite size | %d |\n", len(sum.Vectors))
	fmt.Printf("| invoked by all five VMs | %d |\n", sum.Count(difftest.Invoked))
	fmt.Printf("| of which the VMs print different output (discrepant; in the inventory) | %d |\n", outputDivergent)
	fmt.Printf("| rejected by all at the same stage | %d |\n", sum.Count(difftest.RejectedSameStage))
	fmt.Printf("| discrepancy-triggering | %d (%.1f%%) |\n", sum.Count(difftest.Discrepancy), sum.DiffRate()*100)
	fmt.Printf("| distinct discrepancies | %d |\n", sum.DistinctCount())
	var mismatches []analysis.Mismatch
	for _, mm := range sum.Mismatches {
		mismatches = append(mismatches, mm...)
	}
	fmt.Printf("| static-oracle mismatches (sanitizer) | %d |\n\n", len(mismatches))
	for _, m := range mismatches[:min(10, len(mismatches))] {
		fmt.Printf("- oracle mismatch: %s\n", m)
	}

	fmt.Printf("### Per-VM phase histogram\n\n")
	fmt.Printf("| phase | %s |\n", strings.Join(sum.VMNames, " | "))
	fmt.Printf("|---|%s\n", strings.Repeat("---|", len(sum.VMNames)))
	hist := sum.PhaseHistogram()
	for _, ph := range jvm.AllPhases() {
		row := make([]string, len(sum.VMNames))
		for v := range sum.VMNames {
			row[v] = fmt.Sprintf("%d", hist[v][int(ph)])
		}
		fmt.Printf("| %s | %s |\n", ph, strings.Join(row, " | "))
	}

	fmt.Printf("\n## Top mutators\n\n")
	stats := append([]campaign.MutatorStat(nil), res.MutatorStats...)
	sort.SliceStable(stats, func(a, b int) bool {
		if stats[a].Rate() != stats[b].Rate() {
			return stats[a].Rate() > stats[b].Rate()
		}
		return stats[a].Selected > stats[b].Selected
	})
	fmt.Printf("| mutator | selected | representative | rate |\n|---|---|---|---|\n")
	shown := 0
	for _, st := range stats {
		if st.Selected < 2 {
			continue
		}
		fmt.Printf("| %s | %d | %d | %.2f |\n", st.Name, st.Selected, st.Success, st.Rate())
		if shown++; shown == 10 {
			break
		}
	}

	fmt.Printf("\n## Discrepancy inventory\n\n")
	fmt.Printf("Vector digits are the phase codes 0–4 per VM, in the order above.\n\n")
	type finding struct {
		g   *campaign.GenClass
		v   difftest.Vector
		rep *triage.Report
	}
	byVector := map[string][]finding{}
	for i, g := range res.Test {
		v := sum.Vectors[i]
		if !v.Discrepant() {
			continue
		}
		rep := tr.Triage(g.Data, v, sum.Mismatches[i])
		byVector[v.Key()] = append(byVector[v.Key()], finding{g: g, v: v, rep: rep})
	}
	keys := make([]string, 0, len(byVector))
	for k := range byVector {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("| vector | count | triage | witness | via mutator |\n|---|---|---|---|---|\n")
	for _, k := range keys {
		fs := byVector[k]
		f := fs[0]
		mutName := ""
		if f.g.MutatorID >= 0 && f.g.MutatorID < len(res.MutatorStats) {
			mutName = res.MutatorStats[f.g.MutatorID].Name
		}
		fmt.Printf("| `%s` | %d | %s | %s | %s |\n", k, len(fs), f.rep.Verdict, f.g.Name, mutName)
	}

	fmt.Printf("\n## Reduced witnesses\n\n")
	reduced := 0
	for _, k := range keys {
		if reduced == *reduceN {
			break
		}
		f := byVector[k][0]
		w, err := campaign.Rebuild(cfg, res.Draws, f.g.Iter)
		if err != nil {
			continue
		}
		rres, err := reduce.Reduce(w.Class, runner, reduce.Options{MaxRounds: 4})
		if err != nil {
			continue
		}
		reduced++
		fmt.Printf("### %s (vector `%s`, %s)\n\n", f.g.Name, k, f.rep.Verdict)
		for i, name := range runner.Names() {
			fmt.Printf("- %s: %s\n", name, f.v.Outcomes[i])
		}
		fmt.Printf("\n```jimple\n%s```\n\n", jimple.Print(rres.Reduced))
	}
	if reduced == 0 {
		fmt.Printf("_no reducible witnesses in this session_\n")
	}

	// Final snapshot: everything above — campaign stages, difftest
	// engine, memo, per-VM pipeline — reported into one registry.
	final := treg.Snapshot()
	fmt.Printf("\n## Telemetry\n\n")
	fmt.Printf("Session metrics snapshot (observe-only; results are identical with\n")
	fmt.Printf("telemetry detached). Stage timings are per-iteration means over the\n")
	fmt.Printf("campaign engine's pipeline spans, the seed step (with the source's seed\n")
	fmt.Printf("pass if it runs then) once per engine run. Idle is a worker waiting for\n")
	fmt.Printf("a task while the rest of the pipeline window runs or waits behind its\n")
	fmt.Printf("head, one sample per wait.\n\n")
	fmt.Printf("| stage | samples | mean |\n|---|---|---|\n")
	if h := final.Hist("seedsel.baselines_ns"); h.Count > 0 {
		fmt.Printf("| seedsel baselines | %d | %s |\n", h.Count, h.MeanDuration())
	}
	for _, stage := range []string{"seeds", "draw", "mutate", "prefilter", "exec", "commit", "idle"} {
		h := final.Hist("campaign.stage." + stage + "_ns")
		if h.Count == 0 {
			continue
		}
		fmt.Printf("| campaign %s | %d | %s |\n", stage, h.Count, h.MeanDuration())
	}
	if h := final.Hist(difftest.MetricEvaluateNs); h.Count > 0 {
		fmt.Printf("| difftest evaluate | %d | %s |\n", h.Count, h.MeanDuration())
	}
	fmt.Printf("\n| VM | pipeline runs | mean load | mean runtime |\n|---|---|---|---|\n")
	for _, vm := range runner.VMs {
		prefix := "jvm." + vm.Spec.Name
		load := final.Hist(prefix + ".phase." + jvm.PhaseLoading.String() + "_ns")
		run := final.Hist(prefix + ".phase." + jvm.PhaseRuntime.String() + "_ns")
		fmt.Printf("| %s | %d | %s | %s |\n",
			vm.Name(), final.Counter(prefix+".runs"), load.MeanDuration(), run.MeanDuration())
	}
	checked, doomed := final.Counter("campaign.prefilter.checked"), final.Counter("campaign.prefilter.doomed")
	fmt.Printf("\nPrefilter verdicts: %d accept / %d reject (rejected in linking: %d).\n",
		checked-doomed, doomed, final.Counter("campaign.prefilter.verify_doomed"))
	fmt.Printf("Method verify memo (difftest lineup only; the campaign runs unmemoised): %d hits / %d misses (%d unsafe fallbacks).\n",
		final.Counter(jvm.MetricVerifyMemoHits),
		final.Counter(jvm.MetricVerifyMemoMisses),
		final.Counter(jvm.MetricVerifyMemoUnsafe))

	if *serviceMetrics != "" {
		if err := reportService(treg, *serviceMetrics); err != nil {
			fmt.Fprintf(os.Stderr, "service metrics: %v\n", err)
			os.Exit(1)
		}
	}
}

// reportService folds a daemon's telemetry snapshot into the session
// registry (so a combined dump sees both) and renders the Service
// section from the service.* metrics.
func reportService(treg *telemetry.Registry, path string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	treg.MergeSnapshot(snap)

	fmt.Printf("\n## Service\n\n")
	fmt.Printf("classfuzzd daemon activity from `%s`: shard epochs folded into\n", path)
	fmt.Printf("the session, state.json checkpoints asked for over the API, and corpus-intake\n")
	fmt.Printf("backpressure (429s mean submitters outpaced the intake queue).\n\n")
	fmt.Printf("| metric | value |\n|---|---|\n")
	fmt.Printf("| shard epochs folded | %d |\n", snap.Counter(service.MetricEpochsCompleted))
	fmt.Printf("| checkpoints written | %d |\n", snap.Counter(service.MetricCheckpointsWritten))
	fmt.Printf("| seeds accepted | %d |\n", snap.Counter(service.MetricSeedsAccepted))
	fmt.Printf("| seeds rejected (malformed) | %d |\n", snap.Counter(service.MetricSeedsRejected))
	fmt.Printf("| seeds throttled (429) | %d |\n", snap.Counter(service.MetricSeedsThrottled))
	fmt.Printf("| intake queue high-water | %d |\n", snap.Gauge(service.MetricQueueHighWater))
	fmt.Printf("| discrepancy log length | %d |\n", snap.Gauge(service.MetricDiscrepancies))
	for _, l := range []struct{ label, name string }{
		{"manager lock wait, fold + intake", service.MetricLockWait},
		{"manager lock hold, fold + intake", service.MetricLockHold},
	} {
		h := snap.Hist(l.name)
		fmt.Printf("| %s (mean over %d; total) | %v; %v |\n", l.label, h.Count, h.MeanDuration().Round(time.Microsecond), time.Duration(h.Sum).Round(time.Microsecond))
	}
	fmt.Printf("| campaign iterations across shards | %d |\n", snap.Counter("campaign.iterations"))
	fmt.Printf("| reference-VM executions across shards | %d |\n", snap.Counter("campaign.executions"))
	return nil
}
