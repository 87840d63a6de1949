package campaign

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/coverage"
	"repro/internal/difftest"
	"repro/internal/jvm"
	"repro/internal/seedgen"
	"repro/internal/seedsel"
	"repro/internal/telemetry"
)

// resumeSummary is the projection the kill-and-resume contract covers:
// the accepted suite (names AND bytes), the draw log, the generated
// classes' metadata, and the selector statistics. Prefilter stats are
// compared separately (Result.Prefilter).
type resumeSummary struct {
	TestNames    []string
	TestBytes    [][]byte
	GenCount     int
	GenUnique    int
	Draws        []DrawRecord
	MutatorStats []MutatorStat
	GenMeta      []GenClass
}

func resumeSummarize(r *Result) resumeSummary {
	s := resumeSummary{
		TestNames:    []string{},
		TestBytes:    [][]byte{},
		GenCount:     len(r.Gen),
		GenUnique:    r.GenUniqueStats,
		Draws:        r.Draws,
		MutatorStats: r.MutatorStats,
	}
	for _, g := range r.Test {
		s.TestNames = append(s.TestNames, g.Name)
		s.TestBytes = append(s.TestBytes, g.Data)
	}
	for _, g := range r.Gen {
		s.GenMeta = append(s.GenMeta, GenClass{Iter: g.Iter, Name: g.Name, MutatorID: g.MutatorID, Stats: g.Stats, Accepted: g.Accepted})
	}
	return s
}

// diffSummary runs the accepted suite through the five-VM differential
// stage; the Summary must be byte-identical across kill/resume.
func diffSummary(t *testing.T, r *Result) *difftest.Summary {
	t.Helper()
	var classes [][]byte
	for _, g := range r.Test {
		classes = append(classes, g.Data)
	}
	return difftest.NewStandardRunner().Evaluate(classes, difftest.Options{})
}

// runInterrupted runs cfg up to a deterministic stop boundary, JSON
// round-trips the snapshot (simulating the kill: nothing survives but
// the serialized bytes and the config), resumes, and returns the
// resumed run's final result.
func runInterrupted(t *testing.T, cfg Config, stopAt int) *Result {
	t.Helper()
	eng2, err := Resume(cfg, stopSnapshot(t, cfg, stopAt))
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	res, err := eng2.Run()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if !res.Resumed {
		t.Fatal("resumed result not marked Resumed")
	}
	return res
}

// stopSnapshot runs cfg up to a deterministic stop boundary and returns
// the JSON round-tripped snapshot taken there.
func stopSnapshot(t testing.TB, cfg Config, stopAt int) *Snapshot {
	t.Helper()
	ctrl := NewControl()
	ctrl.StopAt(stopAt)
	run1 := cfg
	run1.Control = ctrl
	eng, err := NewEngine(run1)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	partial, err := eng.Run()
	if err != nil {
		t.Fatalf("interrupted run: %v", err)
	}
	if stopAt < cfg.Iterations && !partial.Stopped {
		t.Fatalf("run did not stop at %d", stopAt)
	}
	snap := ctrl.Snapshot()
	if snap == nil {
		t.Fatal("no final snapshot")
	}
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	var loaded Snapshot
	if err := json.Unmarshal(blob, &loaded); err != nil {
		t.Fatalf("unmarshal snapshot: %v", err)
	}
	return &loaded
}

// TestKillAndResumeDeterminism is the service layer's core contract: a
// campaign checkpointed at an arbitrary boundary, killed (only the
// snapshot JSON survives) and resumed yields a byte-identical accepted
// suite, draw log and difftest Summary versus the uninterrupted run —
// at worker counts 1 and 4, with stop points before, inside and after
// the first pipeline window.
func TestKillAndResumeDeterminism(t *testing.T) {
	for _, alg := range []Algorithm{Classfuzz, Greedyfuzz, Randfuzz} {
		cfg := detConfig(alg)
		refRes, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s reference: %v", alg, err)
		}
		ref := resumeSummarize(refRes)
		refDiff := diffSummary(t, refRes)
		for _, workers := range []int{1, 4} {
			for _, stopAt := range []int{1, 7, 16, 61, 159} {
				wcfg := cfg
				wcfg.Workers = workers
				res := runInterrupted(t, wcfg, stopAt)
				got := resumeSummarize(res)
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("%s workers=%d stop=%d: resumed result diverges from uninterrupted run", alg, workers, stopAt)
					continue
				}
				if gotDiff := diffSummary(t, res); !reflect.DeepEqual(gotDiff, refDiff) {
					t.Errorf("%s workers=%d stop=%d: difftest Summary diverges", alg, workers, stopAt)
				}
				// The replay leaves the trace cache as warm as it was at
				// the snapshot, so even the Skipped/Executed split holds.
				if !reflect.DeepEqual(res.Prefilter, refRes.Prefilter) {
					t.Errorf("%s workers=%d stop=%d: prefilter stats %+v, uninterrupted %+v",
						alg, workers, stopAt, res.Prefilter, refRes.Prefilter)
				}
			}
		}
	}
}

// TestKillResumeKillResume interrupts a campaign twice — at two of the
// stop pairs the second snapshot lands while tasks the first resume's
// replay drew are still in flight — and still converges to the
// uninterrupted result.
func TestKillResumeKillResume(t *testing.T) {
	cfg := detConfig(Classfuzz)
	refRes, err := Run(cfg)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	ref := resumeSummarize(refRes)
	for _, stops := range [][2]int{{40, 45}, {40, 90}, {5, 10}} {
		ctrl := NewControl()
		ctrl.StopAt(stops[0])
		run1 := cfg
		run1.Control = ctrl
		eng, err := NewEngine(run1)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatalf("first run: %v", err)
		}
		snap1 := ctrl.Snapshot()

		ctrl2 := NewControl()
		ctrl2.StopAt(stops[1])
		run2 := cfg
		run2.Control = ctrl2
		eng2, err := Resume(run2, snap1)
		if err != nil {
			t.Fatalf("first resume: %v", err)
		}
		if _, err := eng2.Run(); err != nil {
			t.Fatalf("second run: %v", err)
		}
		snap2 := ctrl2.Snapshot()

		eng3, err := Resume(cfg, snap2)
		if err != nil {
			t.Fatalf("second resume: %v", err)
		}
		res, err := eng3.Run()
		if err != nil {
			t.Fatalf("final run: %v", err)
		}
		if got := resumeSummarize(res); !reflect.DeepEqual(got, ref) {
			t.Errorf("stops %v: doubly-resumed result diverges", stops)
		}
	}
}

// TestControlSnapshotMidRun snapshots a running campaign without
// stopping it (the daemon's periodic checkpoint path) and verifies the
// snapshot resumes to the uninterrupted result while the original run
// also completes identically.
func TestControlSnapshotMidRun(t *testing.T) {
	cfg := detConfig(Classfuzz)
	cfg.Workers = 4
	refRes, err := Run(cfg)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	ref := resumeSummarize(refRes)

	ctrl := NewControl()
	live := cfg
	live.Control = ctrl
	eng, err := NewEngine(live)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	type done struct {
		res *Result
		err error
	}
	ch := make(chan done, 1)
	go func() {
		r, err := eng.Run()
		ch <- done{r, err}
	}()
	snap := ctrl.Snapshot() // races the run — any boundary is resume-safe
	d := <-ch
	if d.err != nil {
		t.Fatalf("live run: %v", d.err)
	}
	if got := resumeSummarize(d.res); !reflect.DeepEqual(got, ref) {
		t.Error("snapshotted (non-stopped) run diverges from reference")
	}
	if snap.Committed > snap.Drawn || snap.Drawn > cfg.Iterations {
		t.Fatalf("inconsistent snapshot boundary: drawn %d committed %d", snap.Drawn, snap.Committed)
	}
	eng2, err := Resume(cfg, snap)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	res, err := eng2.Run()
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if got := resumeSummarize(res); !reflect.DeepEqual(got, ref) {
		t.Error("resume from mid-run snapshot diverges from reference")
	}
}

// TestResumeRejectsMismatchedConfig ensures a snapshot cannot silently
// resume under a diverged configuration or corpus, nor from a corrupt
// draw log or a point off the coordinator boundary.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	cfg := detConfig(Classfuzz)
	ctrl := NewControl()
	ctrl.StopAt(40)
	run1 := cfg
	run1.Control = ctrl
	eng, err := NewEngine(run1)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	snap := ctrl.Snapshot()

	bad := []struct {
		name   string
		mutate func(c *Config, s *Snapshot)
	}{
		{"rand", func(c *Config, s *Snapshot) { c.Rand++ }},
		{"iterations", func(c *Config, s *Snapshot) { c.Iterations++ }},
		{"algorithm", func(c *Config, s *Snapshot) { c.Algorithm = Greedyfuzz }},
		{"lookahead", func(c *Config, s *Snapshot) { s.Lookahead = 8 }},
		{"seeds", func(c *Config, s *Snapshot) { c.Source = FlatSeeds(seedgen.Generate(seedgen.DefaultOptions(20, 6))) }},
		{"version", func(c *Config, s *Snapshot) { s.Version = SnapshotVersion + 1 }},
		{"draw log", func(c *Config, s *Snapshot) { s.Draws[10].MutatorID = (s.Draws[10].MutatorID + 1) % 30 }},
		{"truncated", func(c *Config, s *Snapshot) { s.Draws = s.Draws[:len(s.Draws)-1] }},
		{"gen iter past draw log", func(c *Config, s *Snapshot) { s.Gens[len(s.Gens)-1].Iter = len(s.Draws) + 5 }},
		{"negative gen iter", func(c *Config, s *Snapshot) { s.Gens[0].Iter = -1 }},
		// A resume point is a coordinator boundary: Committed ==
		// max(0, Drawn−Lookahead), or a finished run, with nothing in
		// the in-flight window committed.
		{"committed raised to drawn", func(c *Config, s *Snapshot) { s.Committed = s.Drawn }},
		{"committed lowered", func(c *Config, s *Snapshot) { s.Committed-- }},
		{"truncated to committed", func(c *Config, s *Snapshot) { s.Drawn, s.Draws = s.Committed, s.Draws[:s.Committed] }},
		{"in-flight draw generated", func(c *Config, s *Snapshot) { s.Draws[s.Committed+1].Generated = true }},
		// The outcome log and counters are checked against the replay.
		{"rejected mutant stats", func(c *Config, s *Snapshot) {
			ge := &s.Gens[lastRejected(t, s)]
			ge.Stmts += 7
			ge.Branches += 3
		}},
		{"prefilter counts", func(c *Config, s *Snapshot) { s.Prefilter.Skipped++; s.Prefilter.Executed-- }},
		{"prefilter dropped", func(c *Config, s *Snapshot) { s.Prefilter = nil }},
		{"gen entry dropped", func(c *Config, s *Snapshot) { s.Gens = s.Gens[:len(s.Gens)-1] }},
		{"scheduler state", func(c *Config, s *Snapshot) { s.SeedSched = json.RawMessage(`{}`) }},
	}
	for _, tc := range bad {
		c := cfg
		var s Snapshot
		blob, _ := json.Marshal(snap)
		json.Unmarshal(blob, &s)
		tc.mutate(&c, &s)
		if _, err := Resume(c, &s); err == nil {
			t.Errorf("%s: Resume accepted a mismatched snapshot", tc.name)
		}
	}

	// The untouched snapshot still resumes.
	if _, err := Resume(cfg, snap); err != nil {
		t.Errorf("pristine snapshot rejected: %v", err)
	}
}

// lastRejected returns the index of the snapshot's last gen log entry
// that was not accepted.
func lastRejected(t *testing.T, s *Snapshot) int {
	t.Helper()
	for k := len(s.Gens) - 1; k >= 0; k-- {
		if !s.Gens[k].Accepted {
			return k
		}
	}
	t.Fatal("snapshot has no rejected mutant")
	return -1
}

// campaignCounts is the projection of a registry onto the engine's
// campaign facts that must not depend on where a campaign was killed.
func campaignCounts(reg *telemetry.Registry) map[string]int64 {
	c := reg.Snapshot().Counter
	out := map[string]int64{}
	for _, name := range []string{"iterations", "committed", "generated", "executions", "accepts", "mutator_failures", "prefilter.skipped"} {
		out[name] = c("campaign." + name)
	}
	return out
}

// TestKillResumeCounters: the engine's counters are campaign facts, so
// a campaign killed at any boundary and resumed onto a fresh registry
// reports the uninterrupted run's iterations, commits, mutants,
// reference-VM executions, accepts, mutator failures and cache-served
// mutants; and every generated mutant of a coverage-directed campaign
// is either executed on the reference VM or served from the
// prefilter's trace cache, across both lifetimes.
func TestKillResumeCounters(t *testing.T) {
	for _, alg := range []Algorithm{Classfuzz, Randfuzz} {
		cfg := detConfig(alg)
		ref := telemetry.New()
		rcfg := cfg
		rcfg.Telemetry = ref
		if _, err := Run(rcfg); err != nil {
			t.Fatalf("%s reference: %v", alg, err)
		}
		want := campaignCounts(ref)
		for _, workers := range []int{1, 4} {
			for _, stopAt := range []int{0, 70, cfg.Iterations} {
				wcfg := cfg
				wcfg.Workers = workers
				snap := stopSnapshot(t, wcfg, stopAt)
				reg := telemetry.New()
				wcfg.Telemetry = reg
				eng, err := Resume(wcfg, snap)
				if err != nil {
					t.Fatalf("%s workers=%d stop=%d: Resume: %v", alg, workers, stopAt, err)
				}
				if _, err := eng.Run(); err != nil {
					t.Fatalf("%s workers=%d stop=%d: resumed run: %v", alg, workers, stopAt, err)
				}
				if got := campaignCounts(reg); !reflect.DeepEqual(got, want) {
					t.Errorf("%s workers=%d stop=%d: resumed counters %v, uninterrupted %v", alg, workers, stopAt, got, want)
				}
				c := reg.Snapshot().Counter
				exec, skipped, gen := c("campaign.executions"), c("campaign.prefilter.skipped"), c("campaign.generated")
				switch {
				case alg == Classfuzz && exec+skipped != gen:
					t.Errorf("%s workers=%d stop=%d: executions %d + skipped %d != generated %d", alg, workers, stopAt, exec, skipped, gen)
				case alg == Randfuzz && exec != 0:
					t.Errorf("%s workers=%d stop=%d: randfuzz counted %d reference-VM executions", alg, workers, stopAt, exec)
				}
			}
		}
	}
}

// TestFailedResumeLeavesRegistry: a snapshot that fails its replay
// midway (an edited draw record) is refused without leaving any of the
// campaign counts it had replayed so far in the attached registry — a
// caller that falls back to a fresh engine on that registry must not
// count the rejected prefix.
func TestFailedResumeLeavesRegistry(t *testing.T) {
	cfg := detConfig(Classfuzz)
	snap := stopSnapshot(t, cfg, 70)
	snap.Draws[20].MutatorID = (snap.Draws[20].MutatorID + 1) % 30

	reg := telemetry.New()
	earlier := cfg
	earlier.Telemetry = reg
	earlier.Iterations = 30
	if _, err := Run(earlier); err != nil {
		t.Fatalf("earlier campaign: %v", err)
	}
	campaignMetrics := func() map[string]int64 {
		s := reg.Snapshot()
		out := map[string]int64{}
		for name, v := range s.Counters {
			if strings.HasPrefix(name, "campaign.") {
				out["counter "+name] = v
			}
		}
		for name, v := range s.Gauges {
			if strings.HasPrefix(name, "campaign.") {
				out["gauge "+name] = v
			}
		}
		return out
	}
	before := campaignMetrics()

	cfg.Telemetry = reg
	if _, err := Resume(cfg, snap); err == nil {
		t.Fatal("Resume accepted an edited draw log")
	}
	if after := campaignMetrics(); !reflect.DeepEqual(after, before) {
		t.Errorf("failed Resume moved the registry: before %v, after %v", before, after)
	}
}

// TestResultCoverageMerged checks Result.Coverage is the word-OR of
// seed and accepted traces (the coordinator's shard-merge input).
func TestResultCoverageMerged(t *testing.T) {
	cfg := detConfig(Classfuzz)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Coverage == nil {
		t.Fatal("no merged coverage on a coverage-directed campaign")
	}
	st := res.Coverage.Stats()
	if st.Stmts == 0 {
		t.Fatal("merged coverage is empty")
	}
	// Monotone: merging any accepted class's implied footprint cannot
	// exceed the campaign's merged trace... sanity-check against the
	// resumed run, whose merged trace must be set-equal.
	res2 := runInterrupted(t, cfg, 80)
	if res2.Coverage == nil || res2.Coverage.Stats() != st {
		t.Fatalf("resumed run's merged coverage diverges: %+v vs %+v", res2.Coverage.Stats(), st)
	}
}

// TestSnapshotBytesStable ensures the snapshot serialization is
// deterministic (the daemon's checkpoint files diff cleanly).
func TestSnapshotBytesStable(t *testing.T) {
	cfg := detConfig(Classfuzz)
	take := func() []byte {
		ctrl := NewControl()
		ctrl.StopAt(50)
		c := cfg
		c.Control = ctrl
		eng, err := NewEngine(c)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		blob, err := json.MarshalIndent(ctrl.Snapshot(), "", "  ")
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return blob
	}
	a, b := take(), take()
	if !bytes.Equal(a, b) {
		t.Fatal("snapshot serialization is not deterministic")
	}
}

// fuzzResumeConfig is FuzzResume's fixed campaign: small enough that a
// replay costs a few milliseconds, on a yield scheduler so snapshots
// carry seed-scheduler state. Each call builds a fresh scheduler, as
// every engine run needs.
func fuzzResumeConfig(t testing.TB) Config {
	t.Helper()
	seeds := seedgen.Generate(seedgen.DefaultOptions(10, 5))
	sched, err := seedsel.New(seeds, seedsel.Options{Strategy: seedsel.Yield, RefSpec: jvm.HotSpot9()})
	if err != nil {
		t.Fatalf("seedsel.New: %v", err)
	}
	return Config{
		Algorithm:       Classfuzz,
		Criterion:       coverage.STBR,
		Source:          sched,
		Iterations:      48,
		Rand:            17,
		RefSpec:         jvm.HotSpot9(),
		StaticPrefilter: true,
	}
}

// FuzzResume decodes arbitrary bytes as snapshot JSON and resumes
// fuzzResumeConfig's campaign from it. Resume must never panic, and a
// snapshot it accepts must run to the uninterrupted result: the same
// accepted suite, draw log, generated classes, selector statistics and
// prefilter counts. The committed corpus in testdata/fuzz/FuzzResume
// holds pristine snapshots at several stop points and tampered ones.
func FuzzResume(f *testing.F) {
	ref, err := Run(fuzzResumeConfig(f))
	if err != nil {
		f.Fatalf("reference: %v", err)
	}
	want := resumeSummarize(ref)
	for _, stopAt := range []int{0, 5, 30, 48} {
		blob, err := json.Marshal(stopSnapshot(f, fuzzResumeConfig(f), stopAt))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		var snap Snapshot
		if json.Unmarshal(blob, &snap) != nil {
			return
		}
		eng, err := Resume(fuzzResumeConfig(t), &snap)
		if err != nil {
			return
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatalf("accepted snapshot fails to run: %v", err)
		}
		if got := resumeSummarize(res); !reflect.DeepEqual(got, want) {
			t.Fatal("accepted snapshot resumes into a different campaign")
		}
		if !reflect.DeepEqual(res.Prefilter, ref.Prefilter) {
			t.Fatalf("accepted snapshot resumes to prefilter stats %+v, uninterrupted %+v", res.Prefilter, ref.Prefilter)
		}
	})
}
