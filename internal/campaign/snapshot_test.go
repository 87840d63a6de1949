package campaign

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/difftest"
	"repro/internal/seedgen"
)

// resumeSummary is the projection the kill-and-resume contract covers:
// the accepted suite (names AND bytes), the draw log, the generated
// classes' metadata, and the selector statistics. Prefilter stats are
// deliberately absent — the trace cache restarts cold after a resume,
// so only Skipped+Executed (not their split) is invariant; that sum is
// checked separately.
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
	snap := ctrl.Final()
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
	eng2, err := Resume(cfg, &loaded)
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
				// The only tolerated drift: the prefilter cache restarts
				// cold, so Skipped/Executed may split differently — but
				// their sum and all other counters must hold.
				if refRes.Prefilter != nil {
					pf, rpf := res.Prefilter, refRes.Prefilter
					if pf == nil {
						t.Fatalf("%s workers=%d stop=%d: resumed run lost prefilter stats", alg, workers, stopAt)
					}
					if pf.Checked != rpf.Checked || pf.Doomed != rpf.Doomed || pf.VerifyDoomed != rpf.VerifyDoomed ||
						pf.Skipped+pf.Executed != rpf.Skipped+rpf.Executed {
						t.Errorf("%s workers=%d stop=%d: prefilter stats drift beyond the cache split: %+v vs %+v",
							alg, workers, stopAt, pf, rpf)
					}
				}
			}
		}
	}
}

// TestKillResumeKillResume interrupts a campaign twice — the second
// snapshot lands while the first resume is still re-filling its
// in-flight window at one of the stop points — and still converges to
// the uninterrupted result.
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
		snap1 := ctrl.Final()

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
		snap2 := ctrl2.Final()

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
// resume under a diverged configuration or corpus.
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
	snap := ctrl.Final()

	bad := []struct {
		name   string
		mutate func(c *Config, s *Snapshot)
	}{
		{"rand", func(c *Config, s *Snapshot) { c.Rand++ }},
		{"iterations", func(c *Config, s *Snapshot) { c.Iterations++ }},
		{"algorithm", func(c *Config, s *Snapshot) { c.Algorithm = Greedyfuzz }},
		{"lookahead", func(c *Config, s *Snapshot) { c.Lookahead = 8 }},
		{"seeds", func(c *Config, s *Snapshot) { c.Source = FlatSeeds(seedgen.Generate(seedgen.DefaultOptions(20, 6))) }},
		{"version", func(c *Config, s *Snapshot) { s.Version = SnapshotVersion + 1 }},
		{"draw log", func(c *Config, s *Snapshot) { s.Draws[10].MutatorID = (s.Draws[10].MutatorID + 1) % 30 }},
		{"truncated", func(c *Config, s *Snapshot) { s.Draws = s.Draws[:len(s.Draws)-1] }},
		{"gen iter past draw log", func(c *Config, s *Snapshot) { s.Gens[len(s.Gens)-1].Iter = len(s.Draws) + 5 }},
		{"negative gen iter", func(c *Config, s *Snapshot) { s.Gens[0].Iter = -1 }},
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
		blob, err := json.MarshalIndent(ctrl.Final(), "", "  ")
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
