package campaign

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/classfile"
	"repro/internal/coverage"
	"repro/internal/descriptor"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/seedgen"
	"repro/internal/seedsel"
	"repro/internal/telemetry"
)

// fixedBaselines hands the engine the given traces as a source's
// baselines. With none it hides the source's recorded traces, so the
// engine runs its own seed pass: the oracle for the reused one.
type fixedBaselines struct {
	SeedSource
	traces []*coverage.Trace
}

func (f fixedBaselines) Baselines(jvm.Spec) []*coverage.Trace { return f.traces }

// unlowerableSeed does not lower: its goto spans more than a 16-bit
// branch offset.
func unlowerableSeed() *jimple.Class {
	c := jimple.NewClass("FarGoto")
	c.AddStandardMain("far")
	m := c.AddMethod(classfile.AccPublic|classfile.AccStatic, "far", nil, descriptor.Void)
	m.Body = []jimple.Stmt{&jimple.Goto{Target: 40001}}
	for i := 0; i < 40000; i++ {
		m.Body = append(m.Body, &jimple.Nop{})
	}
	m.Body = append(m.Body, &jimple.Return{})
	return c
}

// verifyRejectSeed lowers, but the reference verifier rejects it at
// link time: an ireturn in a method declared to return a String.
func verifyRejectSeed() *jimple.Class {
	c := jimple.NewClass("BadReturn")
	c.AddStandardMain("bad")
	m := c.AddMethod(classfile.AccPublic|classfile.AccStatic, "s", nil, descriptor.Object("java/lang/String"))
	m.Body = []jimple.Stmt{&jimple.Return{Value: &jimple.IntConst{V: 1, Kind: 'I'}}}
	return c
}

// ownSeedPass is the engine's own seed pass over seeds on ref.
func ownSeedPass(seeds []*jimple.Class, ref jvm.Spec, memo *jvm.VerifyMemo) []*coverage.Trace {
	cfg := detConfig(Classfuzz)
	cfg.Source = FlatSeeds(seeds)
	cfg.RefSpec = ref
	cfg.VerifyMemo = memo
	return newEngine(cfg).runSeeds()
}

// sameTraces reports the first index where two seed passes disagree,
// trace key by trace key, or -1.
func sameTraces(a, b []*coverage.Trace) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) {
			return i
		}
		if a[i] != nil && (a[i].Key() != b[i].Key() || !a[i].EqualSets(b[i])) {
			return i
		}
	}
	return -1
}

// TestSchedulerBaselinesMatchSeedPass: the traces a scheduler records
// while clustering are exactly what the engine's own seed pass
// records, seed by seed, with no memo, a cold memo and a warm one. The
// corpora are the default ones of seeds 1-3 plus a seed that does not
// lower (nil on both sides) and one the verifier rejects.
func TestSchedulerBaselinesMatchSeedPass(t *testing.T) {
	for k := int64(1); k <= 3; k++ {
		seeds := append(seedgen.Generate(seedgen.DefaultOptions(60, k)), unlowerableSeed(), verifyRejectSeed())
		sched, err := seedsel.New(seeds, seedsel.Options{Strategy: seedsel.Yield, RefSpec: jvm.HotSpot9()})
		if err != nil {
			t.Fatal(err)
		}
		got := sched.Baselines(jvm.HotSpot9())
		if n := len(seeds); got[n-2] != nil || got[n-1] == nil {
			t.Fatalf("corpus %d: unlowerable baseline %v, verify-reject baseline %v", k, got[n-2], got[n-1])
		}
		memo := jvm.NewVerifyMemo()
		for _, pass := range []struct {
			name string
			memo *jvm.VerifyMemo
		}{{"no memo", nil}, {"cold memo", memo}, {"warm memo", memo}} {
			want := ownSeedPass(seeds, jvm.HotSpot9(), pass.memo)
			if i := sameTraces(got, want); i >= 0 {
				t.Fatalf("corpus %d, %s: seed %d baseline differs from the engine's seed pass", k, pass.name, i)
			}
		}
		if memo.Len() == 0 {
			t.Fatalf("corpus %d: the memo stayed empty, so the warm pass hit nothing", k)
		}
	}
}

// TestEngineFoldsSourceBaselines: the engine folds whatever a source
// hands it for each seed, and runs its own pass only when the slice
// does not cover the corpus.
func TestEngineFoldsSourceBaselines(t *testing.T) {
	cfg := schedConfig(t, seedsel.Clustered)
	seeds := cfg.Source.Corpus()
	own := ownSeedPass(seeds, cfg.RefSpec, nil)
	for _, tc := range []struct {
		name   string
		traces []*coverage.Trace
		folded []*coverage.Trace
	}{
		{"all nil", make([]*coverage.Trace, len(seeds)), nil},
		{"recorded", cfg.Source.Baselines(cfg.RefSpec), own},
		{"one short", make([]*coverage.Trace, len(seeds)-1), own},
		{"one long", make([]*coverage.Trace, len(seeds)+1), own},
		{"none", nil, own},
	} {
		c := cfg
		c.Source = fixedBaselines{cfg.Source, tc.traces}
		e := newEngine(c)
		e.initSeedState()
		want := coverage.NewTrace()
		for _, tr := range tc.folded {
			if tr != nil {
				want = coverage.Merge(want, tr)
			}
		}
		if !e.mergedCov.EqualSets(want) {
			t.Errorf("%s: the seed coverage is not the fold of the expected traces", tc.name)
		}
		if tc.folded == nil && e.suite.Size() != 0 {
			t.Errorf("%s: %d seed traces in the suite, want none", tc.name, e.suite.Size())
		}
	}
}

// fullSummary is every Result field the reuse must keep: the
// determinism summary, the test bytes and lineage metadata, and the
// merged coverage.
type fullSummary struct {
	Summary  summary
	Resume   resumeSummary
	Coverage coverage.Key
}

func summarizeFull(r *Result) fullSummary {
	return fullSummary{summarize(r), resumeSummarize(r), r.Coverage.Key()}
}

// runStopResume stops a run at stopAt and resumes it from the JSON
// round-tripped snapshot. mk supplies a fresh config (and source) for
// each engine run.
func runStopResume(t *testing.T, mk func() Config, stopAt int) *Result {
	t.Helper()
	ctrl := NewControl()
	ctrl.StopAt(stopAt)
	cfg := mk()
	cfg.Control = ctrl
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(ctrl.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(blob, &snap); err != nil {
		t.Fatal(err)
	}
	eng2, err := Resume(mk(), &snap)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng2.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBaselinesReuseEquivalence: a campaign that takes its seed traces
// from the scheduler equals one that runs its own seed pass — same
// Result, draw log and test bytes — for both strategies at 1 and 4
// workers, and across a resume from a mid-run snapshot.
func TestBaselinesReuseEquivalence(t *testing.T) {
	for _, strategy := range schedStrategies {
		strategy := strategy
		t.Run(string(strategy), func(t *testing.T) {
			t.Parallel()
			mk := func(workers int, hide bool) func() Config {
				return func() Config {
					cfg := schedConfig(t, strategy)
					cfg.Workers = workers
					if hide {
						cfg.Source = fixedBaselines{SeedSource: cfg.Source}
					}
					return cfg
				}
			}
			for _, w := range []int{1, 4} {
				reuse, err := Run(mk(w, false)())
				if err != nil {
					t.Fatal(err)
				}
				own, err := Run(mk(w, true)())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(summarizeFull(reuse), summarizeFull(own)) {
					t.Errorf("workers=%d: reusing the scheduler's baselines changes the result", w)
				}
				resumed := runStopResume(t, mk(w, false), 60)
				resumedOwn := runStopResume(t, mk(w, true), 60)
				if !reflect.DeepEqual(summarizeFull(resumed), summarizeFull(resumedOwn)) {
					t.Errorf("workers=%d: a resume reusing the baselines diverges from one running its own seed pass", w)
				}
				if !reflect.DeepEqual(resumeSummarize(resumed), resumeSummarize(reuse)) {
					t.Errorf("workers=%d: the resumed run diverges from the uninterrupted one", w)
				}
			}
		})
	}
}

// TestBaselinesOtherRefSpecNotReused: a scheduler recorded on HotSpot 9
// serves a GIJ-referenced campaign no baselines, so the campaign runs
// its own seed pass on GIJ, whose traces differ from HotSpot 9's.
func TestBaselinesOtherRefSpecNotReused(t *testing.T) {
	mk := func(hide bool) Config {
		cfg := schedConfig(t, seedsel.Yield)
		cfg.RefSpec = jvm.GIJ()
		if hide {
			cfg.Source = fixedBaselines{SeedSource: cfg.Source}
		}
		return cfg
	}
	cfg := mk(false)
	if got := cfg.Source.Baselines(jvm.GIJ()); got != nil {
		t.Fatalf("a HotSpot9 scheduler handed out %d baselines for GIJ", len(got))
	}
	seeds := cfg.Source.Corpus()
	if sameTraces(cfg.Source.Baselines(jvm.HotSpot9()), ownSeedPass(seeds, jvm.GIJ(), nil)) < 0 {
		t.Fatal("GIJ and HotSpot 9 record the same seed traces; the test cannot tell reuse from a seed pass")
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk(true))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(summarizeFull(a), summarizeFull(b)) {
		t.Error("a campaign on another reference spec took the scheduler's baselines")
	}
}

// TestSeedStageTelemetry: campaign.stage.seeds_ns takes one sample per
// engine run, fresh or resumed, whether the seed traces were reused or
// run; seedsel.baselines_ns one per scheduler built with a registry.
func TestSeedStageTelemetry(t *testing.T) {
	reg := telemetry.New()
	seeds := seedgen.Generate(seedgen.DefaultOptions(20, 5))
	mk := func() Config {
		sched, err := seedsel.New(seeds, seedsel.Options{Strategy: seedsel.Clustered, RefSpec: jvm.HotSpot9(), Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		cfg := detConfig(Classfuzz)
		cfg.Source = sched
		cfg.Telemetry = reg
		return cfg
	}
	if _, err := Run(mk()); err != nil {
		t.Fatal(err)
	}
	runStopResume(t, mk, 60)
	flat := detConfig(Classfuzz)
	flat.Telemetry = reg
	if _, err := Run(flat); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if got := s.Hist("seedsel.baselines_ns").Count; got != 3 {
		t.Errorf("seedsel.baselines_ns has %d samples, want 3 (one per scheduler)", got)
	}
	if got := s.Hist("campaign.stage.seeds_ns").Count; got != 4 {
		t.Errorf("campaign.stage.seeds_ns has %d samples, want 4 (one per engine run)", got)
	}
}
