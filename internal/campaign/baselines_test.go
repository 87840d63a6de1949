package campaign

import (
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
// engine runs the seed pass itself: the oracle for the reused one.
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

// TestSchedulerBaselinesMatchSeedPass: the seed pass records the same
// traces and fingerprints, seed by seed, with no memo, a cold memo and
// a warm one, each with and without a registry, and the scheduler's
// baselines (the pass with neither) are those traces. The corpora are
// the default ones of seeds 1-3 plus a seed that does not lower (nil
// everywhere) and one the verifier rejects.
func TestSchedulerBaselinesMatchSeedPass(t *testing.T) {
	ref := jvm.HotSpot9()
	for k := int64(1); k <= 3; k++ {
		seeds := append(seedgen.Generate(seedgen.DefaultOptions(60, k)), unlowerableSeed(), verifyRejectSeed())
		sched, err := seedsel.New(seeds, seedsel.Options{Strategy: seedsel.Yield, RefSpec: ref})
		if err != nil {
			t.Fatal(err)
		}
		got := sched.Baselines(ref)
		if n := len(seeds); got[n-2] != nil || got[n-1] == nil {
			t.Fatalf("corpus %d: unlowerable baseline %v, verify-reject baseline %v", k, got[n-2], got[n-1])
		}
		want := seedsel.RunSeeds(seeds, ref, nil, nil)
		for _, withReg := range []bool{false, true} {
			memo := jvm.NewVerifyMemo()
			for _, pass := range []struct {
				name string
				memo *jvm.VerifyMemo
			}{{"no memo", nil}, {"cold memo", memo}, {"warm memo", memo}} {
				var reg *telemetry.Registry
				if withReg {
					reg = telemetry.New()
				}
				runs := seedsel.RunSeeds(seeds, ref, pass.memo, reg)
				if i := sameTraces(got, seedsel.Traces(runs)); i >= 0 {
					t.Fatalf("corpus %d, %s, registry %v: seed %d trace differs from the scheduler's baseline", k, pass.name, withReg, i)
				}
				for i := range runs {
					if runs[i].Fingerprint != want[i].Fingerprint {
						t.Fatalf("corpus %d, %s, registry %v: seed %d fingerprint differs", k, pass.name, withReg, i)
					}
				}
				if !withReg {
					continue
				}
				if got := reg.Snapshot().Counter("jvm." + ref.Name + ".runs"); got != int64(len(seeds)-1) {
					t.Fatalf("corpus %d, %s: the registry counted %d seed runs, want %d", k, pass.name, got, len(seeds)-1)
				}
			}
			if memo.Len() == 0 {
				t.Fatalf("corpus %d: the memo stayed empty, so the warm pass hit nothing", k)
			}
		}
	}
}

// TestEngineFoldsSourceBaselines: the engine folds whatever a source
// hands it for each seed, and runs its own pass only when the slice
// does not cover the corpus.
func TestEngineFoldsSourceBaselines(t *testing.T) {
	cfg := schedConfig(t, seedsel.Clustered)
	seeds := cfg.Source.Corpus()
	own := seedsel.Traces(seedsel.RunSeeds(seeds, cfg.RefSpec, nil, nil))
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
	Suite    suiteSummary
	Coverage coverage.Key
}

func summarizeFull(r *Result) fullSummary {
	return fullSummary{summarize(r), suiteSummarize(r), r.Coverage.Key()}
}

// TestBaselinesReuseEquivalence: a campaign that takes its seed traces
// from the scheduler equals one that runs its own seed pass — same
// Result, draw log and test bytes — for both strategies at 1 and 4
// workers, and when both are stopped at the same boundary.
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
				stopped := runStopped(t, mk(w, false)(), 60)
				stoppedOwn := runStopped(t, mk(w, true)(), 60)
				if !reflect.DeepEqual(summarizeFull(stopped), summarizeFull(stoppedOwn)) {
					t.Errorf("workers=%d: a stopped run reusing the baselines diverges from one running its own seed pass", w)
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
	if sameTraces(cfg.Source.Baselines(jvm.HotSpot9()), seedsel.Traces(seedsel.RunSeeds(seeds, jvm.GIJ(), nil, nil))) < 0 {
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
// engine run, stopped or not, whether the seed traces were reused or
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
	runStopped(t, mk(), 60)
	flat := detConfig(Classfuzz)
	flat.Telemetry = reg
	if _, err := Run(flat); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if got := s.Hist("seedsel.baselines_ns").Count; got != 2 {
		t.Errorf("seedsel.baselines_ns has %d samples, want 2 (one per scheduler)", got)
	}
	if got := s.Hist("campaign.stage.seeds_ns").Count; got != 3 {
		t.Errorf("campaign.stage.seeds_ns has %d samples, want 3 (one per engine run)", got)
	}
}
