package campaign

import (
	"reflect"
	"slices"
	"sync"
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
// baselines. Given an explicit seed pass (explicitPass) it is the oracle
// for the traces a source keeps and shares.
type fixedBaselines struct {
	SeedSource
	traces []*coverage.Trace
}

func (f fixedBaselines) Baselines(jvm.Spec) []*coverage.Trace { return f.traces }

// explicitPass is an explicit seed pass of src's corpus on ref: the
// oracle a source's baselines are held to.
func explicitPass(src SeedSource, ref jvm.Spec) fixedBaselines {
	return fixedBaselines{SeedSource: src, traces: seedsel.Traces(seedsel.RunSeeds(src.Corpus(), ref))}
}

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

// TestSchedulerBaselinesMatchSeedPass: the scheduler's baselines are
// the seed pass's traces, seed by seed. The corpora are the default
// ones of seeds 1-3 plus a seed that does not lower (nil everywhere)
// and one the verifier rejects.
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
		if i := sameTraces(got, seedsel.Traces(seedsel.RunSeeds(seeds, ref))); i >= 0 {
			t.Fatalf("corpus %d: seed %d trace differs from the scheduler's baseline", k, i)
		}
	}
}

// TestEngineFoldsSourceBaselines: the engine folds whatever a source
// hands it for each seed, and Run fails when the slice does not cover
// the corpus: the engine runs no seed pass of its own.
func TestEngineFoldsSourceBaselines(t *testing.T) {
	cfg := schedConfig(t, seedsel.Clustered)
	seeds := cfg.Source.Corpus()
	own := explicitPass(cfg.Source, cfg.RefSpec).traces
	for _, tc := range []struct {
		name   string
		traces []*coverage.Trace
		folded []*coverage.Trace
	}{
		{"all nil", make([]*coverage.Trace, len(seeds)), nil},
		{"recorded", cfg.Source.Baselines(cfg.RefSpec), own},
	} {
		c := cfg
		c.Source = fixedBaselines{cfg.Source, tc.traces}
		e := newEngine(c)
		if err := e.initSeedState(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
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
	for _, tc := range []struct {
		name   string
		traces []*coverage.Trace
	}{
		{"one short", own[:len(own)-1]},
		{"one long", append(slices.Clip(own), nil)},
		{"none", nil},
	} {
		c := cfg
		c.Source = fixedBaselines{cfg.Source, tc.traces}
		if _, err := Run(c); err == nil {
			t.Errorf("%s: Run accepted %d baselines for %d seeds", tc.name, len(tc.traces), len(seeds))
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
// from the scheduler equals one handed an explicit seed pass — same
// Result, draw log and test bytes — for both strategies at 1 and 4
// workers, and when both are stopped at the same boundary.
func TestBaselinesReuseEquivalence(t *testing.T) {
	for _, strategy := range schedStrategies {
		strategy := strategy
		t.Run(string(strategy), func(t *testing.T) {
			t.Parallel()
			mk := func(workers int, explicit bool) func() Config {
				return func() Config {
					cfg := schedConfig(t, strategy)
					cfg.Workers = workers
					if explicit {
						cfg.Source = explicitPass(cfg.Source, cfg.RefSpec)
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
					t.Errorf("workers=%d: a stopped run reusing the baselines diverges from one handed its own seed pass", w)
				}
			}
		})
	}
}

// TestBaselinesOtherRefSpecNotReused: a scheduler recorded on HotSpot 9
// serves a GIJ-referenced campaign GIJ's seed pass, never its own
// traces, so the campaign equals one handed an explicit GIJ pass.
func TestBaselinesOtherRefSpecNotReused(t *testing.T) {
	cfg := schedConfig(t, seedsel.Yield)
	cfg.RefSpec = jvm.GIJ()
	gij := explicitPass(cfg.Source, jvm.GIJ())
	if i := sameTraces(cfg.Source.Baselines(jvm.GIJ()), gij.traces); i >= 0 {
		t.Fatalf("seed %d: Baselines(GIJ) of a HotSpot9 scheduler is not GIJ's seed pass", i)
	}
	if sameTraces(cfg.Source.Baselines(jvm.HotSpot9()), gij.traces) < 0 {
		t.Fatal("GIJ and HotSpot 9 record the same seed traces; the test cannot tell reuse from a seed pass")
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	explicit := schedConfig(t, seedsel.Yield)
	explicit.RefSpec = jvm.GIJ()
	explicit.Source = explicitPass(explicit.Source, jvm.GIJ())
	b, err := Run(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(summarizeFull(a), summarizeFull(b)) {
		t.Error("a campaign on another reference spec took the scheduler's baselines")
	}
}

// recordingSource logs every slice its source's Baselines hands out.
type recordingSource struct {
	SeedSource
	mu     sync.Mutex
	handed [][]*coverage.Trace
}

func (r *recordingSource) Baselines(ref jvm.Spec) []*coverage.Trace {
	traces := r.SeedSource.Baselines(ref)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.handed = append(r.handed, traces)
	return traces
}

// TestFlatSeedsOnePass: one FlatSeeds value serves a campaign and then
// four concurrent ones (1 and 4 workers, distinct Rand) with one seed
// pass: every Baselines(HotSpot9) call hands out the same traces, the
// pass's own, and every campaign equals the same campaign on a fresh
// source. A request for another spec gets that spec's pass.
func TestFlatSeedsOnePass(t *testing.T) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(20, 5))
	shared := &recordingSource{SeedSource: FlatSeeds(seeds)}
	type job struct {
		alg     Algorithm
		workers int
		rand    int64
	}
	campaigns := []job{{Classfuzz, 1, 17}, {Classfuzz, 4, 18}, {Uniquefuzz, 1, 19}, {Greedyfuzz, 4, 20}, {Classfuzz, 1, 21}}
	mk := func(c job, src SeedSource) Config {
		cfg := detConfig(c.alg)
		cfg.Source, cfg.Workers, cfg.Rand = src, c.workers, c.rand
		return cfg
	}
	results := make([]*Result, len(campaigns))
	errs := make([]error, len(campaigns))
	results[0], errs[0] = Run(mk(campaigns[0], shared))
	var wg sync.WaitGroup
	for i := 1; i < len(campaigns); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = Run(mk(campaigns[i], shared))
		}()
	}
	wg.Wait()
	for i, c := range campaigns {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		fresh, err := Run(mk(c, FlatSeeds(seeds)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(summarizeFull(results[i]), summarizeFull(fresh)) {
			t.Errorf("campaign %d (%s, %d workers): the shared source's run differs from a fresh source's", i, c.alg, c.workers)
		}
	}

	if len(shared.handed) != len(campaigns) {
		t.Fatalf("%d Baselines calls for %d campaigns", len(shared.handed), len(campaigns))
	}
	first := shared.handed[0]
	if i := sameTraces(first, explicitPass(shared, jvm.HotSpot9()).traces); i >= 0 {
		t.Fatalf("seed %d: the shared baselines are not the seed pass's", i)
	}
	for k, traces := range append(shared.handed[1:], shared.SeedSource.Baselines(jvm.HotSpot9())) {
		for i := range first {
			if traces[i] != first[i] {
				t.Fatalf("call %d, seed %d: Baselines handed out another trace than the first call's", k+1, i)
			}
		}
	}

	gij := shared.SeedSource.Baselines(jvm.GIJ())
	if i := sameTraces(gij, explicitPass(shared, jvm.GIJ()).traces); i >= 0 {
		t.Fatalf("seed %d: Baselines(GIJ) is not GIJ's seed pass", i)
	}
	if sameTraces(gij, first) < 0 {
		t.Fatal("Baselines(GIJ) handed out HotSpot 9's traces")
	}
	if again := shared.SeedSource.Baselines(jvm.GIJ()); len(again) != len(gij) || (len(gij) > 0 && again[0] != gij[0]) {
		t.Error("a second Baselines(GIJ) call ran another pass")
	}
}

// TestSeedStageTelemetry: campaign.stage.seeds_ns takes one sample per
// engine run, stopped or not, whether the source kept its seed traces
// or ran them for this run; seedsel.baselines_ns one per scheduler
// built with a registry.
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
