package campaign

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/classfile"
	"repro/internal/coverage"
	"repro/internal/jvm"
	"repro/internal/rtlib"
	"repro/internal/seedgen"
)

// TestStaticPrefilterPreservesSuite asserts the prefilter's contract:
// a fixed-seed classfuzz campaign with StaticPrefilter enabled produces
// the identical accepted test suite — same names, same bytes, same
// mutator statistics — while executing strictly fewer mutants on the
// reference VM. Both bands must contribute: load-doomed mutants reuse
// cached load-phase traces, and verify-doomed ones (classes that load
// but fail linking on the reference VM) reuse full traces
// keyed by the name-masked content fingerprint.
func TestStaticPrefilterPreservesSuite(t *testing.T) {
	base := Config{
		Algorithm:  Classfuzz,
		Criterion:  coverage.STBR,
		Iterations: 600,
		Rand:       3,
		RefSpec:    jvm.HotSpot9(),
	}

	plain := base
	plain.Source = FlatSeeds(seedgen.Generate(seedgen.DefaultOptions(15, 3)))
	r1, err := Run(plain)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}

	filtered := base
	filtered.Source = FlatSeeds(seedgen.Generate(seedgen.DefaultOptions(15, 3)))
	filtered.StaticPrefilter = true
	r2, err := Run(filtered)
	if err != nil {
		t.Fatalf("prefiltered run: %v", err)
	}

	if r2.Prefilter == nil {
		t.Fatal("prefiltered run reported no stats")
	}
	pf := r2.Prefilter
	t.Logf("prefilter: checked=%d doomed=%d verify_doomed=%d skipped=%d executed=%d",
		pf.Checked, pf.Doomed, pf.VerifyDoomed, pf.Skipped, pf.Executed)
	if pf.VerifyDoomed == 0 {
		t.Errorf("verify band doomed no mutants (checked=%d doomed=%d)", pf.Checked, pf.Doomed)
	}
	if pf.VerifyDoomed >= pf.Doomed {
		t.Errorf("verify dooms (%d) must be a strict subset of dooms (%d): the load band stopped contributing",
			pf.VerifyDoomed, pf.Doomed)
	}

	// Identical accepted suite.
	if len(r1.Test) != len(r2.Test) {
		t.Fatalf("suite size diverged: plain %d, prefiltered %d", len(r1.Test), len(r2.Test))
	}
	for i := range r1.Test {
		if r1.Test[i].Name != r2.Test[i].Name {
			t.Fatalf("suite[%d] name diverged: %q vs %q", i, r1.Test[i].Name, r2.Test[i].Name)
		}
		if !bytes.Equal(r1.Test[i].Data, r2.Test[i].Data) {
			t.Fatalf("suite[%d] (%s) bytes diverged", i, r1.Test[i].Name)
		}
	}
	if len(r1.MutatorStats) != len(r2.MutatorStats) {
		t.Fatalf("mutator stat lengths diverged")
	}
	for i := range r1.MutatorStats {
		a, b := r1.MutatorStats[i], r2.MutatorStats[i]
		if a.Selected != b.Selected || a.Success != b.Success {
			t.Fatalf("mutator %s stats diverged: %d/%d vs %d/%d",
				a.Name, a.Success, a.Selected, b.Success, b.Selected)
		}
	}

	// Strictly fewer reference-VM executions: the plain run executes
	// every generated mutant; the prefiltered run executes all but the
	// skipped ones.
	execPlain := len(r1.Gen)
	execFiltered := len(r2.Gen) - pf.Skipped
	if pf.Skipped == 0 {
		t.Fatalf("prefilter skipped no executions (checked=%d doomed=%d)", pf.Checked, pf.Doomed)
	}
	if execFiltered >= execPlain {
		t.Fatalf("prefiltered run executed %d mutants, plain %d — expected strictly fewer", execFiltered, execPlain)
	}
}

// staticBand is the static oracle's band for a mutant: the load-phase
// lint passes (analysis.LoadReject), then the static link verdict
// (analysis.VerifyRejectMemo, unmemoised).
func staticBand(f *classfile.File, spec jvm.Spec, env *rtlib.Env) band {
	if analysis.LoadReject(f, &spec.Policy) != nil {
		return bandLoad
	}
	if analysis.VerifyRejectMemo(f, spec, env, nil) != nil {
		return bandVerify
	}
	return bandClean
}

// checkBands runs cfg with the prefilter on and checks the contract the
// engine's counts rest on: for every generated mutant the static
// oracle's band equals the reference VM's reject step (load-doomed ⇔
// load step, verify-doomed ⇔ link step, clean ⇔ neither). It then
// replays the trace cache over the static bands and requires the same
// Result.Prefilter and the same cache-hit iterations as the engine.
func checkBands(t *testing.T, cfg Config) {
	t.Helper()
	cfg.StaticPrefilter = true
	cfg.KeepGenBytes = true
	var hits skipLog
	cfg.Observer = &hits
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := cfg.RefSpec
	env := rtlib.NewEnv(spec.Release)
	vm := jvm.New(spec)
	vm.SetVerifyMemo(cfg.VerifyMemo)
	steps := map[band]jvm.Step{bandLoad: jvm.StepLoad, bandVerify: jvm.StepLink, bandClean: jvm.StepNone}

	var want PrefilterStats
	var wantHits skipLog
	cache := map[uint64]int{}
	for _, g := range res.Gen {
		f, err := classfile.Parse(g.Data)
		if err != nil {
			t.Fatalf("iteration %d: generated bytes do not parse: %v", g.Iter, err)
		}
		b := staticBand(f, spec, env)
		vm.Run(g.Data)
		if got := vm.RejectStep(); got != steps[b] {
			t.Errorf("iteration %d: static band %d, reference VM reject step %d", g.Iter, b, got)
		}
		want.Checked++
		var fp uint64
		switch b {
		case bandLoad:
			fp = analysis.Fingerprint(f)
		case bandVerify:
			fp = analysis.VerifyFingerprint(g.Data, f.Name()) ^ verifyBandTag
			want.VerifyDoomed++
		default:
			continue
		}
		want.Doomed++
		if it, ok := cache[fp]; ok && it <= g.Iter-res.Lookahead {
			want.Skipped++
			wantHits = append(wantHits, g.Iter)
			continue
		} else if !ok {
			cache[fp] = g.Iter
		}
		want.Executed++
	}
	if want.Skipped == 0 || want.VerifyDoomed == 0 || want.VerifyDoomed == want.Doomed {
		t.Errorf("campaign too small to exercise both bands and the cache: %+v", want)
	}
	if res.Prefilter == nil || *res.Prefilter != want {
		t.Errorf("engine prefilter %+v, static replay %+v", res.Prefilter, want)
	}
	if !reflect.DeepEqual(hits, wantHits) {
		t.Errorf("engine served %d cache hits, static replay %d", len(hits), len(wantHits))
	}
}

// TestPrefilterBandsMatchStaticOracle checks the band contract for the
// three coverage-directed algorithms over several seeds, at one and four
// workers, with no verify memo and with a memo a prior campaign warmed.
func TestPrefilterBandsMatchStaticOracle(t *testing.T) {
	for _, alg := range []Algorithm{Classfuzz, Uniquefuzz, Greedyfuzz} {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 3; seed++ {
				base := Config{
					Algorithm:  alg,
					Criterion:  coverage.STBR,
					Source:     FlatSeeds(seedgen.Generate(seedgen.DefaultOptions(20, seed))),
					Iterations: 800,
					Rand:       seed,
					RefSpec:    jvm.HotSpot9(),
				}
				warm := jvm.NewVerifyMemo()
				warmCfg := base
				warmCfg.VerifyMemo = warm
				if _, err := Run(warmCfg); err != nil {
					t.Fatal(err)
				}
				for _, w := range []int{1, 4} {
					for _, memo := range []*jvm.VerifyMemo{nil, warm} {
						cfg := base
						cfg.Workers, cfg.VerifyMemo = w, memo
						checkBands(t, cfg)
					}
				}
			}
		})
	}
}

// TestPrefilterBandsPaperBreadth is the band contract at the paper's
// seed breadth: 1,216 seeds, 20,000 iterations, four workers.
func TestPrefilterBandsPaperBreadth(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-breadth campaign")
	}
	checkBands(t, Config{
		Algorithm:  Classfuzz,
		Criterion:  coverage.STBR,
		Source:     FlatSeeds(seedgen.Generate(seedgen.DefaultOptions(1216, 1))),
		Iterations: 20000,
		Rand:       1,
		RefSpec:    jvm.HotSpot9(),
		Workers:    4,
	})
}

// TestPrefilterStatsPinned pins Result.Prefilter for three fixed
// campaigns to the counts the static-analysis prefilter produced, so
// classifying by the reference run cannot move them.
func TestPrefilterStatsPinned(t *testing.T) {
	for _, c := range []struct {
		alg          Algorithm
		seeds, iters int
		seed         int64
		want         PrefilterStats
	}{
		{Classfuzz, 40, 3000, 1, PrefilterStats{Checked: 2396, Doomed: 1658, VerifyDoomed: 864, Skipped: 232, Executed: 1426}},
		{Uniquefuzz, 30, 2000, 2, PrefilterStats{Checked: 1510, Doomed: 1091, VerifyDoomed: 613, Skipped: 210, Executed: 881}},
		{Greedyfuzz, 30, 2000, 3, PrefilterStats{Checked: 1431, Doomed: 951, VerifyDoomed: 478, Skipped: 192, Executed: 759}},
	} {
		res, err := Run(Config{
			Algorithm:       c.alg,
			Criterion:       coverage.STBR,
			Source:          FlatSeeds(seedgen.Generate(seedgen.DefaultOptions(c.seeds, c.seed))),
			Iterations:      c.iters,
			Rand:            c.seed,
			RefSpec:         jvm.HotSpot9(),
			StaticPrefilter: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Prefilter == nil || *res.Prefilter != c.want {
			t.Errorf("%s: prefilter %+v, want %+v", c.alg, res.Prefilter, c.want)
		}
	}
}
