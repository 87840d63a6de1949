package campaign

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/coverage"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/mcmc"
	"repro/internal/mutation"
	"repro/internal/seedgen"
	"repro/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden campaign summaries")

// summary is the worker-count-independent projection of a Result: every
// field the determinism contract covers. Elapsed and Workers are
// deliberately absent (they are the only fields allowed to vary).
type summary struct {
	Algorithm      Algorithm       `json:"algorithm"`
	GenCount       int             `json:"gen_count"`
	GenUniqueStats int             `json:"gen_unique_stats"`
	TestNames      []string        `json:"test_names"`
	MutatorStats   []MutatorStat   `json:"mutator_stats"`
	Prefilter      *PrefilterStats `json:"prefilter,omitempty"`
	Draws          []DrawRecord    `json:"draws"`
}

func summarize(r *Result) summary {
	s := summary{
		Algorithm:      r.Algorithm,
		GenCount:       len(r.Gen),
		GenUniqueStats: r.GenUniqueStats,
		TestNames:      []string{},
		MutatorStats:   r.MutatorStats,
		Prefilter:      r.Prefilter,
		Draws:          r.Draws,
	}
	for _, g := range r.Test {
		s.TestNames = append(s.TestNames, g.Name)
	}
	return s
}

// detConfig is the fixed-seed campaign the determinism and golden tests
// share. StaticPrefilter is on so the versioned trace cache's counters
// are part of the contract.
func detConfig(alg Algorithm) Config {
	return Config{
		Algorithm:       alg,
		Criterion:       coverage.STBR,
		Source:          FlatSeeds(seedgen.Generate(seedgen.DefaultOptions(20, 5))),
		Iterations:      160,
		Rand:            17,
		RefSpec:         jvm.HotSpot9(),
		StaticPrefilter: true,
	}
}

var detAlgorithms = []Algorithm{Classfuzz, Randfuzz, Greedyfuzz, Uniquefuzz}

// workerCounts returns the matrix the determinism tests sweep: 1, 4 and
// GOMAXPROCS, plus CAMPAIGN_TEST_WORKERS when CI sets it.
func workerCounts() []int {
	ws := []int{1, 4, runtime.GOMAXPROCS(0)}
	if env := os.Getenv("CAMPAIGN_TEST_WORKERS"); env != "" {
		if n, err := strconv.Atoi(env); err == nil && n > 0 {
			ws = append(ws, n)
		}
	}
	return ws
}

// TestEngineDeterministicAcrossWorkers is the engine's contract: at a
// fixed campaign seed every algorithm produces bit-identical accepted
// suites, draw logs, mutator statistics and prefilter counters whatever
// the worker count. The sweep adds 8 workers to workerCounts, so an
// oversubscribed pool is checked even on small machines; TestGoldenResults
// pins the workers=1 run to the committed goldens.
func TestEngineDeterministicAcrossWorkers(t *testing.T) {
	ws := append(workerCounts(), 8)
	for _, alg := range detAlgorithms {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			t.Parallel()
			var want summary
			for i, w := range ws {
				cfg := detConfig(alg)
				cfg.Workers = w
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if res.Workers != w {
					t.Errorf("result records workers=%d, ran with %d", res.Workers, w)
				}
				got := summarize(res)
				if i == 0 {
					want = got
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("workers=%d diverges from workers=%d:\n got %+v\nwant %+v",
						w, ws[0], got, want)
				}
			}
		})
	}
}

// TestGoldenResults pins the engine's canonical (workers=1) results for
// every algorithm against the checked-in goldens, so any future change
// to the draw/commit semantics, the RNG derivation or the acceptance
// logic is caught as a diff. Regenerate with: go test ./internal/campaign -run Golden -update
func TestGoldenResults(t *testing.T) {
	for _, alg := range detAlgorithms {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			t.Parallel()
			cfg := detConfig(alg)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(summarize(res), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", fmt.Sprintf("golden_%s.json", alg))
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to record): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("campaign summary diverges from %s (re-record with -update if the change is intended)", path)
			}
		})
	}
}

// TestTelemetryObserveOnly is the telemetry substrate's determinism
// contract: attaching a registry changes nothing — the full summary
// (accepted suite, draw log, mutator stats, prefilter counters) is
// bit-identical with telemetry on or off, at every worker count — and
// the registry's deterministic counters agree with the Result.
func TestTelemetryObserveOnly(t *testing.T) {
	for _, alg := range detAlgorithms {
		alg := alg
		t.Run(string(alg), func(t *testing.T) {
			t.Parallel()
			cfg := detConfig(alg)
			plain, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := summarize(plain)
			for _, w := range workerCounts() {
				cfg := detConfig(alg)
				cfg.Workers = w
				cfg.Telemetry = telemetry.New()
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if got := summarize(res); !reflect.DeepEqual(got, want) {
					t.Errorf("workers=%d: telemetry-on summary diverges from telemetry-off", w)
				}
				s := cfg.Telemetry.Snapshot()
				if got := s.Counter("campaign.iterations"); got != int64(cfg.Iterations) {
					t.Errorf("workers=%d: campaign.iterations = %d, want %d", w, got, cfg.Iterations)
				}
				if got := s.Counter("campaign.generated"); got != int64(len(res.Gen)) {
					t.Errorf("workers=%d: campaign.generated = %d, want %d", w, got, len(res.Gen))
				}
				if got := s.Counter("campaign.accepts"); got != int64(len(res.Test)) {
					t.Errorf("workers=%d: campaign.accepts = %d, want %d", w, got, len(res.Test))
				}
				if pf := res.Prefilter; pf != nil {
					if got := s.Counter("campaign.prefilter.skipped"); got != int64(pf.Skipped) {
						t.Errorf("workers=%d: campaign.prefilter.skipped = %d, want %d", w, got, pf.Skipped)
					}
					if got := s.Counter("campaign.executions"); got != int64(len(res.Gen)-pf.Skipped) {
						t.Errorf("workers=%d: campaign.executions = %d, want %d", w, got, len(res.Gen)-pf.Skipped)
					}
				}
				if alg == Classfuzz && w == 1 {
					// Stage timing is on when a registry is attached: the
					// sequential stages saw every iteration.
					for _, h := range []string{"campaign.stage.draw_ns", "campaign.stage.commit_ns"} {
						if got := s.Hist(h).Count; got != int64(cfg.Iterations) {
							t.Errorf("%s count = %d, want %d", h, got, cfg.Iterations)
						}
					}
					if s.Hist("campaign.stage.mutate_ns").Count != int64(cfg.Iterations) {
						t.Errorf("mutate span count = %d, want %d",
							s.Hist("campaign.stage.mutate_ns").Count, cfg.Iterations)
					}
				}
			}
		})
	}
}

// TestTelemetryRegistryReuse: a registry shared across campaigns
// accumulates, while each Result.Prefilter reports only its own
// campaign's deltas.
func TestTelemetryRegistryReuse(t *testing.T) {
	reg := telemetry.New()
	cfg := detConfig(Classfuzz)
	cfg.Telemetry = reg
	r1, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := detConfig(Classfuzz)
	cfg2.Telemetry = reg
	r2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Prefilter, r2.Prefilter) {
		t.Errorf("identical campaigns on a shared registry disagree on Prefilter: %+v vs %+v", r1.Prefilter, r2.Prefilter)
	}
	s := reg.Snapshot()
	if got := s.Counter("campaign.prefilter.checked"); got != int64(r1.Prefilter.Checked+r2.Prefilter.Checked) {
		t.Errorf("shared registry checked = %d, want accumulated %d", got, r1.Prefilter.Checked+r2.Prefilter.Checked)
	}
	if got := s.Counter("campaign.iterations"); got != int64(2*cfg.Iterations) {
		t.Errorf("shared registry iterations = %d, want %d", got, 2*cfg.Iterations)
	}
}

// TestSequentialReferenceSpec checks the pipelined engine against an
// independent, straight-line implementation of the same semantics: a
// plain loop that performs draw(i), computes the iteration synchronously
// and commits it Lookahead iterations later. If the engine's worker
// pool, channel protocol or ring bookkeeping ever drifted from the
// specified stage ordering, the two would disagree.
func TestSequentialReferenceSpec(t *testing.T) {
	cfg := detConfig(Classfuzz)
	cfg.StaticPrefilter = false // the spec below has no trace cache
	cfg.Workers = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	want := referenceClassfuzz(t, cfg)
	var gotNames []string
	for _, g := range res.Test {
		gotNames = append(gotNames, g.Name)
	}
	if !reflect.DeepEqual(gotNames, want) {
		t.Errorf("engine suite %v diverges from reference spec %v", gotNames, want)
	}
}

// referenceClassfuzz is the straight-line spec: no goroutines, no
// channels — just the documented operation order.
func referenceClassfuzz(t *testing.T, cfg Config) []string {
	t.Helper()
	muts := mutation.Registry()
	p := cfg.P
	if p == 0 {
		p = mcmc.DefaultP(len(muts))
	}
	selector := mcmc.NewSampler(len(muts), p, initRNG(cfg.Rand))
	suite := coverage.NewSuite(cfg.Criterion)

	vm := jvm.New(cfg.RefSpec)
	rec := coverage.NewRecorder(jvm.ProbeRegistry())
	vm.SetRecorder(rec)

	pool := append([]poolEntry(nil), make([]poolEntry, 0, len(cfg.Source.Corpus()))...)
	for _, s := range cfg.Source.Corpus() {
		pool = append(pool, poolEntry{class: s, iter: -1})
	}
	for _, s := range cfg.Source.Corpus() {
		f, err := jimple.Lower(s)
		if err != nil {
			continue
		}
		if _, err := f.Bytes(); err != nil {
			continue
		}
		rec.Reset()
		vm.RunParsed(f)
		if tr := rec.Trace(); suite.Unique(tr) {
			suite.Add(tr)
		}
	}

	type pending struct {
		ok     bool
		muID   int
		mutant *jimple.Class
		trace  *coverage.Trace
	}
	D := DefaultLookahead
	window := make([]pending, 0, D)
	var accepted []string

	commit := func(pd pending) {
		if !pd.ok {
			selector.Record(pd.muID, false)
			return
		}
		ok := false
		if suite.Unique(pd.trace) {
			suite.Add(pd.trace)
			ok = true
		}
		if ok {
			accepted = append(accepted, pd.mutant.Name)
			if !cfg.NoSeedRecycling {
				pool = append(pool, poolEntry{class: pd.mutant})
			}
		}
		selector.Record(pd.muID, ok)
	}

	for i := 0; i < cfg.Iterations; i++ {
		if len(window) == D {
			commit(window[0])
			window = window[1:]
		}
		rng := drawRNG(cfg.Rand, i)
		parent := pool[rng.Intn(len(pool))]
		muID := selector.Next(rng)

		pd := pending{muID: muID}
		mutant := parent.class.Clone()
		if muts[muID].Apply(mutant, DeriveRNG(cfg.Rand, i)) {
			finishMutant(mutant, i)
			if data, err := lower(mutant); err == nil {
				rec.Reset()
				vm.Run(data)
				pd.ok = true
				pd.mutant = mutant
				pd.trace = rec.Trace()
			}
		}
		window = append(window, pd)
	}
	for _, pd := range window {
		commit(pd)
	}
	return accepted
}
