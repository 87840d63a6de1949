package campaign

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/coverage"
	"repro/internal/jvm"
	"repro/internal/seedgen"
	"repro/internal/seedsel"
)

var schedStrategies = []seedsel.Strategy{seedsel.Clustered, seedsel.Yield}

// schedConfig builds the fixed-seed campaign the scheduler determinism
// and golden tests share — detConfig's shape with a fresh seedsel
// scheduler as the source (stateful sources serve exactly one engine
// run, so every Run/Resume gets its own).
func schedConfig(t *testing.T, strategy seedsel.Strategy) Config {
	t.Helper()
	seeds := seedgen.Generate(seedgen.DefaultOptions(20, 5))
	sched, err := seedsel.New(seeds, seedsel.Options{Strategy: strategy, RefSpec: jvm.HotSpot9()})
	if err != nil {
		t.Fatalf("seedsel.New(%s): %v", strategy, err)
	}
	return Config{
		Algorithm:       Classfuzz,
		Criterion:       coverage.STBR,
		Source:          sched,
		Iterations:      160,
		Rand:            17,
		RefSpec:         jvm.HotSpot9(),
		StaticPrefilter: true,
	}
}

// TestFlatUniformAdapterPinsIntn pins the adapter to the historical
// draw byte-for-byte: FlatSeeds.Pick must consume exactly one Intn(n)
// — nothing more, nothing less — so every pre-SeedSource golden stays
// valid. (referenceClassfuzz pins the same thing end-to-end.)
func TestFlatUniformAdapterPinsIntn(t *testing.T) {
	src := FlatSeeds(seedgen.Generate(seedgen.DefaultOptions(3, 1)))
	r1 := rand.New(rand.NewSource(99))
	r2 := rand.New(rand.NewSource(99))
	for i := 0; i < 1000; i++ {
		n := i%37 + 1
		if got, want := src.Pick(r1, n), r2.Intn(n); got != want {
			t.Fatalf("draw %d: Pick=%d, Intn=%d", i, got, want)
		}
	}
	// Observe/Grew must consume no randomness and no state.
	src.Observe(0, true, true)
	src.Grew(3, 0)
	if got, want := src.Pick(r1, 11), r2.Intn(11); got != want {
		t.Fatalf("post-Observe Pick=%d, Intn=%d", got, want)
	}
}

// TestSchedulerGoldens pins the clustered and yield campaigns'
// canonical (workers=1) results against checked-in goldens.
// Regenerate with: go test ./internal/campaign -run SchedulerGoldens -update
func TestSchedulerGoldens(t *testing.T) {
	for _, strategy := range schedStrategies {
		strategy := strategy
		t.Run(string(strategy), func(t *testing.T) {
			t.Parallel()
			res, err := Run(schedConfig(t, strategy))
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(summarize(res), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", fmt.Sprintf("golden_classfuzz_%s.json", strategy))
			if *update {
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

// TestSchedulerDeterministicAcrossWorkers sweeps workers 1, 4 and
// GOMAXPROCS for both scheduling strategies: identical summaries
// everywhere, like the flat draw.
func TestSchedulerDeterministicAcrossWorkers(t *testing.T) {
	for _, strategy := range schedStrategies {
		strategy := strategy
		t.Run(string(strategy), func(t *testing.T) {
			t.Parallel()
			var want summary
			first := true
			for _, w := range workerCounts() {
				cfg := schedConfig(t, strategy)
				cfg.Workers = w
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				got := summarize(res)
				if first {
					want = got
					first = false
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("workers=%d diverges from canonical run", w)
				}
			}
		})
	}
}
