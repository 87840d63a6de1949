package service

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/seedgen"
)

// fuzzStateConfig is the smallest daemon a state.json can restart: one
// shard, one seed, one four-iteration epoch.
func fuzzStateConfig(dir string) Config {
	return Config{
		DataDir:    dir,
		Shards:     1,
		Workers:    1,
		Algorithm:  campaign.Classfuzz,
		Criterion:  coverage.STBR,
		SeedCount:  1,
		Seed:       5,
		Iterations: 4,
		Epochs:     1,
	}
}

// startOnState writes state as dir's state.json next to a one-seed
// corpus and runs a daemon on it through Start, its epoch budget and
// Stop. It returns the bytes the whole run allocated and Start's error.
func startOnState(t *testing.T, dir string, state, seed []byte) (uint64, error) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, "corpus"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "corpus", submittedName(0)), seed, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "state.json"), state, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := New(fuzzStateConfig(dir))
	err := m.Start()
	if err == nil {
		m.Wait()
		if serr := m.Stop(context.Background()); serr != nil {
			t.Fatalf("stop after a clean start: %v", serr)
		}
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// FuzzStateLoad: state.json is the daemon's only persisted control
// file, so arbitrary bytes there, next to a valid one-seed corpus, must
// make Start fail or start a daemon that runs and stops cleanly — never
// panic — and the run must allocate within a fixed daemon lifetime's
// cost plus an amount linear in the file's size, whatever frontiers or
// counts it names. testdata/fuzz/FuzzStateLoad holds valid, refused
// (version, shard count, negative or overflowing frontier, corpus name,
// strategy, discrepancy frontier) and malformed seeds.
func FuzzStateLoad(f *testing.F) {
	files, err := seedgen.GenerateFiles(seedgen.DefaultOptions(1, 99))
	if err != nil {
		f.Fatal(err)
	}
	seed := files[0]
	// The most a state can ask for: the submitted seed joins the
	// corpus and the shard runs its epoch.
	valid := []byte(`{"version":2,"algorithm":"classfuzz","criterion":1,"seed":5,"seed_count":1,"iterations":4,"shards":1,"submitted":["sub00000.class"],"shard_epochs":[0],"next_discrepancy":0}`)
	var baseline uint64
	f.Fuzz(func(t *testing.T, state []byte) {
		if baseline == 0 {
			alloc, err := startOnState(t, t.TempDir(), valid, seed)
			if err != nil {
				t.Fatalf("the valid state.json is refused: %v", err)
			}
			baseline = alloc
		}
		alloc, _ := startOnState(t, t.TempDir(), state, seed)
		if bound := 2*baseline + 1<<20 + 512*uint64(len(state)); alloc > bound {
			t.Fatalf("a %d-byte state.json made the daemon allocate %d bytes (bound %d)", len(state), alloc, bound)
		}
	})
}
