package campaign

import (
	"math/rand"

	"repro/internal/coverage"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/seedsel"
)

// SeedSource is the engine's seed-corpus abstraction: it owns the
// initial corpus and decides, per iteration, which pool entry the draw
// stage mutates. The historical behaviour — a flat slice drawn
// uniformly — is FlatSeeds; richer policies (clustering, yield-aware
// scheduling, exploration floors) implement the same methods and plug
// into the draw stage unchanged (internal/seedsel provides the second
// implementation). seedsel.Pass.Source picks between the two by
// strategy.
//
// Determinism contract. Pick runs on the sequential draw stage with
// iteration i's private draw stream; Observe and Grew run on the
// sequential commit stage, in iteration order. A source must therefore
// be a pure function of its construction inputs and the exact sequence
// of Pick/Observe/Grew calls — no clocks, no shared RNGs, no
// goroutines — so campaign results stay bit-identical at any worker
// count. A source with draw state serves exactly one engine run: a
// campaign run again (a daemon epoch restarted after a kill) gets a
// fresh one. FlatSeeds has no draw state, so campaigns may share one;
// its Baselines is safe for concurrent use.
type SeedSource interface {
	// Corpus returns the initial seed corpus. The engine clones entries
	// before mutation; the slice must not change after construction.
	Corpus() []*jimple.Class
	// Pick returns the pool index to mutate, in [0, n), where n is the
	// current pool size (initial corpus plus recycled mutants). rng is
	// the iteration's private draw stream; Pick may consume any fixed
	// amount of it.
	Pick(rng *rand.Rand, n int) int
	// Observe reports iteration outcome feedback for the pool entry a
	// Pick returned: generated says the mutator applied and lowered,
	// accepted says the mutant entered the test suite. Called once per
	// committed iteration, in iteration order.
	Observe(poolIndex int, generated, accepted bool)
	// Grew reports that the pool appended a recycled mutant at index
	// poolIndex, mutated from the entry at index parent. Called in
	// commit order, immediately after the append.
	Grew(poolIndex, parent int)
	// Baselines returns the coverage trace of every Corpus entry run
	// once on the instrumented ref VM, index for index, with nil for a
	// seed that does not lower or write: its seedsel.Pass's traces, nil
	// for a ref the pass does not record on. The engine only reads the
	// traces, and Run fails when the slice does not cover the corpus.
	Baselines(ref jvm.Spec) []*coverage.Trace
}

// FlatSeeds adapts a flat seed slice to SeedSource with the engine's
// historical policy: one uniform Intn(n) per draw, no feedback.
// Campaigns run through FlatSeeds are byte-for-byte identical to
// campaigns run before the SeedSource redesign (the determinism
// goldens and the straight-line reference implementation pin this).
// It is the uniform view of a fresh seedsel.Pass, which records on the
// reference spec of the first campaign it serves, so one FlatSeeds
// serves any number of sequential or concurrent campaigns on that spec
// with one pass; Run refuses a campaign on another.
func FlatSeeds(seeds []*jimple.Class) SeedSource {
	return seedsel.NewPass(seeds, jvm.Spec{}, nil).Source(seedsel.Uniform, len(seeds), nil)
}

// seedCorpus returns the configured initial corpus (nil-safe).
func (c *Config) seedCorpus() []*jimple.Class {
	if c.Source == nil {
		return nil
	}
	return c.Source.Corpus()
}
