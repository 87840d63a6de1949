package campaign

import (
	"math/rand"

	"repro/internal/coverage"
	"repro/internal/jimple"
	"repro/internal/jvm"
)

// SeedSource is the engine's seed-corpus abstraction: it owns the
// initial corpus and decides, per iteration, which pool entry the draw
// stage mutates. The historical behaviour — a flat slice drawn
// uniformly — is FlatSeeds; richer policies (clustering, yield-aware
// scheduling, exploration floors) implement the same five methods and
// plug into the draw stage unchanged (internal/seedsel provides the
// second implementation).
//
// Seed pass. Algorithm 1 runs each seed once on the reference VM to
// seed the test suite. A source that already ran the corpus on that
// VM (seedsel clusters by those runs) hands the engine its traces
// through Baselines, so each engine run makes exactly one seed pass;
// a source that ran nothing returns nil, and the engine runs the seeds
// itself.
//
// Determinism contract. Pick runs on the sequential draw stage with
// iteration i's private draw stream; Observe and Grew run on the
// sequential commit stage, in iteration order. A source must therefore
// be a pure function of its construction inputs and the exact sequence
// of Pick/Observe/Grew calls — no clocks, no shared RNGs, no
// goroutines — so campaign results stay bit-identical at any worker
// count, and so snapshot restore can rebuild the source's state by
// replaying the recorded interleaving. A stateful
// source serves exactly one engine run: Resume must be handed a fresh
// one (the restore replays the committed prefix into it).
type SeedSource interface {
	// Strategy names the selection policy ("uniform", "clustered",
	// "yield"); snapshots record it and Resume refuses a mismatch.
	Strategy() string
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
	// MarshalState serialises the source's evolving state for
	// checkpoints (nil means stateless). Restore replays the committed
	// prefix into a fresh source and cross-checks the result against
	// the snapshot's copy, so the encoding must be deterministic.
	MarshalState() ([]byte, error)
	// Baselines returns the coverage trace of every Corpus entry run
	// once on the instrumented ref VM, index for index, with nil for a
	// seed that does not lower or write. It returns nil when the
	// source has not recorded on ref. The engine only reads the
	// traces; they must be exactly what its own seed pass would record.
	Baselines(ref jvm.Spec) []*coverage.Trace
}

// FlatSeeds adapts a flat seed slice to SeedSource with the engine's
// historical policy: one uniform Intn(n) per draw, no feedback, no
// state. Campaigns run through FlatSeeds are byte-for-byte identical
// to campaigns run before the SeedSource redesign (the determinism
// goldens and the straight-line reference implementation pin this).
func FlatSeeds(seeds []*jimple.Class) SeedSource {
	return flatUniform{seeds: seeds}
}

type flatUniform struct {
	seeds []*jimple.Class
}

// StrategyUniform names the flat-uniform policy; cmd flag parsing and
// snapshot validation compare against it.
const StrategyUniform = "uniform"

func (f flatUniform) Strategy() string                     { return StrategyUniform }
func (f flatUniform) Corpus() []*jimple.Class              { return f.seeds }
func (f flatUniform) Pick(rng *rand.Rand, n int) int       { return rng.Intn(n) }
func (f flatUniform) Observe(int, bool, bool)              {}
func (f flatUniform) Grew(int, int)                        {}
func (f flatUniform) MarshalState() ([]byte, error)        { return nil, nil }
func (f flatUniform) Baselines(jvm.Spec) []*coverage.Trace { return nil }

// seedCorpus returns the configured initial corpus (nil-safe).
func (c *Config) seedCorpus() []*jimple.Class {
	if c.Source == nil {
		return nil
	}
	return c.Source.Corpus()
}
