package campaign

import (
	"math/rand"
	"sync"

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
// implementation). NewSeedSource picks between the two by strategy.
//
// Seed pass. Algorithm 1 runs each seed once on the reference VM to
// seed the test suite; seedsel.RunSeeds is that pass, and the source
// owns it: the engine takes the traces from Baselines and runs no seed
// itself. A source that keeps its traces (FlatSeeds after the first
// request, a seedsel index and its forks) hands the same pass to every
// campaign on its corpus.
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
	// seed that does not lower or write: seedsel.RunSeeds' traces, on
	// whatever ref is asked for. The engine only reads the traces, and
	// Run fails when the slice does not cover the corpus.
	Baselines(ref jvm.Spec) []*coverage.Trace
}

// FlatSeeds adapts a flat seed slice to SeedSource with the engine's
// historical policy: one uniform Intn(n) per draw, no feedback.
// Campaigns run through FlatSeeds are byte-for-byte identical to
// campaigns run before the SeedSource redesign (the determinism
// goldens and the straight-line reference implementation pin this).
// Its only state is the seed pass: the first Baselines request for a
// ref runs seedsel.RunSeeds and every later one gets the same
// immutable, already-keyed traces, so one FlatSeeds serves any number
// of sequential or concurrent campaigns on its corpus.
func FlatSeeds(seeds []*jimple.Class) SeedSource {
	return &flatUniform{seeds: seeds, passes: map[jvm.Spec][]*coverage.Trace{}}
}

// NewSeedSource builds one engine run's SeedSource from opts: FlatSeeds
// and a nil scheduler under the uniform strategy, else a fresh
// seedsel scheduler, returned twice so the caller can read its cluster
// table after the run. A scheduler is stateful: build one per run.
func NewSeedSource(seeds []*jimple.Class, opts seedsel.Options) (SeedSource, *seedsel.Scheduler, error) {
	if opts.Strategy == seedsel.Uniform {
		return FlatSeeds(seeds), nil, nil
	}
	sched, err := seedsel.New(seeds, opts)
	if err != nil {
		return nil, nil, err
	}
	return sched, sched, nil
}

type flatUniform struct {
	seeds []*jimple.Class
	// mu guards passes, one per reference spec, and is held across a
	// pass so that concurrent first requests wait for it.
	mu     sync.Mutex
	passes map[jvm.Spec][]*coverage.Trace
}

func (f *flatUniform) Corpus() []*jimple.Class        { return f.seeds }
func (f *flatUniform) Pick(rng *rand.Rand, n int) int { return rng.Intn(n) }
func (f *flatUniform) Observe(int, bool, bool)        {}
func (f *flatUniform) Grew(int, int)                  {}

func (f *flatUniform) Baselines(ref jvm.Spec) []*coverage.Trace {
	f.mu.Lock()
	defer f.mu.Unlock()
	traces, ok := f.passes[ref]
	if !ok {
		traces = seedsel.Traces(seedsel.RunSeeds(f.seeds, ref))
		f.passes[ref] = traces
	}
	return traces
}

// seedCorpus returns the configured initial corpus (nil-safe).
func (c *Config) seedCorpus() []*jimple.Class {
	if c.Source == nil {
		return nil
	}
	return c.Source.Corpus()
}
