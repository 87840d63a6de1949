// Package campaign is the staged, deterministic campaign engine behind
// the fuzzing algorithms of the evaluation (§3.1.2): classfuzz
// (Algorithm 1 — coverage-directed mutation with MCMC mutator
// selection), the comparison algorithms randfuzz, greedyfuzz and
// uniquefuzz, and the byte-level blind baseline bytefuzz.
//
// One iteration decomposes into explicit stages:
//
//	draw    — seed pick + mutator selection (sequential, iteration order)
//	mutate  — clone seed, apply mutator, lower to classfile bytes
//	filter  — prefilter: fingerprint lookup in the doomed-mutant trace cache
//	execute — run the mutant on an instrumented reference VM, whose
//	          reject step classifies it for the prefilter
//	commit  — coverage uniqueness, suite/pool update, selector feedback
//	          (sequential, iteration order)
//
// The expensive middle stages run on a worker pool with per-worker
// VM+recorder instances; draw and commit stay sequential, so the MCMC
// chain, the seed-recycling pool and the accepted suite evolve in a
// fixed order and campaign results are bit-identical at any worker
// count. Randomness comes from splittable per-iteration streams
// (DeriveRNG), never from a shared generator, so no stage's scheduling
// can perturb another iteration's draws and any single iteration can be
// re-derived in isolation (Rebuild/Replay). See DESIGN.md ("Campaign
// engine") for the full determinism argument.
package campaign

import (
	"fmt"

	"repro/internal/coverage"
	"repro/internal/jvm"
	"repro/internal/telemetry"
)

// Algorithm names the campaign strategy.
type Algorithm string

// The four algorithms of §3.1.2, plus the byte-level blind fuzzer of
// the related work (Sirer & Bershad's "single one-byte value change at
// a random offset in a base classfile", §4) — the baseline whose
// overwhelmingly invalid mutants motivate coverage direction in §1.
const (
	Classfuzz  Algorithm = "classfuzz"
	Randfuzz   Algorithm = "randfuzz"
	Greedyfuzz Algorithm = "greedyfuzz"
	Uniquefuzz Algorithm = "uniquefuzz"
	Bytefuzz   Algorithm = "bytefuzz"
)

// DefaultLookahead is the pipeline window D: how many iterations may
// be drawn ahead of the oldest uncommitted one. The window is part of
// the campaign's semantics — mutator-selection feedback and pool growth
// reach a draw only after the commit D iterations behind it — so it is
// a constant, recorded in Result.Lookahead and checked on Resume.
// Worker count never affects results; it only decides how much of the
// window executes concurrently.
const DefaultLookahead = 16

// Config parameterises a campaign.
type Config struct {
	Algorithm Algorithm
	// Criterion selects the uniqueness discipline for classfuzz
	// ([st]/[stbr]/[tr]); uniquefuzz always uses [stbr] (§3.1.2).
	Criterion coverage.Criterion
	// Source supplies the initial corpus and the per-iteration seed
	// selection policy. FlatSeeds wraps a plain slice with the
	// historical uniform draw; internal/seedsel provides clustering and
	// yield-aware scheduling behind the same interface.
	Source SeedSource
	// Iterations is the campaign budget (the stand-in for the paper's
	// three-day wall clock).
	Iterations int
	// Rand seeds the campaign's splittable RNG; every iteration derives
	// its own independent streams from it.
	Rand int64
	// RefSpec is the instrumented reference VM (HotSpot 9 in the paper).
	RefSpec jvm.Spec
	// P is the geometric parameter for MCMC selection; 0 means the
	// paper's default 3/129.
	P float64
	// NoSeedRecycling disables adding accepted mutants back into the
	// seed pool (ablation of Algorithm 1 lines 5/14).
	NoSeedRecycling bool
	// KeepGenBytes retains classfile bytes for every generated mutant,
	// accepted or not — what differential testing of the GenClasses
	// block needs. Without it only accepted mutants keep their bytes,
	// which is what bounds campaign RSS at paper scale. No mutant keeps
	// its model: Rebuild regenerates any iteration's from the draw log.
	KeepGenBytes bool
	// StaticPrefilter short-circuits reference-VM execution of doomed
	// mutants: those the reference VM rejects during loading (keyed by
	// structural fingerprint) or during linking (hierarchy, resolution
	// and §4.10 verification, keyed by a name-masked content
	// fingerprint). The reference run itself decides which band a
	// mutant belongs to; no static analysis runs per mutant. The first
	// mutant of each fingerprint executes and seeds a trace cache;
	// fingerprint-equal repeats reuse that trace, so the
	// coverage-driven acceptance decisions — and the accepted suite —
	// are bit-identical to an unfiltered campaign.
	StaticPrefilter bool
	// VerifyMemo optionally injects a method-verification memo the
	// caller carries warm across campaigns (a lineage of epochs reusing
	// its parents' per-method verdicts). The worker VMs and the
	// engine's own seed pass (run only when the Source has no
	// Baselines) share it; it holds runtime-verifier verdicts only,
	// since the prefilter runs no verifier of its own. Nil runs
	// verification unmemoised: a memo created cold for one campaign
	// costs more memory than it saves. The memo is observe-equivalent: verdicts
	// are content-addressed and pure, so results are bit-identical with
	// a cold, warm or absent memo.
	VerifyMemo *jvm.VerifyMemo
	// Workers sizes the pool running the mutate/filter/execute stages;
	// 0 or 1 means single-threaded. Results are identical at any value.
	Workers int
	// Observer receives engine events (may be nil). Events fire from the
	// sequential draw/commit stages, so their order is deterministic.
	Observer Observer
	// Control, when non-nil, lets another goroutine snapshot or stop
	// the running campaign at coordinator boundaries (see Control).
	// Like Observer and Telemetry it is observe-only with respect to
	// results: a campaign run with a Control that is never asked to
	// stop is bit-identical to one without.
	Control *Control
	// Telemetry, when non-nil, receives the campaign's metrics
	// (campaign.* counters/gauges) and switches on stage + reference-VM
	// timing histograms. Telemetry is observe-only: results are
	// bit-identical with or without it, at any worker count. The
	// registry may be shared with a live endpoint or across campaigns
	// (counters then accumulate; Result.Prefilter still reports only
	// this campaign's deltas).
	Telemetry *telemetry.Registry
}

// workers returns the effective worker count.
func (c *Config) workers() int {
	if c.Workers < 1 {
		return 1
	}
	return c.Workers
}

// Run executes a campaign.
func Run(cfg Config) (*Result, error) {
	if len(cfg.seedCorpus()) == 0 {
		return nil, fmt.Errorf("campaign: no seeds")
	}
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("campaign: non-positive iteration budget")
	}
	switch cfg.Algorithm {
	case Classfuzz, Randfuzz, Greedyfuzz, Uniquefuzz:
		return newEngine(cfg).run()
	case Bytefuzz:
		return runBytefuzz(cfg)
	default:
		return nil, fmt.Errorf("campaign: unknown algorithm %q", cfg.Algorithm)
	}
}
