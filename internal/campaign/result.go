package campaign

import (
	"time"

	"repro/internal/coverage"
)

// PrefilterStats counts the prefilter's work in one campaign.
type PrefilterStats struct {
	// Checked is the number of mutants the prefilter inspected.
	Checked int
	// Doomed is how many the reference VM rejects before
	// initialisation — in its load step (the load band) or its link
	// step (the verify band).
	Doomed int
	// VerifyDoomed is the verify-band subset of Doomed: mutants that
	// load but fail linking (hierarchy, resolution, §4.10
	// verification).
	VerifyDoomed int
	// Skipped is how many reference-VM executions the trace cache
	// avoided.
	Skipped int
	// Executed is how many doomed mutants ran anyway to seed the cache.
	Executed int
}

// GenClass is one generated mutant.
type GenClass struct {
	// Iter is the campaign iteration that produced the mutant; with the
	// campaign seed and the draw log it pins the mutant for Replay.
	Iter      int
	Name      string
	MutatorID int
	// Data is populated for accepted classes, and for every generated
	// class when Config.KeepGenBytes is set.
	Data []byte
	// Stats is the mutant's coverage statistic on the reference VM
	// (zero for randfuzz, which never runs the reference VM).
	Stats coverage.Stats
	// Accepted marks membership in TestClasses.
	Accepted bool
}

// MutatorStat aggregates one mutator's campaign statistics.
type MutatorStat struct {
	ID       int
	Name     string
	Selected int
	Success  int
}

// Rate returns the success rate (0 when never selected).
func (m MutatorStat) Rate() float64 {
	if m.Selected == 0 {
		return 0
	}
	return float64(m.Success) / float64(m.Selected)
}

// Frequency returns the selection frequency given total selections.
func (m MutatorStat) Frequency(total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(m.Selected) / float64(total)
}

// DrawRecord is the draw stage's log entry for one iteration: which
// pool entry was picked and which mutator was proposed. Together with
// the campaign seed it makes the iteration replayable in isolation —
// the mutant is Clone(parent) + mutator under DeriveRNG(seed, iter),
// and the parent is either an original seed or the (recursively
// replayable) mutant another iteration accepted.
type DrawRecord struct {
	// Iter is the iteration index (records are stored in order, so
	// Result.Draws[i].Iter == i).
	Iter int `json:"iter"`
	// PoolIndex is the index drawn from the seed pool.
	PoolIndex int `json:"pool_index"`
	// Parent is the iteration whose accepted mutant occupied PoolIndex,
	// or -1 when PoolIndex addresses an original seed.
	Parent int `json:"parent"`
	// MutatorID is the selector's proposal.
	MutatorID int `json:"mutator"`
	// Generated reports whether the iteration produced a classfile (the
	// mutator applied and the mutant lowered).
	Generated bool `json:"generated"`
}

// Result summarises a campaign.
type Result struct {
	Algorithm  Algorithm
	Criterion  coverage.Criterion
	Iterations int
	// Gen holds every generated classfile; Test the accepted subset.
	Gen  []*GenClass
	Test []*GenClass
	// GenUniqueStats counts distinct (stmt, branch) coverage statistics
	// among generated classes (the paper's representativeness metric for
	// GenClasses; zero for randfuzz).
	GenUniqueStats int
	// Prefilter holds the static prefilter's counters when
	// Config.StaticPrefilter was set.
	Prefilter *PrefilterStats
	// MutatorStats is indexed by mutator ID.
	MutatorStats []MutatorStat
	// Draws is the per-iteration draw log (indexed by iteration; empty
	// for bytefuzz, whose pool holds raw bytes rather than models).
	Draws []DrawRecord
	// Workers and Lookahead record the engine configuration the result
	// was produced under (Workers is provenance only — it cannot change
	// the numbers above; Lookahead is always DefaultLookahead).
	Workers   int
	Lookahead int
	Elapsed   time.Duration
	// Coverage is the word-OR of the seed traces and every accepted
	// trace — the campaign's merged footprint on the reference VM (nil
	// for randfuzz and bytefuzz, which are not coverage-directed). The
	// service coordinator folds shard results by merging these.
	Coverage *coverage.Trace
	// Drawn counts iterations that entered the pipeline; it equals
	// Iterations unless the run was stopped early via Control.Stop
	// (Stopped). Resumed marks a run reconstructed from a Snapshot.
	Drawn   int
	Stopped bool
	Resumed bool
}

// Succ returns the campaign success rate |TestClasses| / #iterations.
func (r *Result) Succ() float64 {
	if r.Iterations == 0 {
		return 0
	}
	return float64(len(r.Test)) / float64(r.Iterations)
}

// TimePerGen returns the average time per generated class.
func (r *Result) TimePerGen() time.Duration {
	if len(r.Gen) == 0 {
		return 0
	}
	return r.Elapsed / time.Duration(len(r.Gen))
}

// TimePerTest returns the average time per accepted test class.
func (r *Result) TimePerTest() time.Duration {
	if len(r.Test) == 0 {
		return 0
	}
	return r.Elapsed / time.Duration(len(r.Test))
}
