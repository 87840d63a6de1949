// Package difftest implements the differential-testing harness of §2.3:
// a classfile runs on the five JVM simulators, each run is simplified
// to its phase code 0–4 (normally invoked / rejected during loading,
// linking, initialization, runtime), the five codes form an encoded
// outcome vector (Figure 3), and a discrepancy is a non-constant
// vector. Distinct discrepancies are distinct vectors.
//
// The execution core is a parse-once engine: a classfile is parsed
// once, the parsed form (and one bytecode-decode cache per lineup) is
// shared by all five VMs via jvm.RunParsed. Evaluate runs every class
// of a set once, sequentially or over a worker pool — one five-VM
// lineup per worker, results committed in class order — and its
// Summary, identical at any worker count, keeps each class's vector;
// see engine.go. Run is for callers holding a single class.
package difftest

import (
	"sort"
	"strconv"

	"repro/internal/analysis"
	"repro/internal/jvm"
	"repro/internal/rtlib"
	"repro/internal/telemetry"
)

// Runner owns an ordered set of VMs under differential test.
type Runner struct {
	VMs []*jvm.VM

	// VerifyMemo memoises method-granular verification verdicts: a
	// mutant differs from its parent somewhere, yet still reuses the
	// lineage's verdicts for untouched methods, across all five VMs and
	// across this runner's evaluations. It is a pure-function cache
	// shared by worker clones, keyed by the name-masked method content
	// (jvm.MethodKey), so renamed-but-identical lineages hit. Each
	// runner owns its memo; nothing outlives the runner.
	VerifyMemo *jvm.VerifyMemo

	// reg receives the engine's difftest.* metrics — a private registry
	// until UseTelemetry attaches an external one; tel caches the
	// interned handles. vmTiming marks that lineup VMs (and worker
	// clones) record per-phase timing, which only an external registry
	// turns on.
	reg      *telemetry.Registry
	tel      runnerTel
	vmTiming bool
}

// newRunner wires a private metrics registry and a verify memo of the
// runner's own around a lineup. The memo is shared by the lineup and
// every Evaluate worker clone, and dropped together with the runner.
func newRunner(vms []*jvm.VM) *Runner {
	r := &Runner{VMs: vms, reg: telemetry.New(), VerifyMemo: jvm.NewVerifyMemo()}
	r.tel = newRunnerTel(r.reg, len(vms))
	jvm.ShareDecodeCache(r.VMs)
	jvm.ShareVerifyMemo(r.VMs, r.VerifyMemo)
	return r
}

// NewStandardRunner builds the Table 3 lineup — HotSpot 7/8/9, J9,
// GIJ — each bound to its own library release (the configuration of the
// paper's evaluation, where compatibility discrepancies are visible).
func NewStandardRunner() *Runner {
	var vms []*jvm.VM
	for _, spec := range jvm.StandardFive() {
		vms = append(vms, jvm.New(spec))
	}
	return newRunner(vms)
}

// NewSharedEnvRunner binds all five VMs to one library release —
// Definition 2's e1 = e2 setting, which filters out compatibility
// discrepancies and leaves defect-indicative ones.
func NewSharedEnvRunner(release rtlib.Release) *Runner {
	env := rtlib.Shared(release)
	var vms []*jvm.VM
	for _, spec := range jvm.StandardFive() {
		vms = append(vms, jvm.NewWithEnv(spec, env))
	}
	return newRunner(vms)
}

// Names returns the VM display names in order.
func (r *Runner) Names() []string {
	out := make([]string, len(r.VMs))
	for i, vm := range r.VMs {
		out[i] = vm.Name()
	}
	return out
}

// Vector is one classfile's encoded outcome sequence.
type Vector struct {
	Codes    []int
	Outcomes []jvm.Outcome
}

// Discrepant reports whether the VMs disagree: the phase sequence is
// not constant, or (Definition 1's "diverging output") two VMs both
// invoke the class normally yet print different lines.
func (v Vector) Discrepant() bool {
	for i := 1; i < len(v.Codes); i++ {
		if v.Codes[i] != v.Codes[0] {
			return true
		}
	}
	return v.OutputDivergent()
}

// OutputDivergent reports whether two normally-invoking VMs produced
// different output lines.
func (v Vector) OutputDivergent() bool {
	first := -1
	for i, o := range v.Outcomes {
		if !o.OK() {
			continue
		}
		if first < 0 {
			first = i
			continue
		}
		if !sameOutput(v.Outcomes[first].Output, o.Output) {
			return true
		}
	}
	return false
}

func sameOutput(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// AllInvoked reports whether every VM ran the class normally.
func (v Vector) AllInvoked() bool {
	for _, c := range v.Codes {
		if c != 0 {
			return false
		}
	}
	return true
}

// Category is a class's Table 6 column (§2.3).
type Category int

// Table 6's three columns.
const (
	// Invoked: every VM ran the class normally.
	Invoked Category = iota
	// RejectedSameStage: every VM rejected the class in one phase.
	RejectedSameStage
	// Discrepancy: the class triggers a discrepancy.
	Discrepancy
)

// Category files the vector under Table 6's split; it is the one place
// the split is decided. An all-invoked vector whose VMs print different
// output files as Invoked although Discrepant reports it, because the
// recorded tables count it that way.
func (v Vector) Category() Category {
	switch {
	case v.AllInvoked():
		return Invoked
	case v.Discrepant():
		return Discrepancy
	}
	return RejectedSameStage
}

// Key renders the encoded sequence, e.g. "00012" for Figure 3's
// example. It sits on the vector-bucketing path (DistinctVectors keys
// every discrepancy through it), so the common single-digit case is a
// plain byte append with one allocation.
func (v Vector) Key() string {
	b := make([]byte, len(v.Codes))
	for i, c := range v.Codes {
		if c < 0 || c > 9 {
			return v.keySlow()
		}
		b[i] = '0' + byte(c)
	}
	return string(b)
}

// keySlow renders out-of-range codes (impossible for valid phases) the
// way the old fmt-based Key did.
func (v Vector) keySlow() string {
	var b []byte
	for _, c := range v.Codes {
		b = strconv.AppendInt(b, int64(c), 10)
	}
	return string(b)
}

// Run executes one classfile on every VM: one parse fanned out to the
// lineup (the engine's parse-once discipline; see runLineup).
func (r *Runner) Run(data []byte) Vector {
	v, _ := r.runLineup(r.VMs, data, false)
	return v
}

// runSeparateParses is the pre-engine execution model — every VM parses
// the bytes itself via vm.Run — retained verbatim as the reference
// implementation for the parse-once engine's equivalence test and as
// the benchmark baseline. It must stay semantically identical to Run.
func (r *Runner) runSeparateParses(data []byte) Vector {
	v := Vector{
		Codes:    make([]int, len(r.VMs)),
		Outcomes: make([]jvm.Outcome, len(r.VMs)),
	}
	for i, vm := range r.VMs {
		o := vm.Run(data)
		v.Outcomes[i] = o
		v.Codes[i] = o.Code()
	}
	return v
}

// Summary is a differential-testing session over a class set: each
// class's outcome vector and, for a checked evaluation, its oracle
// mismatches, in class order. The rows of Tables 6 and 7 derive from
// the vectors.
type Summary struct {
	// VMNames labels the lineup, in vector order.
	VMNames []string
	// Vectors holds each class's outcome vector, in class order.
	Vectors []Vector
	// Mismatches holds each class's oracle mismatches, in VM order; nil
	// unless Options.Checked is set.
	Mismatches [][]analysis.Mismatch
}

// Count returns the number of classes whose vector files under c.
func (s *Summary) Count(c Category) int {
	n := 0
	for _, v := range s.Vectors {
		if v.Category() == c {
			n++
		}
	}
	return n
}

// DistinctVectors maps the encoded vectors of discrepancy-triggering
// classes to their multiplicity.
func (s *Summary) DistinctVectors() map[string]int {
	m := map[string]int{}
	for _, v := range s.Vectors {
		if v.Category() == Discrepancy {
			m[v.Key()]++
		}
	}
	return m
}

// DistinctCount returns |Distinct_Discrepancies|.
func (s *Summary) DistinctCount() int { return len(s.DistinctVectors()) }

// DiffRate returns diff = |Discrepancies| / |Classes| (0 on empty sets).
func (s *Summary) DiffRate() float64 {
	if len(s.Vectors) == 0 {
		return 0
	}
	return float64(s.Count(Discrepancy)) / float64(len(s.Vectors))
}

// SortedVectors returns the distinct discrepancy vectors in
// lexicographic order with counts.
func (s *Summary) SortedVectors() []struct {
	Key   string
	Count int
} {
	distinct := s.DistinctVectors()
	keys := make([]string, 0, len(distinct))
	for k := range distinct {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]struct {
		Key   string
		Count int
	}, 0, len(keys))
	for _, k := range keys {
		out = append(out, struct {
			Key   string
			Count int
		}{k, distinct[k]})
	}
	return out
}

// PhaseHistogram counts outcomes per VM per phase code —
// PhaseHistogram()[vm][phase], Table 7's layout.
func (s *Summary) PhaseHistogram() [][]int {
	h := make([][]int, len(s.VMNames))
	for i := range h {
		h[i] = make([]int, jvm.PhaseCount)
	}
	for _, v := range s.Vectors {
		for i, c := range v.Codes {
			h[i][c]++
		}
	}
	return h
}

// Options selects how Evaluate runs a class set. The zero value is a
// sequential, unchecked evaluation.
type Options struct {
	// Workers sizes the pool of private lineups the classes fan out
	// over; 0 or 1 means sequential. The Summary is identical at any
	// value.
	Workers int
	// Checked cross-checks each outcome against the static oracle's
	// prediction for that VM (a disagreement is a bug in this
	// reproduction, not a VM discrepancy); each class's mismatches are
	// kept in the Summary.
	Checked bool
}
