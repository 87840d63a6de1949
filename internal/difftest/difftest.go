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
// lineup per worker, results committed in class order. The Summary is
// identical at any worker count; see engine.go.
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
	// across evaluations. It is a pure-function cache shared by worker
	// clones, keyed by the name-masked method content (jvm.MethodKey),
	// so renamed-but-identical lineages hit.
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

// newRunner wires a private metrics registry and memo around a lineup.
func newRunner(vms []*jvm.VM, memo *jvm.VerifyMemo) *Runner {
	r := &Runner{VMs: vms, reg: telemetry.New(), VerifyMemo: memo}
	r.tel = newRunnerTel(r.reg, len(vms))
	jvm.ShareDecodeCache(r.VMs)
	jvm.ShareVerifyMemo(r.VMs, r.VerifyMemo)
	return r
}

// NewStandardRunner builds the Table 3 lineup — HotSpot 7/8/9, J9,
// GIJ — each bound to its own library release (the configuration of the
// paper's evaluation, where compatibility discrepancies are visible),
// with a fresh verify memo of its own.
func NewStandardRunner() *Runner {
	return NewStandardRunnerWithMemo(jvm.NewVerifyMemo())
}

// NewStandardRunnerWithMemo is NewStandardRunner around a caller's
// verify memo, such as one a session shares among its runners.
func NewStandardRunnerWithMemo(memo *jvm.VerifyMemo) *Runner {
	var vms []*jvm.VM
	for _, spec := range jvm.StandardFive() {
		vms = append(vms, jvm.New(spec))
	}
	return newRunner(vms, memo)
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
	return newRunner(vms, jvm.NewVerifyMemo())
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

// Key renders the encoded sequence, e.g. "00012" for Figure 3's
// example. It sits on the vector-bucketing hot path (every discrepancy
// of every evaluation keys its map entry through it), so the common
// single-digit case is a plain byte append with one allocation.
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

// RunChecked executes one classfile on every VM like Run, and
// additionally cross-checks each observed outcome against the static
// oracle's prediction for that VM (a self-differential sanitizer:
// oracle-vs-interpreter disagreement is a bug in this reproduction, not
// a VM discrepancy). When the bytes do not parse, no oracle applies and
// the mismatch list is empty. The single parse serves both the oracle
// and every VM's execution.
func (r *Runner) RunChecked(data []byte) (Vector, []analysis.Mismatch) {
	return r.runLineup(r.VMs, data, true)
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

// Summary aggregates a differential-testing session over a class set —
// the rows of Tables 6 and 7.
type Summary struct {
	Total int
	// AllInvoked counts classes every VM ran normally.
	AllInvoked int
	// AllRejectedSameStage counts classes every VM rejected in the same
	// phase.
	AllRejectedSameStage int
	// Discrepancies counts discrepancy-triggering classes.
	Discrepancies int
	// DistinctVectors maps encoded vectors of discrepancy-triggering
	// classes to their multiplicity.
	DistinctVectors map[string]int
	// PhaseHistogram[vm][phase] counts outcomes per VM per phase code —
	// Table 7's layout.
	PhaseHistogram [][]int
	// VMNames labels the histogram rows.
	VMNames []string
	// OracleMismatches counts unwaived static-oracle disagreements seen
	// by a checked evaluation (always 0 unless Options.Checked is set).
	OracleMismatches int
	// VerifierMismatches is the subset of OracleMismatches where either
	// side claims a VerifyError — the static-verdict-vs-VM-verifier
	// discrepancy class the dataflow oracle introduced.
	VerifierMismatches int
	// MismatchSamples holds the first few rendered mismatches for
	// reporting, in class order then VM order (deterministic at any
	// worker count).
	MismatchSamples []string
}

// DistinctCount returns |Distinct_Discrepancies|.
func (s *Summary) DistinctCount() int { return len(s.DistinctVectors) }

// DiffRate returns diff = |Discrepancies| / |Classes| (0 on empty sets).
func (s *Summary) DiffRate() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Discrepancies) / float64(s.Total)
}

// SortedVectors returns the distinct discrepancy vectors in
// lexicographic order with counts.
func (s *Summary) SortedVectors() []struct {
	Key   string
	Count int
} {
	keys := make([]string, 0, len(s.DistinctVectors))
	for k := range s.DistinctVectors {
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
		}{k, s.DistinctVectors[k]})
	}
	return out
}

// Options selects how Evaluate runs a class set. The zero value is a
// sequential, unchecked evaluation.
type Options struct {
	// Workers sizes the pool of private lineups the classes fan out
	// over; 0 or 1 means sequential. The Summary is identical at any
	// value.
	Workers int
	// Checked enables the static-oracle sanitizer (see RunChecked):
	// unwaived mismatches are counted and sampled in the Summary.
	Checked bool
}

func newSummary(r *Runner) *Summary {
	s := &Summary{
		DistinctVectors: map[string]int{},
		VMNames:         r.Names(),
		PhaseHistogram:  make([][]int, len(r.VMs)),
	}
	for i := range s.PhaseHistogram {
		s.PhaseHistogram[i] = make([]int, jvm.PhaseCount)
	}
	return s
}

// absorb folds one vector into the summary.
func (s *Summary) absorb(v Vector) {
	s.Total++
	for i, c := range v.Codes {
		s.PhaseHistogram[i][c]++
	}
	switch {
	case v.AllInvoked():
		s.AllInvoked++
	case v.Discrepant():
		s.Discrepancies++
		s.DistinctVectors[v.Key()]++
	default:
		s.AllRejectedSameStage++
	}
}

// absorbMismatches folds oracle disagreements into the summary; waived
// ones are tolerated by design and not counted.
func (s *Summary) absorbMismatches(mm []analysis.Mismatch) {
	for _, m := range mm {
		if !m.Hard() {
			continue
		}
		s.OracleMismatches++
		if m.VerifierSplit() {
			s.VerifierMismatches++
		}
		if len(s.MismatchSamples) < 10 {
			s.MismatchSamples = append(s.MismatchSamples, m.String())
		}
	}
}
