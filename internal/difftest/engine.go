package difftest

import (
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/classfile"
	"repro/internal/jvm"
	"repro/internal/telemetry"
)

// Metric names of the Runner's engine counters. The semantic results
// (Summary, Vector) are deterministic at any worker count; the counters
// are not quite when Runners sharing a memo evaluate concurrently (two
// may race to execute one class and both count a miss), so these are
// diagnostics, not oracle inputs.
const (
	// MetricClasses counts evaluated classfiles (vectors produced).
	MetricClasses = "difftest.classes"
	// MetricParses counts classfile.Parse calls the engine performed.
	// The pre-engine model parsed once per VM: Classes × lineup size;
	// ParsesAvoided is that baseline minus this counter.
	MetricParses = "difftest.parses"
	// MetricVMRuns counts startup-pipeline executions actually performed.
	MetricVMRuns = "difftest.vm_runs"
	// MetricMemoProbes / MetricMemoHits count this Runner's per-VM memo
	// lookups and successes (both 0 when no memo is attached).
	MetricMemoProbes = "difftest.memo.probes"
	MetricMemoHits   = "difftest.memo.hits"
	// MetricOracleMismatches counts unwaived static-oracle disagreements
	// found by checked evaluations.
	MetricOracleMismatches = "difftest.oracle.mismatches"
	// MetricLineupSize gauges the number of VMs under test.
	MetricLineupSize = "difftest.lineup_size"
	// MetricEvaluateNs is the wall-clock histogram over Evaluate calls
	// (not single-class Runs); its Sum is the cumulative difftest stage
	// wall clock.
	MetricEvaluateNs = "difftest.evaluate_ns"
)

// runnerTel holds the Runner's interned handles into its registry.
type runnerTel struct {
	classes    *telemetry.Counter
	parses     *telemetry.Counter
	vmRuns     *telemetry.Counter
	memoProbes *telemetry.Counter
	memoHits   *telemetry.Counter
	oracleMM   *telemetry.Counter
	lineup     *telemetry.Gauge
	evaluateNs *telemetry.Histogram
}

func newRunnerTel(reg *telemetry.Registry, lineup int) runnerTel {
	t := runnerTel{
		classes:    reg.Counter(MetricClasses),
		parses:     reg.Counter(MetricParses),
		vmRuns:     reg.Counter(MetricVMRuns),
		memoProbes: reg.Counter(MetricMemoProbes),
		memoHits:   reg.Counter(MetricMemoHits),
		oracleMM:   reg.Counter(MetricOracleMismatches),
		lineup:     reg.Gauge(MetricLineupSize),
		evaluateNs: reg.Histogram(MetricEvaluateNs),
	}
	t.lineup.Set(int64(lineup))
	return t
}

// Stats snapshots the Runner's cumulative engine metrics — the one
// exported stats surface (EvalStats, MemoStats and ResetStats are
// gone). Consumers read the difftest.* names via Snapshot.Counter and
// friends; for one operation's delta on a long-lived Runner, bracket it
// with two Stats calls and Diff them. ParsesAvoided is derived:
// Counter(MetricClasses)·lineup − Counter(MetricParses).
func (r *Runner) Stats() telemetry.Snapshot {
	return r.reg.Snapshot()
}

// UseTelemetry redirects the Runner's metrics into an external registry
// (e.g. one served by -metrics-addr) and switches on per-VM pipeline
// timing: every lineup VM — and every per-worker clone — records
// jvm.<spec>.phase.*_ns histograms there. The default private registry
// pays no timing, keeping the uninstrumented path clock-free.
func (r *Runner) UseTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	r.reg = reg
	r.vmTiming = true
	r.tel = newRunnerTel(reg, len(r.VMs))
	for _, vm := range r.VMs {
		vm.SetTelemetry(reg)
	}
	if r.VerifyMemo != nil {
		r.VerifyMemo.UseTelemetry(reg)
	}
}

// cloneLineup builds a private copy of the Runner's lineup for one
// worker: same specs, same (read-only) library environments, one fresh
// decode cache shared across the clone. VM execution state is
// per-run, so clones are behaviourally identical to the originals.
func (r *Runner) cloneLineup() []*jvm.VM {
	vms := make([]*jvm.VM, len(r.VMs))
	for i, vm := range r.VMs {
		vms[i] = jvm.NewWithEnv(vm.Spec, vm.Env)
		if r.vmTiming {
			vms[i].SetTelemetry(r.reg)
		}
	}
	jvm.ShareDecodeCache(vms)
	jvm.ShareVerifyMemo(vms, r.VerifyMemo)
	return vms
}

// Clone returns a Runner driving a private copy of r's lineup (same
// specs and read-only environments, one fresh decode cache shared
// across the clone) while sharing r's memo and metrics registry. Use
// one clone per goroutine: a single Runner's VMs carry per-run scratch
// state and must not execute concurrently. The parallel delta debugger
// (internal/reduce) builds its worker pool this way.
func (r *Runner) Clone() *Runner {
	return &Runner{VMs: r.cloneLineup(), Memo: r.Memo, VerifyMemo: r.VerifyMemo, reg: r.reg, tel: r.tel, vmTiming: r.vmTiming}
}

// probed is one call's view of the memo, taken by a single probe
// before anything executes. Without a memo, lines and hits are nil and
// every outcome is missing.
type probed struct {
	lines []probeLine
	// outs[i*n+k] is class i's outcome on VM k of an n-VM lineup —
	// cached where hits says so, filled in by runLineup otherwise.
	outs []jvm.Outcome
	hits []bool
}

// probe takes the memo view of classes for the Runner's lineup and
// counts them.
func (r *Runner) probe(classes [][]byte) probed {
	n := len(r.VMs)
	p := probed{outs: make([]jvm.Outcome, len(classes)*n)}
	r.tel.classes.Add(int64(len(classes)))
	if r.Memo == nil {
		return p
	}
	p.lines, p.hits = make([]probeLine, len(classes)), make([]bool, len(p.outs))
	r.Memo.probe(classes, r.VMs, p.lines, p.outs, p.hits)
	r.tel.memoProbes.Add(int64(len(p.hits)))
	for i, l := range p.lines {
		if l.first != i {
			r.tel.memoHits.Add(int64(n)) // a repeat is served from class l.first
			continue
		}
		for _, hit := range p.hits[i*n : (i+1)*n] {
			if hit {
				r.tel.memoHits.Inc()
			}
		}
	}
	return p
}

// origin is the class whose vector serves class i: the earliest class
// of the call with identical bytes under a memo, i itself otherwise.
func (p *probed) origin(i int) int {
	if p.lines == nil {
		return i
	}
	return p.lines[i].first
}

// runLineup executes class i of a probed set on a lineup under the
// engine's parse-once discipline: outcomes the probe found cached are
// kept, the class parses at most once — only when some outcome is
// missing, or when checked needs the parsed file for the oracle — and
// each missing VM runs jvm.RunParsed over the shared parsed file (a
// parse failure fans out as the identical loading-phase rejection).
// Fresh outcomes are stored in the memo. With checked set, each outcome,
// cached or fresh (the oracle is a pure function of file, VM and
// outcome), is cross-checked; mismatches are returned in VM order.
func (r *Runner) runLineup(vms []*jvm.VM, data []byte, p *probed, i int, checked bool) (Vector, []analysis.Mismatch) {
	n := len(vms)
	v := Vector{Codes: make([]int, n), Outcomes: p.outs[i*n : (i+1)*n : (i+1)*n]}
	var hits []bool
	if p.hits != nil {
		hits = p.hits[i*n : (i+1)*n]
	}

	var f *classfile.File
	var perr error
	parsed := false
	parse := func() {
		if parsed {
			return
		}
		parsed = true
		f, perr = classfile.Parse(data)
		r.tel.parses.Inc()
	}
	if checked {
		parse()
	}

	var mm []analysis.Mismatch
	missed := false
	for k, vm := range vms {
		if hits == nil || !hits[k] {
			missed = true
			parse()
			if perr != nil {
				v.Outcomes[k] = jvm.ParseReject(perr)
			} else {
				v.Outcomes[k] = vm.RunParsed(f)
				r.tel.vmRuns.Inc()
			}
		}
		v.Codes[k] = v.Outcomes[k].Code()
		if checked && perr == nil {
			if m := analysis.CheckVM(f, vm, v.Outcomes[k]); m != nil {
				mm = append(mm, *m)
			}
		}
	}
	if p.lines != nil && missed {
		r.Memo.store(p.lines[i].c, vms, v.Outcomes, hits)
	}
	return v, mm
}

// Evaluate runs every classfile through the VMs and aggregates. One
// memo probe covers the whole set, and each class whose bytes did not
// already occur earlier in the set goes through runLineup — on the
// Runner's own lineup, or on a pool of opt.Workers private lineups
// pulling class indices from a shared counter. Vectors park in an
// index-addressed buffer and fold into the Summary afterwards in class
// order (the same fixed-order commit discipline as the campaign
// engine), so the Summary — DistinctVectors, histogram, mismatch
// samples and all — is identical at any worker count and in any memo
// state.
func (r *Runner) Evaluate(classes [][]byte, opt Options) *Summary {
	sp := telemetry.StartSpan(r.tel.evaluateNs)
	defer sp.End()

	p := r.probe(classes)
	var todo []int
	for i := range classes {
		if p.origin(i) == i {
			todo = append(todo, i)
		}
	}
	vecs := make([]Vector, len(classes))
	mms := make([][]analysis.Mismatch, len(classes))
	run := func(vms []*jvm.VM, i int) {
		vecs[i], mms[i] = r.runLineup(vms, classes[i], &p, i, opt.Checked)
	}
	workers := min(opt.Workers, len(todo))
	if workers <= 1 {
		for _, i := range todo {
			run(r.VMs, i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				lineup := r.cloneLineup()
				for {
					n := int(next.Add(1)) - 1
					if n >= len(todo) {
						return
					}
					run(lineup, todo[n])
				}
			}()
		}
		wg.Wait()
	}

	s := newSummary(r)
	for i := range classes {
		j := p.origin(i)
		s.absorb(vecs[j])
		if opt.Checked {
			s.absorbMismatches(mms[j])
		}
	}
	if opt.Checked {
		r.tel.oracleMM.Add(int64(s.OracleMismatches))
	}
	return s
}
