package difftest

import (
	"sync"
	"sync/atomic"

	"repro/internal/analysis"
	"repro/internal/classfile"
	"repro/internal/jvm"
	"repro/internal/telemetry"
)

// Metric names of the Runner's engine counters.
const (
	// MetricClasses counts evaluated classfiles (vectors produced).
	MetricClasses = "difftest.classes"
	// MetricParses counts classfile.Parse calls the engine performed.
	// The pre-engine model parsed once per VM: Classes × lineup size;
	// ParsesAvoided is that baseline minus this counter.
	MetricParses = "difftest.parses"
	// MetricVMRuns counts startup-pipeline executions actually performed.
	MetricVMRuns = "difftest.vm_runs"
	// MetricMemoProbes / MetricMemoHits: nothing records them, so both
	// read 0. They stay only because the benchmark module reads them.
	MetricMemoProbes = "difftest.memo.probes"
	MetricMemoHits   = "difftest.memo.hits"
	// MetricOracleMismatches counts static-oracle disagreements found by
	// checked evaluations.
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
	oracleMM   *telemetry.Counter
	lineup     *telemetry.Gauge
	evaluateNs *telemetry.Histogram
}

func newRunnerTel(reg *telemetry.Registry, lineup int) runnerTel {
	t := runnerTel{
		classes:    reg.Counter(MetricClasses),
		parses:     reg.Counter(MetricParses),
		vmRuns:     reg.Counter(MetricVMRuns),
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

// runLineup executes one class on a lineup under the engine's
// parse-once discipline: the class parses once, and every VM runs
// jvm.RunParsed over the shared parsed file (a parse failure fans out as
// the identical loading-phase rejection). With checked set, each
// outcome is cross-checked against the static oracle; mismatches are
// returned in VM order.
func (r *Runner) runLineup(vms []*jvm.VM, data []byte, checked bool) (Vector, []analysis.Mismatch) {
	r.tel.classes.Inc()
	n := len(vms)
	v := Vector{Codes: make([]int, n), Outcomes: make([]jvm.Outcome, n)}
	f, perr := classfile.Parse(data)
	r.tel.parses.Inc()
	var mm []analysis.Mismatch
	for k, vm := range vms {
		if perr != nil {
			v.Outcomes[k] = jvm.ParseReject(perr)
		} else {
			v.Outcomes[k] = vm.RunParsed(f)
			r.tel.vmRuns.Inc()
		}
		v.Codes[k] = v.Outcomes[k].Code()
		if checked && perr == nil {
			if m := analysis.CheckVM(f, vm, v.Outcomes[k]); m != nil {
				mm = append(mm, *m)
			}
		}
	}
	return v, mm
}

// Evaluate runs every classfile through runLineup — on the Runner's
// own lineup, or on a pool of opt.Workers private lineups pulling class
// indices from a shared counter. Each vector lands at its class's
// index (the same fixed-order commit discipline as the campaign
// engine), so the Summary is identical at any worker count.
func (r *Runner) Evaluate(classes [][]byte, opt Options) *Summary {
	sp := telemetry.StartSpan(r.tel.evaluateNs)
	defer sp.End()

	vecs := make([]Vector, len(classes))
	mms := make([][]analysis.Mismatch, len(classes))
	run := func(vms []*jvm.VM, i int) {
		vecs[i], mms[i] = r.runLineup(vms, classes[i], opt.Checked)
	}
	workers := min(opt.Workers, len(classes))
	if workers <= 1 {
		for i := range classes {
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
					i := int(next.Add(1)) - 1
					if i >= len(classes) {
						return
					}
					run(lineup, i)
				}
			}()
		}
		wg.Wait()
	}

	s := &Summary{VMNames: r.Names(), Vectors: vecs}
	if opt.Checked {
		s.Mismatches = mms
		n := 0
		for _, mm := range mms {
			n += len(mm)
		}
		r.tel.oracleMM.Add(int64(n))
	}
	return s
}
