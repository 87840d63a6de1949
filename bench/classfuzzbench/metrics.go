package main

import (
	"fmt"
	"math"
	"strings"

	"repro/bench/internal/result"
)

// metricSpec is one metric as BENCHMARK.json lists it.
type metricSpec struct {
	Name, Unit, Better string
}

// endToEnd are the metrics an untraced run prints for every workload.
// Each workload names its own operation for the latency and its own
// unit of work for the rates; see bench/README.md.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"iters_per_s", "1/s", "higher"},
	{"classes_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"allocs_per_iter", "count", "lower"},
}

// perLayer are the metrics a traced run prints for every workload
// (BENCHMARK.json "per_layer"). Every time among them is measured on
// every workload: each traced run replays campaigns the workload ran
// (paper-tables' session campaigns, daemon-api's shard epochs). A ratio
// a workload has no use for reads 0. Per-iteration times are µs of self
// time per generated mutant; classfile.parse_us is per parse.
var perLayer = []metricSpec{
	// draw
	{"seedsel.new_ms", "ms", "lower"},
	{"seedsel.pick_us", "us", "lower"},
	{"seedsel.observe_us", "us", "lower"},
	{"mcmc.next_us", "us", "lower"},
	{"mcmc.record_us", "us", "lower"},
	// mutate
	{"jimple.clone_us", "us", "lower"},
	{"mutation.apply_us", "us", "lower"},
	{"campaign.finish_us", "us", "lower"},
	{"jimple.lower_us", "us", "lower"},
	{"classfile.write_us", "us", "lower"},
	{"jimple.class_bytes", "bytes", "lower"},
	{"mutation.generated_frac", "frac", "higher"},
	// parse and prefilter
	{"classfile.parse_us", "us", "lower"},
	{"analysis.doomed_frac", "frac", "higher"},
	{"campaign.prefilter_skip_frac", "frac", "higher"},
	// execute
	{"jvm.run_us", "us", "lower"},
	{"jvm.verify_memo_hit_rate", "frac", "higher"},
	// commit
	{"coverage.trace_us", "us", "lower"},
	{"coverage.suite_us", "us", "lower"},
	{"campaign.accept_frac", "frac", "higher"},
	// engine
	{"campaign.coord_frac", "frac", "lower"},
	{"runtime.gc_cpu_frac", "frac", "lower"},
	// inputs
	{"seedgen.class_us", "us", "lower"},
	// differential
	{"difftest.memo_hit_rate", "frac", "higher"},
	{"difftest.vm_runs_per_class", "runs/class", "lower"},
	// service
	{"service.engine_busy_frac", "frac", "higher"},
	{"service.state_json_mb", "MiB", "lower"},
	{"service.memo_json_mb", "MiB", "lower"},
	{"service.checkpoints_written", "count", "lower"},
	// tracing itself
	{"trace.overhead_frac", "frac", "lower"},
	{"trace.replay_mismatches", "count", "lower"},
}

// workloadLayers are layer times only some workloads exercise. A traced
// run prints them and writes them to layers.json; they stay out of
// BENCHMARK.json, where a time reading 0 on every run of the other
// workloads would say nothing.
var workloadLayers = []metricSpec{
	// prefilter (campaign-paper, lineage-epochs, daemon-api)
	{"analysis.load_reject_us", "us", "lower"},
	{"analysis.verify_fingerprint_us", "us", "lower"},
	{"analysis.verify_reject_us", "us", "lower"},
	// differential (paper-tables)
	{"experiments.campaigns_s", "s", "lower"},
	{"experiments.table6_s", "s", "lower"},
	{"experiments.table7_s", "s", "lower"},
	{"seedgen.corpus_s", "s", "lower"},
	{"jvm.HotSpot-Java7.run_us", "us", "lower"},
	{"jvm.HotSpot-Java8.run_us", "us", "lower"},
	{"jvm.HotSpot-Java9.run_us", "us", "lower"},
	{"jvm.J9-SDK8.run_us", "us", "lower"},
	{"jvm.GIJ-5.1.0.run_us", "us", "lower"},
	// service (daemon-api); api.p90_ms is the request tail, whose spread
	// here (±23–37% between runs of one commit) exceeds any bound the
	// benchmark could set on it
	{"api.p90_ms", "ms", "lower"},
	{"api.seeds_p50_ms", "ms", "lower"},
	{"api.checkpoint_p50_ms", "ms", "lower"},
	{"api.status_p50_ms", "ms", "lower"},
	{"api.discrepancies_p50_ms", "ms", "lower"},
	{"client.late_max_ms", "ms", "lower"},
}

func unitOf(name string) string {
	for _, specs := range [][]metricSpec{endToEnd, perLayer, workloadLayers} {
		for _, s := range specs {
			if s.Name == name {
				return s.Unit
			}
		}
	}
	panic("unknown metric " + name)
}

// outcome accumulates one workload run: its metrics, its invariants
// and its output checks.
type outcome struct {
	metrics    map[string]result.Metric
	invariants map[string]string
	attempted  int
	failed     int
	// failures keeps the first maxFailureNotes failed checks.
	failures []string
}

const maxFailureNotes = 20

func newOutcome() *outcome {
	return &outcome{metrics: map[string]result.Metric{}, invariants: map[string]string{}}
}

// set records a metric; its unit comes from the metric tables.
func (o *outcome) set(name string, v float64) {
	o.metrics[name] = result.Metric{Value: v, Unit: unitOf(name)}
}

// ratio records num/den together with its base (0 when den is 0).
func (o *outcome) ratio(name string, num, den float64) {
	v := 0.0
	if den != 0 {
		v = num / den
	}
	o.metrics[name] = result.Metric{Value: v, Unit: unitOf(name), Base: fmt.Sprintf("%s / %s", fmtNum(num), fmtNum(den))}
}

// check counts one output check and records it when it fails.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if ok {
		return
	}
	o.failed++
	if len(o.failures) < maxFailureNotes {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// fill gives every metric of specs that the workload did not measure
// the value 0, so each run prints the full list.
func (o *outcome) fill(specs []metricSpec) {
	for _, s := range specs {
		if _, ok := o.metrics[s.Name]; !ok {
			o.set(s.Name, 0)
		}
	}
}

// keep drops every metric not in any of lists.
func (o *outcome) keep(lists ...[]metricSpec) {
	want := map[string]bool{}
	for _, specs := range lists {
		for _, s := range specs {
			want[s.Name] = true
		}
	}
	for name := range o.metrics {
		if !want[name] {
			delete(o.metrics, name)
		}
	}
}

func (o *outcome) workload(name string) result.Workload {
	return result.Workload{
		Name:       name,
		Correct:    o.failed == 0,
		Attempted:  o.attempted,
		Failed:     o.failed,
		Failures:   o.failures,
		Metrics:    o.metrics,
		Invariants: o.invariants,
	}
}

func fmtNum(x float64) string {
	if x == math.Trunc(x) && math.Abs(x) < 1e15 {
		return fmt.Sprintf("%.0f", x)
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", x), "0"), ".")
}
