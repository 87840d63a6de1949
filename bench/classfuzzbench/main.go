// Command classfuzzbench is the repository's benchmark. It runs four
// fixed-work workloads — campaign-paper, lineage-epochs, paper-tables
// and daemon-api — each in its own child process of this binary, with
// every input generated from -seed. It prints every end-to-end metric
// by name with its unit, checks the program's outputs, and exits
// non-zero when a check fails.
//
// A traced run (-trace 1, or -trace DIR) re-drives each workload's
// layers through their public functions, records spans around every
// call, and prints the per-layer metrics instead; it writes
// DIR/<workload>.trace.json (Chrome trace-event format, loadable in
// Perfetto) and merges the layer metrics into DIR/layers.json.
//
// Usage:
//
//	classfuzzbench [-workload all|NAME] [-seed N] [-seconds S]
//	               [-scale full|smoke] [-trace 0|1|DIR] [-out FILE]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See bench/README.md for the
// workloads, the metrics and how to compare two commits.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"

	"repro/bench/internal/result"
)

// workloadNames lists the workloads in the order -workload all runs
// them.
var workloadNames = []string{"campaign-paper", "lineage-epochs", "paper-tables", "daemon-api"}

// workloadRuns maps each workload to its untraced and traced runs.
var workloadRuns = map[string]struct {
	run, traced func(*runCtx) (*outcome, error)
}{
	"campaign-paper": {campaignPaper, campaignPaperTraced},
	"lineage-epochs": {lineageEpochs, lineageEpochsTraced},
	"paper-tables":   {runTables, runTables},
	"daemon-api":     {daemonAPI, daemonAPI},
}

// defaultTraceDir is where -trace 1 writes spans, inside the checkout.
const defaultTraceDir = ".bench_build/trace"

// traceFlag is -trace: "0" runs untraced, "1" traces into
// defaultTraceDir, anything else names the trace directory.
type traceFlag struct{ dir string }

func (t *traceFlag) String() string {
	if t.dir == "" {
		return "0"
	}
	return t.dir
}

func (t *traceFlag) Set(s string) error {
	switch s {
	case "", "0":
		t.dir = ""
	case "1":
		t.dir = defaultTraceDir
	default:
		t.dir = s
	}
	return nil
}

type options struct {
	workloads []string
	seed      int64
	seconds   int
	scale     string
	traceDir  string
	out       string
	workdir   string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("classfuzzbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", referenceSeconds, "run length: the full loads are sized for about this many seconds on a 2-CPU machine")
	scale := fs.String("scale", "full", "full, or smoke for a sub-second load")
	var trace traceFlag
	fs.Var(&trace, "trace", "0 runs untraced; 1 or a directory runs traced and writes spans there (1 means "+defaultTraceDir+")")
	out := fs.String("out", "", "also write the run's result file here")
	workdir := fs.String("workdir", ".bench_build/work", "scratch directory for the daemon's data directories")
	child := fs.Bool("child", false, "run one workload in this process (used by the parent run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "classfuzzbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	opts := options{seed: *seed, seconds: *seconds, scale: *scale, traceDir: trace.dir, out: *out, workdir: *workdir}
	if *workload == "all" {
		opts.workloads = workloadNames
	} else if _, ok := workloadRuns[*workload]; ok {
		opts.workloads = []string{*workload}
	} else {
		fmt.Fprintf(stderr, "classfuzzbench: unknown workload %q (want all or one of %s)\n", *workload, strings.Join(workloadNames, ", "))
		return 2
	}
	if _, err := sizesFor(opts.scale, opts.seconds); err != nil {
		fmt.Fprintf(stderr, "classfuzzbench: %v\n", err)
		return 2
	}
	if *child {
		return runChild(opts, stdout, stderr)
	}
	return runParent(opts, stdout, stderr)
}

// childResult is what a child process prints as its last line.
type childResult struct {
	Workload result.Workload     `json:"workload"`
	Spans    map[string]*spanAgg `json:"spans,omitempty"`
}

// runChild runs one workload in this process.
func runChild(opts options, stdout, stderr io.Writer) int {
	name := opts.workloads[0]
	sz, _ := sizesFor(opts.scale, opts.seconds)
	c := &runCtx{
		seed:    opts.seed,
		size:    sz,
		workers: runtime.GOMAXPROCS(0),
		workdir: opts.workdir,
	}
	fn := workloadRuns[name].run
	if opts.traceDir != "" {
		c.tr = newTracer()
		fn = workloadRuns[name].traced
	}
	o, err := fn(c)
	if err != nil {
		fmt.Fprintf(stderr, "classfuzzbench: %s: %v\n", name, err)
		return 1
	}
	res := childResult{}
	if c.tr != nil {
		if err := os.MkdirAll(opts.traceDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "classfuzzbench: %v\n", err)
			return 1
		}
		if err := c.tr.writeChrome(filepath.Join(opts.traceDir, name+".trace.json")); err != nil {
			fmt.Fprintf(stderr, "classfuzzbench: writing trace: %v\n", err)
			return 1
		}
		o.fill(perLayer)
		o.keep(perLayer, workloadLayers)
		res.Spans = c.tr.agg
	} else {
		o.keep(endToEnd)
	}
	res.Workload = o.workload(name)
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "classfuzzbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", blob)
	return 0
}

// runParent runs each workload in a child process, adds the child's
// peak RSS, prints the metrics and the final JSON line.
func runParent(opts options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "classfuzzbench: %v\n", err)
		return 1
	}
	file := result.File{Meta: meta(opts)}
	spans := map[string]map[string]*spanAgg{}
	for _, name := range opts.workloads {
		res, rssMiB, err := runWorkloadChild(exe, name, opts, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "classfuzzbench: %s: %v\n", name, err)
			return 1
		}
		w := res.Workload
		if opts.traceDir == "" {
			w.Metrics["peak_rss_mb"] = result.Metric{Value: rssMiB, Unit: unitOf("peak_rss_mb")}
		}
		spans[name] = res.Spans
		file.Workloads = append(file.Workloads, w)
	}
	if opts.traceDir != "" {
		if err := mergeLayers(filepath.Join(opts.traceDir, "layers.json"), file, spans); err != nil {
			fmt.Fprintf(stderr, "classfuzzbench: %v\n", err)
			return 1
		}
	}
	if opts.out != "" {
		if err := file.Write(opts.out); err != nil {
			fmt.Fprintf(stderr, "classfuzzbench: %v\n", err)
			return 1
		}
	}
	printHuman(stdout, file)
	correct := true
	for _, w := range file.Workloads {
		for _, f := range w.Failures {
			fmt.Fprintf(stderr, "classfuzzbench: %s: check failed: %s\n", w.Name, f)
		}
		correct = correct && w.Correct
	}
	contract := endToEnd
	if opts.traceDir != "" {
		contract = perLayer
	}
	blob, err := json.Marshal(finalLine(file, contract))
	if err != nil {
		fmt.Fprintf(stderr, "classfuzzbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", blob)
	if !correct {
		return 1
	}
	return 0
}

// runWorkloadChild runs one workload in a child process of this binary
// and returns its result and peak resident set size (MiB).
func runWorkloadChild(exe, name string, opts options, stderr io.Writer) (*childResult, float64, error) {
	args := []string{
		"-child", "-workload", name,
		"-seed", fmt.Sprint(opts.seed),
		"-seconds", fmt.Sprint(opts.seconds),
		"-scale", opts.scale,
		"-trace", (&traceFlag{opts.traceDir}).String(),
		"-workdir", opts.workdir,
	}
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = &out
	cmd.Stderr = stderr
	killWithParent(cmd)
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("child process: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, 0, fmt.Errorf("child result: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, 0, errors.New("no resource usage for the child process")
	}
	return &res, float64(ru.Maxrss) / 1024, nil // Linux reports ru_maxrss in KiB
}

func meta(opts options) result.Meta {
	m := result.Meta{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Seed:       opts.seed,
		Scale:      opts.scale,
		Seconds:    opts.seconds,
		Traced:     opts.traceDir != "",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.VCSRevision = s.Value
			case "vcs.modified":
				m.VCSModified = s.Value == "true"
			}
		}
	}
	return m
}

// printHuman prints one line per metric: workload, name, value, unit
// and, for ratios, the base.
func printHuman(w io.Writer, file result.File) {
	m := file.Meta
	fmt.Fprintf(w, "classfuzzbench seed=%d scale=%s seconds=%d nproc=%d GOMAXPROCS=%d %s %s\n",
		m.Seed, m.Scale, m.Seconds, m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.VCSRevision)
	for _, wl := range file.Workloads {
		errRate := float64(wl.Failed) / float64(max(1, wl.Attempted))
		fmt.Fprintf(w, "%-15s correct=%v attempted=%d failed=%d error_rate=%g\n", wl.Name, wl.Correct, wl.Attempted, wl.Failed, errRate)
		for _, name := range sortedKeys(wl.Metrics) {
			mt := wl.Metrics[name]
			base := ""
			if mt.Base != "" {
				base = "(" + mt.Base + ")"
			}
			fmt.Fprintf(w, "%-15s %-32s %16.6g %-10s %s\n", wl.Name, name, mt.Value, mt.Unit, base)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// lineMetric is a metric as the final line carries it.
type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine is the last line of standard output: the metrics of specs
// (the end-to-end ones, or the per-layer ones of a traced run). With
// one workload the metrics carry their plain names; with several each
// name is prefixed by its workload ("campaign-paper/wall_s").
func finalLine(file result.File, specs []metricSpec) map[string]any {
	correct, attempted, failed := true, 0, 0
	metrics := map[string]lineMetric{}
	for _, w := range file.Workloads {
		correct = correct && w.Correct
		attempted += w.Attempted
		failed += w.Failed
		for _, s := range specs {
			m, ok := w.Metrics[s.Name]
			if !ok {
				continue
			}
			name := s.Name
			if len(file.Workloads) > 1 {
				name = w.Name + "/" + name
			}
			metrics[name] = lineMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	return map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
}

// layersFile is DIR/layers.json: per-layer metrics and span aggregates
// per workload. Each traced run replaces its workloads' entries and
// keeps the others, so tracing the workloads one at a time fills it.
type layersFile struct {
	Meta      result.Meta               `json:"meta"`
	Workloads map[string]layersWorkload `json:"workloads"`
}

type layersWorkload struct {
	Metrics map[string]result.Metric `json:"metrics"`
	Spans   map[string]*spanAgg      `json:"spans"`
}

func mergeLayers(path string, file result.File, spans map[string]map[string]*spanAgg) error {
	lf := layersFile{Workloads: map[string]layersWorkload{}}
	if blob, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(blob, &lf); err != nil || lf.Workloads == nil {
			lf = layersFile{Workloads: map[string]layersWorkload{}}
		}
	}
	lf.Meta = file.Meta
	for _, w := range file.Workloads {
		lf.Workloads[w.Name] = layersWorkload{Metrics: w.Metrics, Spans: spans[w.Name]}
	}
	blob, err := json.MarshalIndent(lf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
