package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"repro/bench/internal/result"
	"repro/bench/internal/stats"
)

// bound is one end-to-end metric of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readBounds loads the end-to-end metrics and their bounds.
func readBounds(path string) ([]bound, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(spec.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	return spec.EndToEnd, nil
}

// Verdicts of one (workload, metric) pair.
const (
	verdictGain       = "gain"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
	verdictWithin     = "within-bound"
)

// cell is the comparison of one metric on one workload.
type cell struct {
	Metric  string
	Verdict string
	// Worse is how much worse the change's median is than the parent's,
	// as a share of the parent's median (negative when better).
	Worse float64
	// Spread is the parent's inter-quartile distance as a share of its
	// median.
	Spread  float64
	Wins    int
	Pairs   int
	Missing bool
}

// row is one workload's comparison.
type row struct {
	Workload string
	Cells    []cell
}

// pairRuns checks that parent and change runs pair up — same seed,
// scale and length, and identical invariants for every workload — and
// returns the workload names in first-seen order. Sides whose outputs
// differ are not compared.
func pairRuns(parent, change []*result.File) ([]string, error) {
	if len(parent) == 0 || len(parent) != len(change) {
		return nil, fmt.Errorf("need the same number of parent and change runs, have %d and %d", len(parent), len(change))
	}
	var names []string
	seen := map[string]bool{}
	for i := range parent {
		p, c := parent[i], change[i]
		if p.Meta.Seed != c.Meta.Seed || p.Meta.Scale != c.Meta.Scale || p.Meta.Seconds != c.Meta.Seconds {
			return nil, fmt.Errorf("pair %d: parent ran seed %d scale %s seconds %d, change seed %d scale %s seconds %d",
				i, p.Meta.Seed, p.Meta.Scale, p.Meta.Seconds, c.Meta.Seed, c.Meta.Scale, c.Meta.Seconds)
		}
		cw := map[string]result.Workload{}
		for _, w := range c.Workloads {
			cw[w.Name] = w
		}
		for _, pw := range p.Workloads {
			w, ok := cw[pw.Name]
			if !ok {
				return nil, fmt.Errorf("pair %d: change did not run %s", i, pw.Name)
			}
			if diff := invariantDiff(pw.Invariants, w.Invariants); diff != "" {
				return nil, fmt.Errorf("pair %d (seed %d): %s invariants differ: %s", i, p.Meta.Seed, pw.Name, diff)
			}
			if !pw.Correct || !w.Correct {
				return nil, fmt.Errorf("pair %d (seed %d): %s failed its output checks", i, p.Meta.Seed, pw.Name)
			}
			if !seen[pw.Name] {
				seen[pw.Name] = true
				names = append(names, pw.Name)
			}
		}
	}
	return names, nil
}

func invariantDiff(a, b map[string]string) string {
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a[k] != b[k] {
			return fmt.Sprintf("%s: %q vs %q", k, a[k], b[k])
		}
	}
	return ""
}

func values(files []*result.File, workload, metric string) ([]float64, bool) {
	var out []float64
	for _, f := range files {
		for _, w := range f.Workloads {
			if w.Name != workload {
				continue
			}
			m, ok := w.Metrics[metric]
			if !ok {
				return nil, false
			}
			out = append(out, m.Value)
		}
	}
	return out, len(out) == len(files)
}

// compareMetric applies the paired rule to one metric. A gain needs the
// change to win at least nine tenths of all pairs (ties count for
// neither) and the medians to differ by more than the parent's
// inter-quartile distance. Otherwise the change's median may be worse
// than the parent's by at most the bound; when the parent's own spread
// exceeds the bound the pair is unresolved, unless every change run
// reads better than every parent run.
func compareMetric(b bound, p, c []float64) cell {
	lower := b.Better == "lower"
	better := func(x, y float64) bool { // x better than y
		if lower {
			return x < y
		}
		return x > y
	}
	out := cell{Metric: b.Name, Pairs: len(p)}
	for i := range p {
		if better(c[i], p[i]) {
			out.Wins++
		}
	}
	q1, pMed, q3 := stats.Quartiles(p)
	cMed := stats.Median(c)
	out.Spread = (q3 - q1) / math.Abs(pMed)
	out.Worse = (cMed - pMed) / math.Abs(pMed)
	if !lower {
		out.Worse = -out.Worse
	}
	switch {
	case out.Pairs >= 10 && float64(out.Wins) >= 0.9*float64(out.Pairs) && better(cMed, pMed) && math.Abs(cMed-pMed) > q3-q1:
		out.Verdict = verdictGain
	case out.Spread > b.Bound && !allBetter(c, p, better):
		out.Verdict = verdictUnresolved
	case out.Worse > b.Bound:
		out.Verdict = verdictRegression
	default:
		out.Verdict = verdictWithin
	}
	return out
}

func allBetter(c, p []float64, better func(x, y float64) bool) bool {
	for _, x := range c {
		for _, y := range p {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

// compareRuns compares paired runs workload by workload.
func compareRuns(bounds []bound, parent, change []*result.File) ([]row, error) {
	names, err := pairRuns(parent, change)
	if err != nil {
		return nil, err
	}
	var rows []row
	for _, name := range names {
		r := row{Workload: name}
		for _, b := range bounds {
			p, okP := values(parent, name, b.Name)
			c, okC := values(change, name, b.Name)
			if !okP || !okC {
				r.Cells = append(r.Cells, cell{Metric: b.Name, Missing: true, Verdict: verdictUnresolved})
				continue
			}
			r.Cells = append(r.Cells, compareMetric(b, p, c))
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// render prints one row per workload.
func render(rows []row) string {
	var b strings.Builder
	for _, r := range rows {
		var cells []string
		for _, c := range r.Cells {
			if c.Missing {
				cells = append(cells, c.Metric+": missing")
				continue
			}
			cells = append(cells, fmt.Sprintf("%s: %s (worse %+.1f%%, spread %.1f%%, wins %d/%d)",
				c.Metric, c.Verdict, c.Worse*100, c.Spread*100, c.Wins, c.Pairs))
		}
		fmt.Fprintf(&b, "%-15s %s\n", r.Workload, strings.Join(cells, "; "))
	}
	return b.String()
}

// summary is the baseline record of one side: per workload and metric,
// the median, the quartiles and the spread over the runs.
type summary struct {
	Runs      int                                 `json:"runs"`
	Meta      result.Meta                         `json:"meta"`
	Workloads map[string]map[string]summaryMetric `json:"workloads"`
}

type summaryMetric struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Spread float64 `json:"spread"`
}

func summarize(files []*result.File) summary {
	s := summary{Runs: len(files), Workloads: map[string]map[string]summaryMetric{}}
	if len(files) > 0 {
		s.Meta = files[0].Meta
	}
	units := map[string]string{}
	vals := map[string]map[string][]float64{}
	for _, f := range files {
		for _, w := range f.Workloads {
			if vals[w.Name] == nil {
				vals[w.Name] = map[string][]float64{}
			}
			for name, m := range w.Metrics {
				vals[w.Name][name] = append(vals[w.Name][name], m.Value)
				units[name] = m.Unit
			}
		}
	}
	for wl, ms := range vals {
		s.Workloads[wl] = map[string]summaryMetric{}
		for name, xs := range ms {
			q1, q2, q3 := stats.Quartiles(xs)
			s.Workloads[wl][name] = summaryMetric{Unit: units[name], Median: q2, Q1: q1, Q3: q3, Spread: (q3 - q1) / math.Abs(q2)}
		}
	}
	return s
}
