package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/bench/internal/result"
)

var wallBound = bound{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}
var rateBound = bound{Name: "iters_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}

func series(base float64, steps ...float64) []float64 {
	out := make([]float64, len(steps))
	for i, s := range steps {
		out[i] = base * (1 + s)
	}
	return out
}

// tight is ten runs within ±1% of their base.
var tight = []float64{-0.01, 0.004, -0.002, 0.008, 0, -0.006, 0.002, 0.01, -0.004, 0.006}

func TestGainNeedsNineTenthsAndMoreThanTheSpread(t *testing.T) {
	p := series(10, tight...)
	c := series(8, tight...)
	if got := compareMetric(wallBound, p, c); got.Verdict != verdictGain || got.Wins != 10 {
		t.Fatalf("20%% faster on every pair: %+v, want gain", got)
	}
	// Two of ten pairs lose: 8/10 wins is not a gain, but the change is
	// still within the bound.
	c[0], c[1] = 11, 11
	if got := compareMetric(wallBound, p, c); got.Verdict != verdictWithin || got.Wins != 8 {
		t.Fatalf("8/10 wins: %+v, want within-bound", got)
	}
	// Nine pairs barely win; the medians differ by less than the
	// parent's spread, so there is no gain either.
	p = series(10, -0.05, 0.05, -0.04, 0.04, -0.03, 0.03, -0.02, 0.02, -0.01, 0.01)
	c = make([]float64, len(p))
	for i := range p {
		c[i] = p[i] - 0.001
	}
	c[0] = p[0] + 1
	if got := compareMetric(wallBound, p, c); got.Verdict == verdictGain {
		t.Fatalf("a win smaller than the spread counted as a gain: %+v", got)
	}
	// Fewer than ten pairs can never claim a gain.
	if got := compareMetric(wallBound, series(10, tight[:5]...), series(8, tight[:5]...)); got.Verdict == verdictGain {
		t.Fatalf("five pairs claimed a gain: %+v", got)
	}
}

func TestRegressionAgainstTheBound(t *testing.T) {
	p := series(10, tight...)
	if got := compareMetric(wallBound, p, series(10.3, tight...)); got.Verdict != verdictWithin {
		t.Fatalf("3%% slower: %+v, want within-bound", got)
	}
	got := compareMetric(wallBound, p, series(12, tight...))
	if got.Verdict != verdictRegression || got.Worse < 0.19 || got.Worse > 0.21 {
		t.Fatalf("20%% slower: %+v, want a regression of about 20%%", got)
	}
	// For a higher-is-better metric the direction flips.
	if got := compareMetric(rateBound, p, series(8, tight...)); got.Verdict != verdictRegression {
		t.Fatalf("20%% lower throughput: %+v, want regression", got)
	}
	if got := compareMetric(rateBound, p, series(12, tight...)); got.Verdict != verdictGain {
		t.Fatalf("20%% higher throughput: %+v, want gain", got)
	}
}

func TestUnresolvedWhenTheSpreadExceedsTheBound(t *testing.T) {
	wide := []float64{-0.3, 0.3, -0.2, 0.2, -0.1, 0.1, -0.25, 0.25, 0, 0.05}
	p := series(10, wide...)
	got := compareMetric(wallBound, p, series(10.5, wide...))
	if got.Verdict != verdictUnresolved || got.Spread <= wallBound.Bound {
		t.Fatalf("5%% slower inside a ±30%% spread: %+v, want unresolved", got)
	}
	// Unless every change run reads better than every parent run.
	c := series(6, tight...)
	if got := compareMetric(wallBound, p, c); got.Verdict == verdictUnresolved || got.Verdict == verdictRegression {
		t.Fatalf("every change run faster than every parent run: %+v", got)
	}
}

func file(seed int64, inv string, correct bool, wall float64) *result.File {
	return &result.File{
		Meta: result.Meta{Seed: seed, Scale: "full", Seconds: 10},
		Workloads: []result.Workload{{
			Name:       "campaign-paper",
			Correct:    correct,
			Metrics:    map[string]result.Metric{"wall_s": {Value: wall, Unit: "s"}},
			Invariants: map[string]string{"result_digest": inv},
		}},
	}
}

func TestRefusesSidesWhoseOutputsDiffer(t *testing.T) {
	bounds := []bound{wallBound}
	p := []*result.File{file(1, "a", true, 10), file(2, "b", true, 10)}
	if _, err := compareRuns(bounds, p, []*result.File{file(1, "a", true, 9), file(2, "b", true, 9)}); err != nil {
		t.Fatalf("matching sides refused: %v", err)
	}
	for name, change := range map[string][]*result.File{
		"invariant": {file(1, "a", true, 9), file(2, "x", true, 9)},
		"seed":      {file(1, "a", true, 9), file(3, "b", true, 9)},
		"check":     {file(1, "a", true, 9), file(2, "b", false, 9)},
		"count":     {file(1, "a", true, 9)},
	} {
		if _, err := compareRuns(bounds, p, change); err == nil {
			t.Errorf("%s difference was not refused", name)
		}
	}
}

func TestCommandPrintsOneRowPerWorkload(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		seed := int64(i + 1)
		if err := file(seed, "d", true, 10*(1+tight[i])).Write(filepath.Join(dir, "parent-"+string(rune('a'+i))+".json")); err != nil {
			t.Fatal(err)
		}
		if err := file(seed, "d", true, 13*(1+tight[i])).Write(filepath.Join(dir, "change-"+string(rune('a'+i))+".json")); err != nil {
			t.Fatal(err)
		}
	}
	var out, errOut bytes.Buffer
	code := run([]string{"-benchmark", bench, "-parent", filepath.Join(dir, "parent-*.json"), "-change", filepath.Join(dir, "change-*.json")}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d for a 30%% regression, want 1 (stderr %s)", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "campaign-paper") || !strings.Contains(lines[0], "wall_s: regression") {
		t.Fatalf("output %q, want one campaign-paper row with a wall_s regression", out.String())
	}

	out.Reset()
	if code := run([]string{"-summary", filepath.Join(dir, "parent-*.json")}, &out, &errOut); code != 0 || !strings.Contains(out.String(), `"median": 10`) {
		t.Fatalf("summary exit %d, output %s", code, out.String())
	}
}
