package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// TestBenchmarkJSONMatchesTheMetricTables keeps BENCHMARK.json and the
// metrics this program prints the same list.
func TestBenchmarkJSONMatchesTheMetricTables(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloadNames)
	}
	for _, tc := range []struct {
		json  []metric
		table []metricSpec
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		var got []metricSpec
		for _, m := range tc.json {
			got = append(got, metricSpec{m.Name, m.Unit, m.Better})
		}
		if !reflect.DeepEqual(got, tc.table) {
			t.Errorf("BENCHMARK.json lists %v, program prints %v", got, tc.table)
		}
	}
}

func smokeCtx(t *testing.T, traced bool) *runCtx {
	sz, err := sizesFor("smoke", referenceSeconds)
	if err != nil {
		t.Fatal(err)
	}
	c := &runCtx{seed: 7, size: sz, workers: 2, workdir: t.TempDir()}
	if traced {
		c.tr = newTracer()
	}
	return c
}

func runSmoke(t *testing.T, name string, traced bool) *outcome {
	t.Helper()
	c := smokeCtx(t, traced)
	fn := workloadRuns[name].run
	if traced {
		fn = workloadRuns[name].traced
	}
	o, err := fn(c)
	if err != nil {
		t.Fatalf("%s (traced=%v): %v", name, traced, err)
	}
	if o.failed != 0 {
		t.Fatalf("%s (traced=%v): %d of %d checks failed: %v", name, traced, o.failed, o.attempted, o.failures)
	}
	return o
}

// TestSmokeWorkloads runs every workload at smoke scale twice untraced
// (their invariants must agree) and once traced (the replay must
// reproduce every byte, trace and verdict, each workload's own layers
// must be measured, and so must every per-layer time).
func TestSmokeWorkloads(t *testing.T) {
	ownLayer := map[string]string{
		"campaign-paper": "jimple.lower_us",
		"lineage-epochs": "seedsel.new_ms",
		"paper-tables":   "jvm.HotSpot-Java9.run_us",
		"daemon-api":     "service.engine_busy_frac",
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a, b := runSmoke(t, name, false), runSmoke(t, name, false)
			if !reflect.DeepEqual(a.invariants, b.invariants) {
				t.Errorf("invariants differ between two runs of one seed:\n%v\n%v", a.invariants, b.invariants)
			}
			for _, m := range endToEnd {
				if m.Name == "peak_rss_mb" {
					continue // measured by the parent process
				}
				if v := a.metrics[m.Name].Value; !(v > 0) {
					t.Errorf("%s = %v, want a positive value", m.Name, v)
				}
			}

			tr := runSmoke(t, name, true)
			if v := tr.metrics["trace.replay_mismatches"].Value; v != 0 {
				t.Errorf("traced run: %v replay mismatches", v)
			}
			if v := tr.metrics[ownLayer[name]].Value; !(v > 0) {
				t.Errorf("traced run: %s = %v, want a positive value", ownLayer[name], v)
			}
			// Every per-layer time is measured on every workload.
			for _, m := range perLayer {
				if m.Unit != "us" && m.Unit != "ms" && m.Unit != "s" {
					continue
				}
				if v := tr.metrics[m.Name].Value; !(v > 0) {
					t.Errorf("traced run: %s = %v, want a measured time", m.Name, v)
				}
			}
		})
	}
}

// TestReplayCatchesADivergentEngineResult corrupts one generated
// mutant's bytes and one trace-cache decision in an engine result, and
// hands a campaign trace a result that is not the campaign's own; the
// replay must report all three.
func TestReplayCatchesADivergentEngineResult(t *testing.T) {
	c := smokeCtx(t, true)
	o := newOutcome()
	corpora, err := c.corpusSetup(o, c.size.campaignSeeds, c.seed)
	if err != nil {
		t.Fatal(err)
	}
	skips := &skipLog{skipped: map[int]bool{}}
	cfg := classfuzzConfig(campaign.FlatSeeds(corpora[0]), c.size.campaignIters, c.seed, 1)
	cfg.KeepGenBytes = true
	cfg.Observer = skips
	res, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res.Gen[3].Data[10] ^= 0xff
	skips.skipped[res.Gen[5].Iter] = !skips.skipped[res.Gen[5].Iter]
	r := newReplayer(c.tr)
	r.replay(c.seed, campaign.FlatSeeds(corpora[0]), res, skips)
	if r.mismatches != 2 {
		t.Fatalf("replay found %d mismatches, want 2: %v", r.mismatches, r.notes)
	}

	other := *res
	other.Draws = append([]campaign.DrawRecord(nil), res.Draws...)
	other.Draws[0].MutatorID++
	ct := newCampaignTrace(c)
	src := func() (campaign.SeedSource, error) { return campaign.FlatSeeds(corpora[0]), nil }
	if err := ct.run(classfuzzConfig(nil, c.size.campaignIters, c.seed, 1), src, &other); err != nil {
		t.Fatal(err)
	}
	if ct.r.mismatches != 1 {
		t.Fatalf("campaign trace found %d mismatches against a foreign result, want 1: %v", ct.r.mismatches, ct.r.notes)
	}
}

// TestChildPrintsOneResultLine drives the command line the parent uses
// for each workload.
func TestChildPrintsOneResultLine(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{"-child", "--workload", "campaign-paper", "--seed", "3", "-scale", "smoke", "--trace", "0", "-workdir", t.TempDir()}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Workload.Correct || len(res.Workload.Metrics) != len(endToEnd)-1 {
		t.Fatalf("child result %+v, want a correct run with every end-to-end metric but peak_rss_mb", res.Workload)
	}

	if code := run([]string{"-workload", "nope"}, &out, &errOut); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
}
