// Command classfuzz runs a fuzzing campaign and writes the accepted
// representative classfiles to a directory.
//
// Usage:
//
//	classfuzz [-alg classfuzz|randfuzz|greedyfuzz|uniquefuzz]
//	          [-criterion stbr|st|tr] [-seeds N] [-iters N]
//	          [-seed-strategy uniform|clustered|yield]
//	          [-seed N] [-workers N] [-out DIR] [-difftest] [-progress]
//	          [-replay ITER] [-metrics-addr HOST:PORT] [-metrics-dump FILE]
//
// With -replay ITER the command reproduces iteration ITER of the
// campaign the other flags describe — re-deriving the iteration's RNG
// stream and rebuilding its mutant in isolation — instead of running a
// full campaign.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/difftest"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/seedgen"
	"repro/internal/seedsel"
	"repro/internal/telemetry"
)

func main() {
	alg := flag.String("alg", "classfuzz", "algorithm: classfuzz, randfuzz, greedyfuzz, uniquefuzz")
	criterion := flag.String("criterion", "stbr", "uniqueness criterion for classfuzz: st, stbr, tr")
	seedCount := flag.Int("seeds", 100, "number of generated seed classes")
	seedStrategy := flag.String("seed-strategy", "uniform", "seed selection: uniform, clustered, yield")
	iters := flag.Int("iters", 1000, "iteration budget")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 1, "worker pool size for the mutate/execute stages (results are identical at any value)")
	out := flag.String("out", "", "directory to write accepted .class files (omit to skip)")
	runDiff := flag.Bool("difftest", false, "differentially test the accepted suite on the five VMs")
	progress := flag.Bool("progress", false, "print live campaign progress")
	replay := flag.Int("replay", -1, "reproduce this single campaign iteration instead of fuzzing")
	metricsAddr := flag.String("metrics-addr", "", "serve live /metrics.json and /healthz on this address (e.g. 127.0.0.1:8317)")
	metricsDump := flag.String("metrics-dump", "", "write the final telemetry snapshot to this file as JSON")
	flag.Parse()

	var crit coverage.Criterion
	switch *criterion {
	case "st":
		crit = coverage.ST
	case "stbr":
		crit = coverage.STBR
	case "tr":
		crit = coverage.TR
	default:
		fmt.Fprintf(os.Stderr, "unknown criterion %q\n", *criterion)
		os.Exit(2)
	}

	strategy, err := seedsel.ParseStrategy(*seedStrategy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "unknown seed strategy %q (want %s)\n", *seedStrategy, seedsel.Strategies())
		os.Exit(2)
	}

	// Telemetry is observe-only: attaching a registry (for the live
	// endpoint or the dump) cannot change the campaign's results.
	var reg *telemetry.Registry
	if *metricsAddr != "" || *metricsDump != "" {
		reg = telemetry.New()
	}

	seeds := seedgen.Generate(seedgen.DefaultOptions(*seedCount, *seed))
	var source campaign.SeedSource
	if strategy == seedsel.Uniform {
		source = campaign.FlatSeeds(seeds)
	} else {
		source, err = seedsel.New(seeds, seedsel.Options{Strategy: strategy, RefSpec: jvm.HotSpot9(), Telemetry: reg})
		if err != nil {
			fmt.Fprintf(os.Stderr, "seed scheduler: %v\n", err)
			os.Exit(1)
		}
	}

	cfg := campaign.Config{
		Algorithm:  campaign.Algorithm(*alg),
		Criterion:  crit,
		Source:     source,
		Iterations: *iters,
		Rand:       *seed,
		RefSpec:    jvm.HotSpot9(),
		Workers:    *workers,
		Telemetry:  reg,
	}

	if *replay >= 0 {
		doReplay(cfg, *replay, *out)
		return
	}
	if *metricsAddr != "" {
		srv, err := telemetry.Serve(*metricsAddr, func() telemetry.Snapshot { return reg.Snapshot() })
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics server: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics.json\n", srv.Addr)
	}

	if *progress {
		cfg.Observer = campaign.NewProgress(os.Stderr, cfg.Iterations, 0)
	}
	res, err := campaign.Run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "campaign failed: %v\n", err)
		os.Exit(1)
	}
	if *metricsDump != "" {
		if err := dumpMetrics(*metricsDump, reg.Snapshot()); err != nil {
			fmt.Fprintf(os.Stderr, "metrics dump: %v\n", err)
			os.Exit(1)
		}
	}

	fmt.Printf("%s%s: %d iterations, %d generated, %d representative tests (succ %.1f%%), %s\n",
		res.Algorithm, critLabel(res), res.Iterations, len(res.Gen), len(res.Test),
		res.Succ()*100, res.Elapsed.Round(1000000))

	if *out != "" {
		if err := res.Save(*out); err != nil {
			fmt.Fprintf(os.Stderr, "save: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %d classfiles and manifest.json to %s\n", len(res.Test), *out)
	}

	if *runDiff {
		var classes [][]byte
		for _, g := range res.Test {
			classes = append(classes, g.Data)
		}
		sum := difftest.NewStandardRunner().Evaluate(classes, difftest.Options{})
		fmt.Printf("differential testing: %d classes, %d all-invoked, %d all-rejected-same-stage, %d discrepancies (%.1f%%), %d distinct\n",
			sum.Total, sum.AllInvoked, sum.AllRejectedSameStage,
			sum.Discrepancies, sum.DiffRate()*100, sum.DistinctCount())
		for _, v := range sum.SortedVectors() {
			fmt.Printf("  vector %s: %d classfiles\n", v.Key, v.Count)
		}
	}
}

// doReplay reproduces one iteration of the campaign cfg describes and
// reports (and optionally writes) the rebuilt mutant. The exit code is
// part of the contract: any failure — including a byte-verification
// mismatch against the campaign's own classfile, even when Replay
// still returned the rebuilt mutant for inspection — exits nonzero, so
// scripts and CI can gate on `classfuzz -replay`.
func doReplay(cfg campaign.Config, iter int, out string) {
	info, err := campaign.Replay(cfg, iter)
	if err != nil || info == nil || !info.Verified {
		if err == nil {
			err = fmt.Errorf("iteration %d rebuilt but bytes not verified", iter)
		}
		fmt.Fprintf(os.Stderr, "replay failed: %v\n", err)
		os.Exit(1)
	}
	rec := info.Record
	parent := "seed"
	if rec.Parent >= 0 {
		parent = fmt.Sprintf("mutant of iteration %d", rec.Parent)
	}
	fmt.Printf("replayed iteration %d: %s (%d bytes), parent = pool[%d] (%s), mutator %d, bytes verified against campaign: %v\n",
		iter, info.Class.Name, len(info.Data), rec.PoolIndex, parent, rec.MutatorID, info.Verified)
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "replay out: %v\n", err)
			os.Exit(1)
		}
		file := filepath.Join(out, info.Class.Name+".class")
		if err := os.WriteFile(file, info.Data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "replay out: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", file)
	}
	fmt.Printf("\n%s", jimple.Print(info.Class))
}

// dumpMetrics writes a snapshot as indented JSON (the same shape the
// live /metrics.json endpoint serves).
func dumpMetrics(path string, s telemetry.Snapshot) error {
	blob, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func critLabel(r *campaign.Result) string {
	if r.Algorithm == campaign.Classfuzz {
		return r.Criterion.String()
	}
	return ""
}
