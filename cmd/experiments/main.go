// Command experiments regenerates the paper's evaluation tables and
// figures on stdout.
//
// Usage:
//
//	experiments [-scale default|paper] [-run all|prelim|table4|table5|table6|table7|figure4|pestimate|mcmcgain|seedsel]
//	            [-seed-strategy uniform|clustered|yield] [-metrics-addr HOST:PORT]
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/seedsel"
	"repro/internal/telemetry"
)

func main() {
	scaleFlag := flag.String("scale", "default", "campaign scale: default or paper")
	runFlag := flag.String("run", "all", "experiment to run: all, prelim, table4, table5, table6, table7, figure4, pestimate, mcmcgain, seedsel")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 1, "per-campaign worker pool size (results are identical at any value)")
	seedStrategy := flag.String("seed-strategy", "uniform", "seed-selection policy for the session campaigns: "+seedsel.Strategies())
	metricsAddr := flag.String("metrics-addr", "", "serve live /metrics.json and /healthz on this address (e.g. 127.0.0.1:8317)")
	flag.Parse()

	if _, err := seedsel.ParseStrategy(*seedStrategy); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	var scale experiments.Scale
	switch *scaleFlag {
	case "default":
		scale = experiments.DefaultScale()
	case "paper":
		scale = experiments.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}
	scale.Seed = *seed
	scale.Workers = *workers
	scale.SeedStrategy = *seedStrategy

	// Attach the roll-up registry before the session runs so the live
	// endpoint watches the six campaigns as they execute. Observe-only:
	// every table is identical with or without it.
	if *metricsAddr != "" {
		scale.Telemetry = telemetry.New()
		srv, err := telemetry.Serve(*metricsAddr, func() telemetry.Snapshot {
			return scale.Telemetry.Snapshot()
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "metrics server: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics.json\n", srv.Addr)
	}

	needSession := map[string]bool{
		"all": true, "table4": true, "table5": true, "table6": true,
		"table7": true, "figure4": true,
	}

	var sess *experiments.Session
	if needSession[*runFlag] {
		fmt.Fprintf(os.Stderr, "running campaigns (%d seeds, %d iterations per directed algorithm, %d workers each)...\n",
			scale.SeedCount, scale.Iterations, scale.Workers)
		var err error
		sess, err = experiments.NewSession(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "session failed: %v\n", err)
			os.Exit(1)
		}
	}

	show := func(what string) {
		switch what {
		case "prelim":
			p, err := experiments.RunPreliminary(scale.CorpusCount, scale.Seed+7)
			if err != nil {
				fmt.Fprintf(os.Stderr, "preliminary study failed: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(p)
		case "table4":
			fmt.Println(sess.Table4())
		case "table5":
			fmt.Println(sess.Table5())
		case "table6":
			fmt.Println(sess.Table6())
		case "table7":
			fmt.Println(sess.Table7())
		case "figure4":
			fmt.Println(sess.Figure4())
		case "mcmcgain":
			study, err := experiments.RunMCMCGainStudy(scale, 5)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mcmc gain study failed: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(study)
			fmt.Println()
		case "blind":
			b, err := experiments.RunBlindBaseline(scale)
			if err != nil {
				fmt.Fprintf(os.Stderr, "blind baseline failed: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(b)
			fmt.Println()
		case "seedsel":
			study, err := experiments.RunSeedStrategyStudy(scale)
			if err != nil {
				fmt.Fprintf(os.Stderr, "seed-strategy study failed: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(study)
		case "pestimate":
			p, err := experiments.RunPEstimate()
			if err != nil {
				fmt.Fprintf(os.Stderr, "parameter estimation failed: %v\n", err)
				os.Exit(1)
			}
			fmt.Println(p)
		default:
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", what)
			os.Exit(2)
		}
	}

	if *runFlag == "all" {
		for _, what := range []string{"prelim", "table4", "table5", "table6", "table7", "figure4", "mcmcgain", "blind", "seedsel", "pestimate"} {
			show(what)
		}
		return
	}
	show(*runFlag)
}
