// Command experiments regenerates the paper's evaluation tables and
// figures on stdout.
//
// Usage:
//
//	experiments [-scale default|paper] [-run all|prelim|table4|table5|table6|table7|figure4|pestimate|mcmcgain|seedsel|blind]
//	            [-seed-strategy uniform|clustered|yield] [-metrics-addr HOST:PORT]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
	"repro/internal/seedsel"
	"repro/internal/telemetry"
)

func main() {
	scaleFlag := flag.String("scale", "default", "campaign scale: default or paper")
	runFlag := flag.String("run", "all", "experiment to run: all, prelim, table4, table5, table6, table7, figure4, pestimate, mcmcgain, seedsel, blind")
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

	if needsSession(*runFlag) {
		fmt.Fprintf(os.Stderr, "running campaigns (%d seeds, %d iterations per directed algorithm, %d workers each)...\n",
			scale.SeedCount, scale.Iterations, scale.Workers)
	}
	if err := write(os.Stdout, scale, *runFlag); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		if errors.Is(err, errUnknown) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

var errUnknown = errors.New("unknown experiment")

// allExperiments is the order -run all prints in.
var allExperiments = []string{"prelim", "table4", "table5", "table6", "table7", "figure4", "mcmcgain", "blind", "seedsel", "pestimate"}

func needsSession(run string) bool {
	switch run {
	case "all", "prelim", "table4", "table5", "table6", "table7", "figure4":
		return true
	}
	return false
}

// write prints experiment run (or every experiment, for "all") at
// scale to w.
func write(w io.Writer, scale experiments.Scale, run string) error {
	var sess *experiments.Session
	if needsSession(run) {
		var err error
		if sess, err = experiments.NewSession(scale); err != nil {
			return fmt.Errorf("session failed: %w", err)
		}
	}

	show := func(what string) error {
		switch what {
		case "prelim":
			p := sess.Preliminary()
			if p == nil {
				return errors.New("preliminary study failed: no library corpus")
			}
			fmt.Fprintln(w, p)
		case "table4":
			fmt.Fprintln(w, sess.Table4())
		case "table5":
			fmt.Fprintln(w, sess.Table5())
		case "table6":
			fmt.Fprintln(w, sess.Table6())
		case "table7":
			fmt.Fprintln(w, sess.Table7())
		case "figure4":
			fmt.Fprintln(w, sess.Figure4())
		case "mcmcgain":
			study, err := experiments.RunMCMCGainStudy(scale, 5)
			if err != nil {
				return fmt.Errorf("mcmc gain study failed: %w", err)
			}
			fmt.Fprintln(w, study)
			fmt.Fprintln(w)
		case "blind":
			b, err := experiments.RunBlindBaseline(scale)
			if err != nil {
				return fmt.Errorf("blind baseline failed: %w", err)
			}
			fmt.Fprintln(w, b)
			fmt.Fprintln(w)
		case "seedsel":
			study, err := experiments.RunSeedStrategyStudy(scale)
			if err != nil {
				return fmt.Errorf("seed-strategy study failed: %w", err)
			}
			fmt.Fprintln(w, study)
		case "pestimate":
			p, err := experiments.RunPEstimate()
			if err != nil {
				return fmt.Errorf("parameter estimation failed: %w", err)
			}
			fmt.Fprintln(w, p)
		default:
			return fmt.Errorf("%w %q", errUnknown, what)
		}
		return nil
	}

	if run != "all" {
		return show(run)
	}
	for _, what := range allExperiments {
		if err := show(what); err != nil {
			return err
		}
	}
	return nil
}
