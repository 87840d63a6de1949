// Command jvmdiff differentially tests .class files across the five
// simulated JVM implementations and prints each file's encoded outcome
// vector (Figure 3 of the paper).
//
// Usage:
//
//	jvmdiff [-shared-env jre7|jre8|jre9|classpath | -triage] [-v] file.class...
//
// -triage classifies each discrepancy against the standard lineup, so
// it cannot be combined with -shared-env.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/classfile"
	"repro/internal/difftest"
	"repro/internal/jvm"
	"repro/internal/rtlib"
	"repro/internal/triage"
)

func main() {
	sharedEnv := flag.String("shared-env", "", "bind all VMs to one library release (Definition 2 mode)")
	verbose := flag.Bool("v", false, "print the per-VM error details")
	doTriage := flag.Bool("triage", false, "classify each discrepancy (defect-indicative / policy-difference / compatibility)")
	flag.Parse()
	if flag.NArg() == 0 || (*doTriage && *sharedEnv != "") {
		fmt.Fprintln(os.Stderr, "usage: jvmdiff [-shared-env rel | -triage] [-v] file.class...")
		os.Exit(2)
	}

	var runner *difftest.Runner
	if *sharedEnv == "" {
		runner = difftest.NewStandardRunner()
	} else {
		rel, err := rtlib.ParseRelease(*sharedEnv)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		runner = difftest.NewSharedEnvRunner(rel)
	}

	classes := make([][]byte, flag.NArg())
	for i, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			os.Exit(1)
		}
		// Bytes that do not parse are a loading-phase rejection on
		// every VM; a class that parses must clear the footprint cap
		// before any verifier sees it.
		if f, err := classfile.Parse(data); err == nil {
			if err := jvm.CheckFootprint(f); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
				os.Exit(1)
			}
		}
		classes[i] = data
	}
	sum := runner.Evaluate(classes, difftest.Options{Checked: *doTriage})

	var triager *triage.Triager
	if *doTriage {
		triager = triage.New()
	}
	fmt.Printf("%-40s %-7s  %s\n", "classfile", "vector", "verdict")
	discrepancies := 0
	for i, path := range flag.Args() {
		v := sum.Vectors[i]
		verdict := "consistent"
		var rep *triage.Report
		if v.Discrepant() {
			verdict = "DISCREPANCY"
			discrepancies++
			if triager != nil {
				rep = triager.Triage(classes[i], v, sum.Mismatches[i])
				verdict = fmt.Sprintf("DISCREPANCY (%s)", rep.Verdict)
			}
		}
		fmt.Printf("%-40s %-7s  %s\n", path, v.Key(), verdict)
		if *verbose {
			for k, name := range sum.VMNames {
				fmt.Printf("    %-14s %s\n", name, v.Outcomes[k])
			}
			if rep != nil {
				for _, n := range rep.Notes {
					fmt.Printf("    note: %s\n", n)
				}
			}
		}
	}
	fmt.Printf("%d of %d classfiles trigger discrepancies\n", discrepancies, len(classes))
}
