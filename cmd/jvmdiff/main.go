// Command jvmdiff differentially tests .class files across the five
// simulated JVM implementations and prints each file's encoded outcome
// vector (Figure 3 of the paper).
//
// Usage:
//
//	jvmdiff [-shared-env jre7|jre8|jre9|classpath] [-v] file.class...
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
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: jvmdiff [-shared-env rel] [-v] file.class...")
		os.Exit(2)
	}

	var runner *difftest.Runner
	switch *sharedEnv {
	case "":
		runner = difftest.NewStandardRunner()
	case "jre7":
		runner = difftest.NewSharedEnvRunner(rtlib.JRE7)
	case "jre8":
		runner = difftest.NewSharedEnvRunner(rtlib.JRE8)
	case "jre9":
		runner = difftest.NewSharedEnvRunner(rtlib.JRE9)
	case "classpath":
		runner = difftest.NewSharedEnvRunner(rtlib.Classpath)
	default:
		fmt.Fprintf(os.Stderr, "unknown release %q\n", *sharedEnv)
		os.Exit(2)
	}

	var triager *triage.Triager
	if *doTriage {
		triager = triage.New()
	}

	fmt.Printf("%-40s %-7s  %s\n", "classfile", "vector", "verdict")
	discrepancies := 0
	for _, path := range flag.Args() {
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
		v := runner.Run(data)
		verdict := "consistent"
		if v.Discrepant() {
			verdict = "DISCREPANCY"
			discrepancies++
			if triager != nil {
				rep := triager.Triage(data)
				verdict = fmt.Sprintf("DISCREPANCY (%s)", rep.Verdict)
			}
		}
		fmt.Printf("%-40s %-7s  %s\n", path, v.Key(), verdict)
		if *verbose {
			for i, name := range runner.Names() {
				fmt.Printf("    %-14s %s\n", name, v.Outcomes[i])
			}
			if triager != nil && v.Discrepant() {
				for _, n := range triager.Triage(data).Notes {
					fmt.Printf("    note: %s\n", n)
				}
			}
		}
	}
	fmt.Printf("%d of %d classfiles trigger discrepancies\n", discrepancies, flag.NArg())
}
