// Command classreduce shrinks a discrepancy-triggering classfile with
// the hierarchical-delta-debugging reducer of §2.3, preserving the
// five-VM outcome vector.
//
// Usage:
//
//	classreduce [-o out.class] [-rounds N] file.class
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/classfile"
	"repro/internal/difftest"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/reduce"
)

func main() {
	out := flag.String("o", "", "write the reduced classfile here (default: print Jimple only)")
	rounds := flag.Int("rounds", 8, "maximum reduction rounds")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: classreduce [-o out.class] [-rounds N] file.class")
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	f, err := classfile.Parse(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parse: %v\n", err)
		os.Exit(1)
	}
	if err := jvm.CheckFootprint(f); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	model, err := jimple.Lift(f)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lift: %v\n", err)
		os.Exit(1)
	}

	runner := difftest.NewStandardRunner()
	before := reduce.Size(model)
	res, err := reduce.Reduce(model, runner, reduce.Options{MaxRounds: *rounds})
	if err != nil {
		fmt.Fprintf(os.Stderr, "reduce: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("vector %s preserved; size %d -> %d elements (%d deletions, %d differential tests)\n",
		res.Vector, before, reduce.Size(res.Reduced), res.Deleted, res.Tests)
	fmt.Println()
	fmt.Print(jimple.Print(res.Reduced))

	if *out != "" {
		lowered, err := jimple.Lower(res.Reduced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lower: %v\n", err)
			os.Exit(1)
		}
		bytes, err := lowered.Bytes()
		if err != nil {
			fmt.Fprintf(os.Stderr, "serialise: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, bytes, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", *out)
	}
}
