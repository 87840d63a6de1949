// Quickstart: the full classfuzz pipeline in ~40 lines — generate
// seeds, run a coverage-directed campaign against the instrumented
// reference JVM, differentially test the representative suite on the
// five VM simulators, and print the Figure 3-style outcome vectors.
package main

import (
	"fmt"
	"log"

	classfuzz "repro"
)

func main() {
	// 1. A deterministic JRE-like seed corpus (§3.1.1).
	seeds := classfuzz.GenerateSeeds(60, 2026)
	fmt.Printf("generated %d seed classes\n", len(seeds))

	// 2. Algorithm 1: mutate with MCMC-selected mutators, accept
	//    coverage-unique mutants ([stbr] criterion, HotSpot 9 reference).
	res, err := classfuzz.RunCampaign(classfuzz.DefaultCampaign(seeds, 500))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campaign: %d iterations -> %d generated, %d representative tests (succ %.1f%%)\n",
		res.Iterations, len(res.Gen), len(res.Test), res.Succ()*100)

	// 3. Differential testing across HotSpot 7/8/9, J9 and GIJ.
	var classes [][]byte
	for _, g := range res.Test {
		classes = append(classes, g.Data)
	}
	sum := classfuzz.DiffTest(classes)
	fmt.Printf("differential testing: %d discrepancy-triggering classfiles (%.1f%%), %d distinct discrepancies\n",
		sum.Count(classfuzz.Discrepancy), sum.DiffRate()*100, sum.DistinctCount())

	// 4. The encoded outcome vectors (0 = invoked, 1..4 = rejection
	//    phase per VM, ordered HotSpot7, HotSpot8, HotSpot9, J9, GIJ).
	fmt.Println("\ndistinct discrepancy vectors:")
	for _, v := range sum.SortedVectors() {
		fmt.Printf("  %s  (%d classfiles)\n", v.Key, v.Count)
	}
}
