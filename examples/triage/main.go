// Triage runs a fuzzing campaign and pushes every discrepancy it finds
// through the automated analysis of §2.3/§3.3: shared-environment
// re-runs (Definition 2) peel off compatibility issues, and error-class
// heuristics split the remainder into defect-indicative reports and
// checking-policy differences — the workflow behind the paper's "62
// reported discrepancies: 28 defects, 30 policies, 4 compatibility".
package main

import (
	"fmt"
	"log"

	classfuzz "repro"
	"repro/internal/difftest"
	"repro/internal/triage"
)

func main() {
	seeds := classfuzz.GenerateSeeds(60, 13)
	res, err := classfuzz.RunCampaign(classfuzz.DefaultCampaign(seeds, 600))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campaign: %d representative tests\n", len(res.Test))

	// One checked evaluation of the suite; triage reads each class's
	// vector and oracle mismatches from it.
	var classes [][]byte
	for _, g := range res.Test {
		classes = append(classes, g.Data)
	}
	sum := classfuzz.NewRunner().Evaluate(classes, difftest.Options{Checked: true})
	tr := triage.New()
	byVerdict := map[triage.Verdict][]string{}
	first, firstName := (*triage.Report)(nil), ""
	for i, g := range res.Test {
		v := sum.Vectors[i]
		if !v.Discrepant() {
			continue
		}
		rep := tr.Triage(g.Data, v, sum.Mismatches[i])
		byVerdict[rep.Verdict] = append(byVerdict[rep.Verdict], g.Name+" "+v.Key())
		if first == nil {
			first, firstName = rep, g.Name
		}
	}

	order := []triage.Verdict{triage.DefectIndicative, triage.PolicyDifference, triage.CompatibilityIssue}
	total := 0
	for _, v := range order {
		total += len(byVerdict[v])
	}
	fmt.Printf("triage of %d discrepancy-triggering classfiles:\n", total)
	for _, v := range order {
		fmt.Printf("\n%s (%d):\n", v, len(byVerdict[v]))
		for i, line := range byVerdict[v] {
			if i == 6 {
				fmt.Printf("  ... and %d more\n", len(byVerdict[v])-6)
				break
			}
			fmt.Printf("  %s\n", line)
		}
	}

	// One detailed report, end to end.
	if first != nil {
		fmt.Printf("\ndetailed report for %s:\n  verdict: %s\n  standard vector: %s\n", firstName, first.Verdict, first.Key())
		for rel, v := range first.Shared {
			fmt.Printf("  shared %s vector: %s\n", rel, v.Key())
		}
		for _, n := range first.Notes {
			fmt.Printf("  note: %s\n", n)
		}
	}
}
