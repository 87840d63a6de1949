// Package classfuzz is the public API of this repository's
// reproduction of "Coverage-Directed Differential Testing of JVM
// Implementations" (Chen et al., PLDI 2016).
//
// The workflow mirrors the paper's Figure 1:
//
//  1. GenerateSeeds builds a corpus of valid, diverse classfiles (the
//     stand-in for the JRE7 library sample).
//  2. RunCampaign mutates seeds with the 129 mutation operators,
//     selecting mutators by Metropolis–Hastings sampling, executing
//     every mutant on the instrumented reference JVM and accepting the
//     coverage-unique ones as representative tests (Algorithm 1); the
//     baseline algorithms randfuzz/greedyfuzz/uniquefuzz share the
//     entry point.
//  3. DiffTest runs classfiles across the five simulated JVMs (HotSpot
//     7/8/9, J9, GIJ) and aggregates discrepancies.
//  4. ReduceClass shrinks a discrepancy-triggering class with the
//     hierarchical-delta-debugging reducer while preserving its
//     five-VM outcome vector.
//
// The heavy lifting lives in the internal packages (classfile,
// bytecode, jimple, jvm, rtlib, coverage, mutation, mcmc, campaign,
// difftest, reduce, seedgen, experiments); this package re-exports the
// types a downstream user needs and wires defaults.
package classfuzz

import (
	"fmt"

	"repro/internal/campaign"
	"repro/internal/classfile"
	"repro/internal/coverage"
	"repro/internal/difftest"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/mutation"
	"repro/internal/reduce"
	"repro/internal/rtlib"
	"repro/internal/seedgen"
)

// Re-exported model and engine types.
type (
	// Class is the mutable Jimple-level class model (the SootClass
	// analogue) that seeds, mutants and reduced classes share.
	Class = jimple.Class
	// Mutator is one of the 129 mutation operators.
	Mutator = mutation.Mutator
	// Criterion selects the coverage-uniqueness discipline.
	Criterion = coverage.Criterion
	// Algorithm names a fuzzing campaign strategy.
	Algorithm = campaign.Algorithm
	// CampaignConfig parameterises RunCampaign.
	CampaignConfig = campaign.Config
	// CampaignResult summarises a finished campaign.
	CampaignResult = campaign.Result
	// VM is one simulated JVM implementation.
	VM = jvm.VM
	// VMSpec describes a VM preset (name, library release, policy).
	VMSpec = jvm.Spec
	// Outcome is one VM execution result.
	Outcome = jvm.Outcome
	// Runner drives differential testing across a VM lineup.
	Runner = difftest.Runner
	// Summary holds a differential-testing session's outcome vectors.
	Summary = difftest.Summary
	// Vector is one classfile's encoded five-VM outcome sequence.
	Vector = difftest.Vector
	// Category is a class's Table 6 column.
	Category = difftest.Category
)

// Table 6's split of a differential-testing session (Summary.Count).
const (
	Invoked           = difftest.Invoked
	RejectedSameStage = difftest.RejectedSameStage
	Discrepancy       = difftest.Discrepancy
)

// Uniqueness criteria of §2.2.3.
const (
	ST   = coverage.ST
	STBR = coverage.STBR
	TR   = coverage.TR
)

// Campaign algorithms of §3.1.2.
const (
	Classfuzz  = campaign.Classfuzz
	Randfuzz   = campaign.Randfuzz
	Greedyfuzz = campaign.Greedyfuzz
	Uniquefuzz = campaign.Uniquefuzz
)

// NumMutators is the size of the mutation-operator set.
const NumMutators = mutation.TotalMutators

// GenerateSeeds builds a deterministic corpus of n JRE-like seed
// classes.
func GenerateSeeds(n int, seed int64) []*Class {
	return seedgen.Generate(seedgen.DefaultOptions(n, seed))
}

// GenerateSeedFiles builds the corpus directly as classfile bytes.
func GenerateSeedFiles(n int, seed int64) ([][]byte, error) {
	return seedgen.GenerateFiles(seedgen.DefaultOptions(n, seed))
}

// Mutators returns the 129 mutation operators in stable order.
func Mutators() []*Mutator { return mutation.Registry() }

// DefaultCampaign returns a ready-to-run classfuzz[stbr] configuration
// over the given seeds, using HotSpot 9 as the instrumented reference
// VM — the paper's standard setup.
func DefaultCampaign(seeds []*Class, iterations int) CampaignConfig {
	return CampaignConfig{
		Algorithm:  Classfuzz,
		Criterion:  STBR,
		Source:     campaign.FlatSeeds(seeds),
		Iterations: iterations,
		Rand:       1,
		RefSpec:    jvm.HotSpot9(),
	}
}

// RunCampaign executes a fuzzing campaign (Algorithm 1 or a baseline).
func RunCampaign(cfg CampaignConfig) (*CampaignResult, error) {
	if cfg.RefSpec.Name == "" {
		cfg.RefSpec = jvm.HotSpot9()
	}
	return campaign.Run(cfg)
}

// StandardVMs returns the Table 3 lineup, each VM bound to its own
// library release.
func StandardVMs() []*VM {
	var vms []*VM
	for _, spec := range jvm.StandardFive() {
		vms = append(vms, jvm.New(spec))
	}
	return vms
}

// NewRunner builds the five-VM differential-testing harness.
func NewRunner() *Runner { return difftest.NewStandardRunner() }

// NewSharedEnvRunner builds a harness whose five VMs share one library
// release — Definition 2's configuration for separating JVM defects
// from compatibility discrepancies. Release is one of "jre7", "jre8",
// "jre9", "classpath".
func NewSharedEnvRunner(release string) (*Runner, error) {
	r, err := rtlib.ParseRelease(release)
	if err != nil {
		return nil, fmt.Errorf("classfuzz: %w", err)
	}
	return difftest.NewSharedEnvRunner(r), nil
}

// DiffTest runs classfiles across the standard five VMs and aggregates
// the outcome vectors.
func DiffTest(classes [][]byte) *Summary {
	return difftest.NewStandardRunner().Evaluate(classes, difftest.Options{})
}

// Compile lowers a class model to classfile bytes.
func Compile(c *Class) ([]byte, error) {
	f, err := jimple.Lower(c)
	if err != nil {
		return nil, err
	}
	return f.Bytes()
}

// Decompile lifts classfile bytes into the class model.
func Decompile(data []byte) (*Class, error) {
	f, err := classfile.Parse(data)
	if err != nil {
		return nil, err
	}
	return jimple.Lift(f)
}

// PrintClass renders a class in textual Jimple.
func PrintClass(c *Class) string { return jimple.Print(c) }

// DumpClassfile renders classfile bytes javap-style.
func DumpClassfile(data []byte) (string, error) {
	f, err := classfile.Parse(data)
	if err != nil {
		return "", err
	}
	return f.Dump(), nil
}

// ReduceClass shrinks a discrepancy-triggering class while preserving
// its five-VM outcome vector; it returns the reduced class and the
// preserved vector key.
func ReduceClass(c *Class) (*Class, string, error) {
	res, err := reduce.Reduce(c, difftest.NewStandardRunner(), reduce.Options{})
	if err != nil {
		return nil, "", err
	}
	return res.Reduced, res.Vector, nil
}
