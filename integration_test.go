package classfuzz

// Cross-module integration and soak tests: the whole pipeline under
// randomized stress, checking global invariants rather than individual
// behaviours.

import (
	"math/rand"
	"testing"

	"repro/internal/campaign"
	"repro/internal/coverage"
	"repro/internal/difftest"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/mutation"
	"repro/internal/seedgen"
)

// TestSoakRandomMutationChainsNeverPanic applies chains of random
// mutators (not just single ones) and runs every product on all five
// VMs — the aggressive mode a long fuzzing campaign effectively reaches
// once mutants become seeds.
func TestSoakRandomMutationChainsNeverPanic(t *testing.T) {
	if testing.Short() {
		t.Skip("soak")
	}
	rng := rand.New(rand.NewSource(99))
	seeds := seedgen.Generate(seedgen.DefaultOptions(20, 3))
	muts := mutation.Registry()
	vms := make([]*jvm.VM, 0, 5)
	for _, spec := range jvm.StandardFive() {
		vms = append(vms, jvm.New(spec))
	}
	for i := 0; i < 150; i++ {
		c := seeds[rng.Intn(len(seeds))].Clone()
		depth := 1 + rng.Intn(5)
		for d := 0; d < depth; d++ {
			muts[rng.Intn(len(muts))].Apply(c, rng)
		}
		f, err := jimple.Lower(c)
		if err != nil {
			continue // a chain can produce an unserialisable model; fine
		}
		data, err := f.Bytes()
		if err != nil {
			continue
		}
		for _, vm := range vms {
			o := vm.Run(data)
			if o.Phase < jvm.PhaseInvoked || o.Phase > jvm.PhaseRuntime {
				t.Fatalf("impossible phase %d", o.Phase)
			}
		}
	}
}

// TestCampaignInvariants checks structural invariants that every
// algorithm must uphold at any budget.
func TestCampaignInvariants(t *testing.T) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(25, 8))
	for _, alg := range []campaign.Algorithm{campaign.Classfuzz, campaign.Uniquefuzz, campaign.Greedyfuzz, campaign.Randfuzz} {
		res, err := campaign.Run(campaign.Config{
			Algorithm: alg, Criterion: coverage.STBR, Source: campaign.FlatSeeds(seeds),
			Iterations: 120, Rand: 5, RefSpec: jvm.HotSpot9(),
		})
		if err != nil {
			t.Fatal(err)
		}
		// Every accepted class is in Gen, marked, and has bytes.
		accepted := map[*campaign.GenClass]bool{}
		for _, g := range res.Gen {
			if g.Accepted {
				accepted[g] = true
			}
		}
		for _, g := range res.Test {
			if !g.Accepted || !accepted[g] {
				t.Errorf("%s: Test class not a marked Gen class", alg)
			}
			if len(g.Data) == 0 {
				t.Errorf("%s: accepted class without bytes", alg)
			}
			if _, err := Decompile(g.Data); err != nil {
				t.Errorf("%s: accepted class %s does not even parse: %v", alg, g.Name, err)
			}
		}
		// Iterations bound generation.
		if len(res.Gen) > res.Iterations {
			t.Errorf("%s: generated more classes than iterations", alg)
		}
		// Mutator bookkeeping sums.
		sel := 0
		for _, st := range res.MutatorStats {
			sel += st.Selected
		}
		if alg == campaign.Classfuzz && sel != res.Iterations {
			t.Errorf("%s: selections %d != iterations %d", alg, sel, res.Iterations)
		}
	}
}

// TestCoverageUniquenessHoldsOverSuite re-validates the acceptance
// criterion post-hoc: re-running every accepted class on a fresh
// reference VM must reproduce pairwise-distinct coverage statistics
// under [stbr].
func TestCoverageUniquenessHoldsOverSuite(t *testing.T) {
	seeds := seedgen.Generate(seedgen.DefaultOptions(25, 4))
	res, err := campaign.Run(campaign.Config{
		Algorithm: campaign.Classfuzz, Criterion: coverage.STBR, Source: campaign.FlatSeeds(seeds),
		Iterations: 250, Rand: 5, RefSpec: jvm.HotSpot9(),
	})
	if err != nil {
		t.Fatal(err)
	}
	vm := jvm.New(jvm.HotSpot9())
	rec := coverage.NewRecorder(jvm.ProbeRegistry())
	vm.SetRecorder(rec)
	seen := map[coverage.Stats]string{}
	for _, g := range res.Test {
		rec.Reset()
		vm.Run(g.Data)
		st := rec.Trace().Stats()
		if st != g.Stats {
			t.Fatalf("%s: coverage not reproducible: campaign %v, replay %v", g.Name, g.Stats, st)
		}
		if prev, dup := seen[st]; dup {
			t.Fatalf("suite violates [stbr]: %s and %s share stats %v", prev, g.Name, st)
		}
		seen[st] = g.Name
	}
	// Note: seed traces occupy stats slots too, so the suite plus seeds
	// being distinct is the stronger property the engine enforces; the
	// accepted subset alone must already be pairwise distinct.
}

// TestFacadeAgainstInternalConsistency: the facade constants mirror the
// internal enums they alias.
func TestFacadeAgainstInternalConsistency(t *testing.T) {
	if ST != coverage.ST || STBR != coverage.STBR || TR != coverage.TR {
		t.Error("criterion aliases drifted")
	}
	if Classfuzz != campaign.Classfuzz || Randfuzz != campaign.Randfuzz {
		t.Error("algorithm aliases drifted")
	}
	if NumMutators != len(mutation.Registry()) {
		t.Error("mutator count drifted")
	}
	if len(difftest.NewStandardRunner().VMs) != 5 {
		t.Error("standard runner must hold five VMs")
	}
}
