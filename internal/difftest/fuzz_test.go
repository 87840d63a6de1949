package difftest

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/catalog"
	"repro/internal/classfile"
	"repro/internal/jimple"
	"repro/internal/jvm"
	"repro/internal/mutation"
	"repro/internal/seedgen"
)

// lineupChainAllocBound caps what one FuzzLineupChain input may
// allocate across its checks: the shared lineup's Evaluate, the five
// fresh VMs of the separate-parse reference and the five of CrossCheck.
// The seed inputs allocate 56–290 KiB; 16 MiB flags a mutant whose
// runs allocate out of proportion to the classes a campaign makes.
const lineupChainAllocBound = 16 << 20

// maxChainMutators is the longest mutator chain one input applies.
const maxChainMutators = 6

// lineupChainSeeds is the fuzz target's seed pool: a generated corpus,
// then every catalog discrepancy built at the Jimple level.
func lineupChainSeeds() []*jimple.Class {
	pool := seedgen.Generate(seedgen.DefaultOptions(24, 7))
	for _, e := range catalog.Entries() {
		if e.Build != nil {
			pool = append(pool, e.Build())
		}
	}
	return pool
}

// FuzzLineupChain extends the zero-mismatch invariant to mutator
// chains: the input picks a seed from lineupChainSeeds, up to six
// mutator IDs and an RNG seed. The mutant, lowered and written, must
// get the same outcome vector from the shared lineup (one Runner whose
// VMs carry their warm state from input to input) as from five fresh
// VMs each parsing the bytes themselves, the static oracle must agree
// with every VM (analysis.CrossCheck), and the checks must allocate
// under lineupChainAllocBound. Plain go test replays the seeds below
// and testdata/fuzz/FuzzLineupChain.
func FuzzLineupChain(f *testing.F) {
	pool := lineupChainSeeds()
	muts := mutation.Registry()
	for i := range 8 {
		f.Add(uint16(i*7), []byte{byte(i), byte(3 * i), byte(5*i + 1)}, int64(i))
	}
	f.Add(uint16(len(pool)-1), []byte{0, 1, 2, 3, 4, 5}, int64(99))

	shared := NewStandardRunner()
	specs := jvm.StandardFive()
	f.Fuzz(func(t *testing.T, pick uint16, plan []byte, seed int64) {
		c := pool[int(pick)%len(pool)].Clone()
		for k, id := range plan[:min(len(plan), maxChainMutators)] {
			muts[int(id)%len(muts)].Apply(c, rand.New(rand.NewSource(seed+int64(k))))
		}
		if !c.IsInterface() && c.FindMethod("main") == nil {
			c.AddStandardMain("Completed!")
		}
		lowered, err := jimple.Lower(c)
		if err != nil {
			return // a mutant that does not lower never reaches a VM
		}
		data, err := lowered.Bytes()
		if err != nil {
			return
		}
		parsed, err := classfile.Parse(data)
		if err == nil && jvm.CheckFootprint(parsed) != nil {
			t.Skip("over the verifier's footprint cap")
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := shared.Evaluate([][]byte{data}, Options{}).Vectors[0]
		want := NewStandardRunner().runSeparateParses(data)
		var mismatches []analysis.Mismatch
		if err == nil {
			mismatches = analysis.CrossCheck(parsed, specs)
		}
		runtime.ReadMemStats(&after)

		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shared lineup vector %v, fresh separate parses %v", got, want)
		}
		if len(mismatches) > 0 {
			t.Fatalf("static oracle mismatches: %v", mismatches)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > lineupChainAllocBound {
			t.Fatalf("%d-byte mutant allocated %d bytes, bound %d", len(data), alloc, lineupChainAllocBound)
		}
	})
}
