package mutation

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/catalog"
	"repro/internal/jimple"
	"repro/internal/seedgen"
)

// lowered lowers c and serialises it; a class the container format
// cannot hold yields nil, which compares equal only to another nil.
func lowered(t *testing.T, c *jimple.Class) []byte {
	t.Helper()
	f, err := jimple.Lower(c)
	if err != nil {
		return nil
	}
	data, err := f.Bytes()
	if err != nil {
		t.Fatalf("%s: serialise: %v", c.Name, err)
	}
	return data
}

// ownAll returns a clone of c that owns every method — what the deep
// clone used to return — as the reference a copy-on-write mutant must
// match.
func ownAll(c *jimple.Class) *jimple.Class {
	d := c.Clone()
	for i := range d.Methods {
		d.OwnMethod(i)
	}
	return d
}

// cowParents returns the classes the copy-on-write test mutates: every
// seedgen and catalog seed, and for each a first-generation mutant that
// itself shares some methods with its seed and owns others, so the
// test also covers clones of clones.
func cowParents(t *testing.T) []*jimple.Class {
	n := 12
	if testing.Short() {
		n = 6
	}
	seeds := seedgen.Generate(seedgen.DefaultOptions(n, 1))
	for _, e := range catalog.Entries() {
		if e.Build != nil {
			seeds = append(seeds, e.Build())
		}
	}
	var parents []*jimple.Class
	for i, s := range seeds {
		parents = append(parents, s)
		child := s.Clone()
		rng := rand.New(rand.NewSource(int64(i)))
		for _, name := range []string{"local.insert_int", "method.duplicate", "jimple.insert_stmt"} {
			ByName(name).Apply(child, rng)
		}
		parents = append(parents, child)
	}
	return parents
}

// TestCopyOnWriteClone pins the copy-on-write contract of Class.Clone
// for every mutator: applying a mutator to a clone never changes the
// class it was cloned from (nor, for a clone of a clone, the
// grandparent), and the mutant lowers to exactly the bytes the same
// mutator produces on a copy that owns every method.
func TestCopyOnWriteClone(t *testing.T) {
	streams := 3
	if testing.Short() {
		streams = 2
	}
	parents := cowParents(t)
	before := make([][]byte, len(parents))
	for i, p := range parents {
		before[i] = lowered(t, p)
	}
	for pi, parent := range parents {
		for _, m := range Registry() {
			for s := 0; s < streams; s++ {
				seed := int64(pi*1000 + m.ID*streams + s)
				mutant := parent.Clone()
				ref := ownAll(parent)
				got := m.Apply(mutant, rand.New(rand.NewSource(seed)))
				want := m.Apply(ref, rand.New(rand.NewSource(seed)))
				if got != want {
					t.Fatalf("%s on %s (stream %d): applied=%v, owning reference applied=%v", m.Name, parent.Name, s, got, want)
				}
				if got && !bytes.Equal(lowered(t, mutant), lowered(t, ref)) {
					t.Fatalf("%s on %s (stream %d): mutant bytes differ from the owning reference", m.Name, parent.Name, s)
				}
			}
			// Parents come in (seed, child) pairs; a write through a
			// shared method of the child would also reach the seed.
			for _, k := range []int{pi, pi &^ 1} {
				if !bytes.Equal(lowered(t, parents[k]), before[k]) {
					t.Fatalf("%s changed %s through a copy-on-write clone", m.Name, parents[k].Name)
				}
			}
		}
	}
}
