package mutation

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
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

// sharedMain stands in for the one standard main the campaign appends
// to every mutant that has no main of its own: a single method many
// classes hold.
var sharedMain = jimple.StandardMain("Completed!")

// cowParents returns the classes the copy-on-write test mutates, with
// each one's parent index (-1 for a seed): every seedgen and catalog
// seed; for each a first-generation mutant that itself shares some
// methods with its seed (a catalog seed's customised main included,
// unless a mutator took it over) and owns others, so the test also
// covers clones of clones; and, for each class seed, a clone of that
// mutant with sharedMain in place of its main, as finishMutant gives a
// mutant left without one, so a third generation shares the standard
// main as well as its ancestors' methods.
func cowParents(t *testing.T) (parents []*jimple.Class, parentOf []int) {
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
	add := func(c *jimple.Class, parent int) int {
		parents = append(parents, c)
		parentOf = append(parentOf, parent)
		return len(parents) - 1
	}
	var children []int
	for i, s := range seeds {
		si := add(s, -1)
		child := s.Clone()
		rng := rand.New(rand.NewSource(int64(i)))
		for _, name := range []string{"local.insert_int", "method.duplicate", "jimple.insert_stmt"} {
			ByName(name).Apply(child, rng)
		}
		children = append(children, add(child, si))
	}
	// The third generation comes last, so the seeds and children keep
	// the indices (and with them the mutator streams) they had alone.
	for _, ci := range children {
		if parents[ci].IsInterface() {
			continue
		}
		grandchild := parents[ci].Clone()
		grandchild.Methods = slices.DeleteFunc(grandchild.Methods, func(m *jimple.Method) bool { return m.Name == "main" })
		grandchild.Methods = append(grandchild.Methods, sharedMain)
		add(grandchild, ci)
	}
	return parents, parentOf
}

// TestCopyOnWriteClone pins the copy-on-write contract of Class.Clone
// for every mutator: applying a mutator to a clone never changes the
// class it was cloned from nor any earlier ancestor, and the mutant
// lowers to exactly the bytes the same mutator produces on a copy that
// owns every method. The shared standard main stays deep-equal to a
// fresh one after every mutator.
func TestCopyOnWriteClone(t *testing.T) {
	streams := 3
	if testing.Short() {
		streams = 2
	}
	parents, parentOf := cowParents(t)
	freshMain := jimple.StandardMain("Completed!")
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
			// A write through a method the parent shares with its
			// ancestors would also reach them.
			for k := pi; k >= 0; k = parentOf[k] {
				if !bytes.Equal(lowered(t, parents[k]), before[k]) {
					t.Fatalf("%s changed %s through a copy-on-write clone", m.Name, parents[k].Name)
				}
			}
			if !reflect.DeepEqual(sharedMain, freshMain) {
				t.Fatalf("%s on %s wrote to the shared standard main", m.Name, parent.Name)
			}
		}
	}
}
