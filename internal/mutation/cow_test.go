package mutation

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/classfile"
	"repro/internal/descriptor"
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

// ownAll returns a clone of c that owns every field and all of every
// method — what the deep clone used to return — as the reference a
// copy-on-write mutant must match.
func ownAll(c *jimple.Class) *jimple.Class {
	d := c.Clone()
	for i := range d.Fields {
		d.OwnField(i)
	}
	for i := range d.Methods {
		d.OwnBody(i)
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
// main as well as its ancestors' methods; and three children's clones
// that hold only the shared donor's fields and methods.
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
	// Then a few classes whose fields and methods are all the shared
	// donor's, as the replace-all mutators leave them, so every mutator
	// also runs on members the donor shares.
	for _, ci := range children[:3] {
		g := parents[ci].Clone()
		ByName("field.replace_all").Apply(g, nil)
		ByName("method.replace_all").Apply(g, nil)
		add(g, ci)
	}
	return parents, parentOf
}

// TestCopyOnWriteClone pins the copy-on-write contract of Class.Clone
// for every mutator: applying a mutator to a clone never changes the
// class it was cloned from nor any earlier ancestor — neither their
// lowered bytes nor their Jimple text, which also shows what lowering
// drops, such as a local's name — and the mutant lowers to exactly the
// bytes the same mutator produces on a copy that owns every member.
// The shared standard main and the shared donor stay deep-equal to
// fresh ones after every mutator.
func TestCopyOnWriteClone(t *testing.T) {
	streams := 3
	if testing.Short() {
		streams = 2
	}
	parents, parentOf := cowParents(t)
	freshMain := jimple.StandardMain("Completed!")
	freshDonor := templateDonor()
	before := make([][]byte, len(parents))
	beforeText := make([]string, len(parents))
	for i, p := range parents {
		before[i] = lowered(t, p)
		beforeText[i] = jimple.Print(p)
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
				if !bytes.Equal(lowered(t, parents[k]), before[k]) || jimple.Print(parents[k]) != beforeText[k] {
					t.Fatalf("%s changed %s through a copy-on-write clone", m.Name, parents[k].Name)
				}
			}
			if !reflect.DeepEqual(sharedMain, freshMain) {
				t.Fatalf("%s on %s wrote to the shared standard main", m.Name, parent.Name)
			}
			if !reflect.DeepEqual(donor, freshDonor) {
				t.Fatalf("%s on %s wrote to the shared donor", m.Name, parent.Name)
			}
		}
	}
}

// bodyWriters lists the mutators that write into a body's statements
// or a locals list's contents, and so must own the whole method
// (OwnBody). Every other mutator writes at most a header, replaces
// body slices wholesale, or leaves methods alone, and must leave every
// body it keeps shared with the parent.
var bodyWriters = map[string]bool{
	"local.retype_to_string":     true,
	"local.retype_to_int":        true,
	"local.retype_to_map":        true,
	"local.retype_random":        true,
	"local.retype_to_self":       true,
	"local.rename":               true,
	"local.swap_types":           true,
	"local.remove_one":           true,
	"local.rebind_identity":      true,
	"local.drop_identity":        true,
	"jimple.insert_stmt":         true,
	"jimple.delete_stmt":         true,
	"jimple.swap_stmts":          true,
	"jimple.duplicate_stmt":      true,
	"jimple.replace_with_return": true,
	"jimple.move_to_end":         true,
}

// markerA and markerB tag two statements in every body of pinParent,
// so a copy of a body shows as a tagged statement the parent does not
// hold, whichever single statement a mutator deletes or replaces.
const markerA, markerB = 424242, 424243

// pinParent builds a class with the given flags and superclass, with
// fields, an interface, bodied instance and static methods with
// parameters, throws, several locals and identity statements, and an
// abstract method without code: two such classes with opposite class
// flags let every mutator apply for some stream.
func pinParent(mods classfile.Flags, super string) *jimple.Class {
	c := jimple.NewClass("fuzz/Pin")
	c.Modifiers, c.Super = mods, super
	c.Interfaces = []string{"java/io/Serializable"}
	c.AddField(classfile.AccPrivate, "count", descriptor.Int)
	c.AddField(classfile.AccPublic|classfile.AccStatic|classfile.AccTransient, "NAME", descriptor.Object("java/lang/String"))
	bodied := func(mods classfile.Flags, name string, params ...descriptor.Type) {
		m := c.AddMethod(mods, name, params, descriptor.Void)
		m.Throws = []string{"java/lang/Exception"}
		var body []jimple.Stmt
		if !m.IsStatic() {
			body = append(body, &jimple.Identity{Target: m.NewLocal("pin_this", descriptor.Object(c.Name)), Param: -1})
		}
		for i, p := range params {
			body = append(body, &jimple.Identity{Target: m.NewLocal(fmt.Sprintf("pin_p%d", i), p), Param: i})
		}
		tmp := m.NewLocal("pin_t", descriptor.Int)
		for _, v := range []int64{markerA, markerB} {
			body = append(body, &jimple.Assign{LHS: &jimple.UseLocal{L: tmp}, RHS: &jimple.IntConst{V: v, Kind: 'I'}})
		}
		m.Body = append(body, &jimple.Return{})
	}
	bodied(classfile.AccPublic|classfile.AccFinal|classfile.AccSynchronized, "work", descriptor.Int, descriptor.Object("java/lang/String"))
	bodied(classfile.AccStatic, "calc", descriptor.Long, descriptor.Int)
	bodied(classfile.AccPublic|classfile.AccStatic, "main", descriptor.Array(descriptor.Object("java/lang/String"), 1))
	c.AddMethod(classfile.AccPublic|classfile.AccAbstract, "abs", []descriptor.Type{descriptor.Int}, descriptor.Int)
	return c
}

// copiedBody reports whether mutant holds a tagged statement that is
// not one of parent's: a copy of one of parent's bodies.
func copiedBody(mutant, parent *jimple.Class) bool {
	own := map[jimple.Stmt]bool{}
	for _, m := range parent.Methods {
		for _, s := range m.Body {
			own[s] = true
		}
	}
	for _, m := range mutant.Methods {
		for _, s := range m.Body {
			if a, ok := s.(*jimple.Assign); ok && !own[s] {
				if k, ok := a.RHS.(*jimple.IntConst); ok && (k.V == markerA || k.V == markerB) {
					return true
				}
			}
		}
	}
	return false
}

// TestMutatorOwnershipLevels pins, per mutator, which level of a
// method it owns: a body writer's applied mutant holds a copy of the
// body it edited, and any other mutator's applied mutant still shares
// every body it keeps with the parent. A mutator that starts writing
// into bodies through OwnMethod fails here by name, as does one that
// copies bodies it never writes.
func TestMutatorOwnershipLevels(t *testing.T) {
	for name := range bodyWriters {
		if ByName(name) == nil {
			t.Errorf("bodyWriters names unknown mutator %s", name)
		}
	}
	parents := []*jimple.Class{
		pinParent(classfile.AccPublic|classfile.AccSuper, "java/lang/Object"),
		pinParent(classfile.AccFinal|classfile.AccAbstract|classfile.AccInterface, "java/lang/Thread"),
	}
	for _, m := range Registry() {
		applied := 0
		for pi, parent := range parents {
			for s := 0; s < 8; s++ {
				mutant := parent.Clone()
				if !m.Apply(mutant, rand.New(rand.NewSource(int64(m.ID*100+pi*10+s)))) {
					continue
				}
				applied++
				if got, want := copiedBody(mutant, parent), bodyWriters[m.Name]; got != want {
					t.Errorf("%s (parent %d, stream %d): copied a body = %v, want %v", m.Name, pi, s, got, want)
				}
			}
		}
		if applied == 0 {
			t.Errorf("%s never applied, so its ownership level is unpinned", m.Name)
		}
	}
}

// TestConcurrentMutantsShareParents applies every mutator from several
// goroutines at once to clones of the same parents and lowers the
// results, as the campaign's workers do. Under -race, a mutator that
// writes to anything clones share — a field, a method's header or
// body, the standard main, the donor — is reported.
func TestConcurrentMutantsShareParents(t *testing.T) {
	var parents []*jimple.Class
	for _, p := range []*jimple.Class{
		pinParent(classfile.AccPublic|classfile.AccSuper, "java/lang/Object"),
		pinParent(classfile.AccFinal|classfile.AccAbstract|classfile.AccInterface, "java/lang/Thread"),
	} {
		withMain := p.Clone()
		withMain.Methods = append(withMain.Methods, sharedMain)
		withDonor := p.Clone()
		ByName("field.replace_all").Apply(withDonor, nil)
		ByName("method.replace_all").Apply(withDonor, nil)
		parents = append(parents, p, withMain, withDonor)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for pi, p := range parents {
				for _, m := range Registry() {
					mutant := p.Clone()
					if m.Apply(mutant, rand.New(rand.NewSource(int64(g*100000+pi*1000+m.ID)))) {
						_, _ = jimple.Lower(mutant) // the read side; a mutant may not lower
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
