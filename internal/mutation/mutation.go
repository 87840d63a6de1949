// Package mutation defines the 129 mutation operators (mutators) of
// §2.2.1: syntactic rewrites of a class's structure (modifiers,
// hierarchy, fields, methods, exceptions, parameters, local variables)
// plus the six Jimple statement-level mutators. Mutators operate on the
// jimple.Class model — the SootClass analogue — so a mutant is produced
// by cloning a seed, applying one mutator, and lowering the result to a
// classfile.
package mutation

import (
	"fmt"
	"math/rand"

	"repro/internal/jimple"
)

// Category groups mutators the way Table 2 of the paper does.
type Category string

// Mutator categories.
const (
	CatClass     Category = "class"
	CatInterface Category = "interface"
	CatField     Category = "field"
	CatMethod    Category = "method"
	CatException Category = "exception"
	CatParameter Category = "parameter"
	CatLocalVar  Category = "localvar"
	CatJimple    Category = "jimple"
)

// Mutator is one mutation operator.
type Mutator struct {
	// ID is the stable index of the mutator in the registry (0..128).
	ID int
	// Name is a short unique slug like "method.rename".
	Name string
	// Category is the Table 2 family.
	Category Category
	// Doc describes the rewrite.
	Doc string
	// apply rewrites c in place. It reports whether the mutator was
	// applicable (e.g. deleting a field requires a field). Callers clone
	// the seed first.
	apply func(c *jimple.Class, rng *rand.Rand) bool
}

// Apply runs the mutator on c (in place), reporting applicability.
// It never panics: a mutator that trips on an exotic model shape counts
// as inapplicable, mirroring Soot transformations that fail to dump.
func (m *Mutator) Apply(c *jimple.Class, rng *rand.Rand) (applied bool) {
	defer func() {
		if r := recover(); r != nil {
			applied = false
		}
	}()
	return m.apply(c, rng)
}

// TotalMutators is the number of mutation operators, matching the
// paper's 129.
const TotalMutators = 129

var registry []*Mutator

// Registry returns the full mutator list in stable ID order. The
// returned slice is shared; do not modify it.
func Registry() []*Mutator { return registry }

// ByName finds a mutator by its slug.
func ByName(name string) *Mutator {
	for _, m := range registry {
		if m.Name == name {
			return m
		}
	}
	return nil
}

func register(cat Category, name, doc string, apply func(*jimple.Class, *rand.Rand) bool) {
	registry = append(registry, &Mutator{
		ID:       len(registry),
		Name:     name,
		Category: cat,
		Doc:      doc,
		apply:    apply,
	})
}

func init() {
	registerClassMutators()
	registerInterfaceMutators()
	registerFieldMutators()
	registerMethodMutators()
	registerExceptionMutators()
	registerParameterMutators()
	registerLocalVarMutators()
	registerJimpleMutators()
	if len(registry) != TotalMutators {
		panic(fmt.Sprintf("mutation: registry holds %d mutators, want %d", len(registry), TotalMutators))
	}
}

// --- shared random pick helpers ---------------------------------------------
//
// Mutants are copy-on-write clones (jimple.Class.Clone): their fields
// and methods are shared with the parent until the mutant owns them.
// OwnField copies a field; OwnMethod copies a method's header, for
// mutators that write the header or replace its body slices wholesale;
// OwnBody also deep-copies the body and locals, for mutators that write
// into them. The own* pickers return a method the caller may write to
// at that level; the pick* pickers return an index for callers that
// only read, or that check applicability before writing and own the
// member only then.

// pickWhere draws uniformly among the methods of c satisfying keep —
// one rng.Intn over their count — and returns the winner's index, or -1
// when none qualifies (no draw). It neither allocates nor takes
// ownership.
func pickWhere(c *jimple.Class, rng *rand.Rand, keep func(*jimple.Method) bool) int {
	n := 0
	for _, m := range c.Methods {
		if keep(m) {
			n++
		}
	}
	if n == 0 {
		return -1
	}
	k := rng.Intn(n)
	for i, m := range c.Methods {
		if keep(m) {
			if k == 0 {
				return i
			}
			k--
		}
	}
	panic("mutation: pickWhere lost its draw")
}

// ownWhere is pickWhere followed by OwnMethod: the returned method's
// header is the caller's to write, or nil when none qualifies.
func ownWhere(c *jimple.Class, rng *rand.Rand, keep func(*jimple.Method) bool) *jimple.Method {
	i := pickWhere(c, rng, keep)
	if i < 0 {
		return nil
	}
	return c.OwnMethod(i)
}

// ownBodyWhere is pickWhere followed by OwnBody: all of the returned
// method is the caller's to write, or nil when none qualifies.
func ownBodyWhere(c *jimple.Class, rng *rand.Rand, keep func(*jimple.Method) bool) *jimple.Method {
	i := pickWhere(c, rng, keep)
	if i < 0 {
		return nil
	}
	return c.OwnBody(i)
}

func anyMethod(*jimple.Method) bool      { return true }
func hasBody(m *jimple.Method) bool      { return len(m.Body) > 0 }
func hasParams(m *jimple.Method) bool    { return len(m.Params) > 0 }
func hasThrows(m *jimple.Method) bool    { return len(m.Throws) > 0 }
func hasLocals(m *jimple.Method) bool    { return len(m.Locals) > 0 }
func hasTwoParams(m *jimple.Method) bool { return len(m.Params) >= 2 }
func hasTwoLocals(m *jimple.Method) bool { return len(m.Locals) >= 2 }

// pickMethod draws any method's index (-1 when there is none).
func pickMethod(c *jimple.Class, rng *rand.Rand) int { return pickWhere(c, rng, anyMethod) }

// ownMethod draws any method and owns its header.
func ownMethod(c *jimple.Class, rng *rand.Rand) *jimple.Method {
	return ownWhere(c, rng, anyMethod)
}

// ownBodiedMethod draws a method that has a body and owns its header.
func ownBodiedMethod(c *jimple.Class, rng *rand.Rand) *jimple.Method {
	return ownWhere(c, rng, hasBody)
}

// ownBody draws a method that has a body and owns all of it.
func ownBody(c *jimple.Class, rng *rand.Rand) *jimple.Method {
	return ownBodyWhere(c, rng, hasBody)
}

// pickField draws a field's index (-1 when there is none).
func pickField(c *jimple.Class, rng *rand.Rand) int {
	if len(c.Fields) == 0 {
		return -1
	}
	return rng.Intn(len(c.Fields))
}

func pickLocal(m *jimple.Method, rng *rand.Rand) *jimple.Local {
	if m == nil || len(m.Locals) == 0 {
		return nil
	}
	return m.Locals[rng.Intn(len(m.Locals))]
}

// freshName derives a new identifier.
func freshName(prefix string, rng *rand.Rand) string {
	return fmt.Sprintf("%s%d", prefix, rng.Intn(100000))
}
