package mutation

import (
	"math/rand"

	"repro/internal/descriptor"
	"repro/internal/jimple"
)

func registerExceptionMutators() {
	register(CatException, "exc.add_one", "add one declared exception to a method (Table 5 row 7)",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownMethod(c, rng)
			if m == nil {
				return false
			}
			m.Throws = append(m.Throws, throwablePool[rng.Intn(len(throwablePool))])
			return true
		})
	register(CatException, "exc.add_list", "add a list of declared exceptions (Table 5 row 2)",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownMethod(c, rng)
			if m == nil {
				return false
			}
			n := 2 + rng.Intn(3)
			for i := 0; i < n; i++ {
				m.Throws = append(m.Throws, throwablePool[rng.Intn(len(throwablePool))])
			}
			return true
		})
	register(CatException, "exc.add_inaccessible", "declare the package-private sun.java2d.pisces.PiscesRenderingEngine$2 thrown (Problem 3)",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownMethod(c, rng)
			if m == nil {
				return false
			}
			m.Throws = append(m.Throws, "sun/java2d/pisces/PiscesRenderingEngine$2")
			return true
		})
	register(CatException, "exc.add_non_throwable", "declare a non-Throwable (java.util.Map) thrown",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownMethod(c, rng)
			if m == nil {
				return false
			}
			m.Throws = append(m.Throws, "java/util/Map")
			return true
		})
	register(CatException, "exc.add_missing", "declare a nonexistent class thrown",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownMethod(c, rng)
			if m == nil {
				return false
			}
			m.Throws = append(m.Throws, "org/fuzz/NoSuchThrowable")
			return true
		})
	register(CatException, "exc.add_self", "declare the class itself thrown",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownMethod(c, rng)
			if m == nil {
				return false
			}
			m.Throws = append(m.Throws, c.Name)
			return true
		})
	register(CatException, "exc.remove_one", "delete one declared exception",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownWhere(c, rng, hasThrows)
			if m == nil {
				return false
			}
			i := rng.Intn(len(m.Throws))
			m.Throws = append(m.Throws[:i], m.Throws[i+1:]...)
			return true
		})
	register(CatException, "exc.remove_all", "delete every declared exception of a method",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownWhere(c, rng, hasThrows)
			if m == nil {
				return false
			}
			m.Throws = nil
			return true
		})
	register(CatException, "exc.duplicate", "declare one exception twice",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownWhere(c, rng, hasThrows)
			if m == nil {
				return false
			}
			m.Throws = append(m.Throws, m.Throws[rng.Intn(len(m.Throws))])
			return true
		})
}

var paramTypePool = []descriptor.Type{
	descriptor.Int,
	descriptor.Long,
	descriptor.Object("java/lang/String"),
	descriptor.Object("java/lang/Object"),
	descriptor.Object("java/util/Map"),
	descriptor.Array(descriptor.Object("java/lang/String"), 1),
}

func registerParameterMutators() {
	register(CatParameter, "param.insert_object_front", "insert a java.lang.Object parameter at the front (Table 2's main example)",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownMethod(c, rng)
			if m == nil {
				return false
			}
			m.Params = append([]descriptor.Type{descriptor.Object("java/lang/Object")}, m.Params...)
			return true
		})
	register(CatParameter, "param.insert_back", "append a pooled-type parameter",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownMethod(c, rng)
			if m == nil {
				return false
			}
			m.Params = append(m.Params, paramTypePool[rng.Intn(len(paramTypePool))])
			return true
		})
	register(CatParameter, "param.remove_first", "delete the first parameter",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownWhere(c, rng, hasParams)
			if m == nil {
				return false
			}
			m.Params = m.Params[1:]
			return true
		})
	register(CatParameter, "param.remove_last", "delete the last parameter",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownWhere(c, rng, hasParams)
			if m == nil {
				return false
			}
			m.Params = m.Params[:len(m.Params)-1]
			return true
		})
	register(CatParameter, "param.remove_all", "delete every parameter",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownWhere(c, rng, hasParams)
			if m == nil {
				return false
			}
			m.Params = nil
			return true
		})
	register(CatParameter, "param.change_type", "change one parameter's type (the internalTransform Map→String case)",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownWhere(c, rng, hasParams)
			if m == nil {
				return false
			}
			m.Params[rng.Intn(len(m.Params))] = paramTypePool[rng.Intn(len(paramTypePool))]
			return true
		})
	register(CatParameter, "param.change_to_primitive", "change one reference parameter to int",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownWhere(c, rng, hasParams)
			if m == nil {
				return false
			}
			for i, p := range m.Params {
				if p.IsReference() {
					m.Params[i] = descriptor.Int
					return true
				}
			}
			return false
		})
	register(CatParameter, "param.swap_two", "swap two parameters' types",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownWhere(c, rng, hasTwoParams)
			if m == nil {
				return false
			}
			i := rng.Intn(len(m.Params) - 1)
			m.Params[i], m.Params[i+1] = m.Params[i+1], m.Params[i]
			return true
		})
	register(CatParameter, "param.widen_to_long", "widen one parameter to long (shifting every later slot)",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownWhere(c, rng, hasParams)
			if m == nil {
				return false
			}
			m.Params[rng.Intn(len(m.Params))] = descriptor.Long
			return true
		})
	register(CatParameter, "param.duplicate_first", "duplicate the first parameter",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownWhere(c, rng, hasParams)
			if m == nil {
				return false
			}
			m.Params = append([]descriptor.Type{m.Params[0]}, m.Params...)
			return true
		})
}

var localTypePool = []descriptor.Type{
	descriptor.Int,
	descriptor.Long,
	descriptor.Float,
	descriptor.Double,
	descriptor.Object("java/lang/String"),
	descriptor.Object("java/util/Map"),
	descriptor.Object("java/lang/Object"),
	descriptor.Array(descriptor.Int, 1),
}

func registerLocalVarMutators() {
	register(CatLocalVar, "local.insert_int", "declare an extra int local",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownBodiedMethod(c, rng)
			if m == nil {
				return false
			}
			m.NewLocal(freshName("$i", rng), descriptor.Int)
			return true
		})
	register(CatLocalVar, "local.insert_string", "declare an extra String local",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownBodiedMethod(c, rng)
			if m == nil {
				return false
			}
			m.NewLocal(freshName("$s", rng), descriptor.Object("java/lang/String"))
			return true
		})
	register(CatLocalVar, "local.insert_long", "declare an extra two-slot long local",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownBodiedMethod(c, rng)
			if m == nil {
				return false
			}
			m.NewLocal(freshName("$l", rng), descriptor.Long)
			return true
		})
	register(CatLocalVar, "local.remove_one", "delete one local declaration (its uses become undefined-slot reads)",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownBodyWhere(c, rng, hasLocals)
			if m == nil {
				return false
			}
			i := rng.Intn(len(m.Locals))
			m.Locals = append(m.Locals[:i], m.Locals[i+1:]...)
			return true
		})
	register(CatLocalVar, "local.remove_all", "delete every local declaration of a method",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownWhere(c, rng, hasLocals)
			if m == nil {
				return false
			}
			m.Locals = nil
			return true
		})
	register(CatLocalVar, "local.retype_to_string", "change a local's type to java.lang.String (Table 2's $i0 example)",
		func(c *jimple.Class, rng *rand.Rand) bool {
			l := pickLocal(ownBody(c, rng), rng)
			if l == nil {
				return false
			}
			l.Type = descriptor.Object("java/lang/String")
			return true
		})
	register(CatLocalVar, "local.retype_to_int", "change a local's type to int",
		func(c *jimple.Class, rng *rand.Rand) bool {
			l := pickLocal(ownBody(c, rng), rng)
			if l == nil {
				return false
			}
			l.Type = descriptor.Int
			return true
		})
	register(CatLocalVar, "local.retype_to_map", "change a local's type to java.util.Map",
		func(c *jimple.Class, rng *rand.Rand) bool {
			l := pickLocal(ownBody(c, rng), rng)
			if l == nil {
				return false
			}
			l.Type = descriptor.Object("java/util/Map")
			return true
		})
	register(CatLocalVar, "local.retype_random", "change a local's type to a pooled type (Table 5 row 9)",
		func(c *jimple.Class, rng *rand.Rand) bool {
			l := pickLocal(ownBody(c, rng), rng)
			if l == nil {
				return false
			}
			l.Type = localTypePool[rng.Intn(len(localTypePool))]
			return true
		})
	register(CatLocalVar, "local.retype_to_self", "change a local's type to the class under mutation",
		func(c *jimple.Class, rng *rand.Rand) bool {
			l := pickLocal(ownBody(c, rng), rng)
			if l == nil {
				return false
			}
			l.Type = descriptor.Object(c.Name)
			return true
		})
	register(CatLocalVar, "local.rename", "rename a local variable",
		func(c *jimple.Class, rng *rand.Rand) bool {
			l := pickLocal(ownBody(c, rng), rng)
			if l == nil {
				return false
			}
			l.Name = freshName("$v", rng)
			return true
		})
	register(CatLocalVar, "local.swap_types", "swap the declared types of two locals",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownBodyWhere(c, rng, hasTwoLocals)
			if m == nil {
				return false
			}
			i := rng.Intn(len(m.Locals) - 1)
			m.Locals[i].Type, m.Locals[i+1].Type = m.Locals[i+1].Type, m.Locals[i].Type
			return true
		})
	register(CatLocalVar, "local.rebind_identity", "re-bind an identity statement to a different parameter index",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownBody(c, rng)
			if m == nil {
				return false
			}
			for _, s := range m.Body {
				if id, ok := s.(*jimple.Identity); ok {
					id.Param = id.Param + 1
					return true
				}
			}
			return false
		})
	register(CatLocalVar, "local.drop_identity", "delete an identity statement (the parameter loses its binding)",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownBody(c, rng)
			if m == nil {
				return false
			}
			for i, s := range m.Body {
				if _, ok := s.(*jimple.Identity); ok {
					m.Body = append(m.Body[:i], m.Body[i+1:]...)
					jimple.RetargetAfterRemoval(m.Body, i)
					return true
				}
			}
			return false
		})
	register(CatLocalVar, "local.insert_unused_wide", "declare an unused double local (padding the frame)",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownBodiedMethod(c, rng)
			if m == nil {
				return false
			}
			m.NewLocal(freshName("$d", rng), descriptor.Double)
			return true
		})
}

func registerJimpleMutators() {
	register(CatJimple, "jimple.insert_stmt", "insert a program statement at a random position",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownBody(c, rng)
			if m == nil {
				return false
			}
			pos := rng.Intn(len(m.Body) + 1)
			var st jimple.Stmt
			switch rng.Intn(3) {
			case 0:
				st = &jimple.Nop{}
			case 1:
				st = &jimple.Return{}
			default:
				l := pickLocal(m, rng)
				if l == nil {
					st = &jimple.Nop{}
				} else {
					st = &jimple.Assign{LHS: &jimple.UseLocal{L: l}, RHS: &jimple.IntConst{V: int64(rng.Intn(10)), Kind: 'I'}}
				}
			}
			jimple.RetargetAfterInsertion(m.Body, pos)
			m.Body = append(m.Body[:pos], append([]jimple.Stmt{st}, m.Body[pos:]...)...)
			return true
		})
	register(CatJimple, "jimple.delete_stmt", "delete a program statement",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownBody(c, rng)
			if m == nil || len(m.Body) == 0 {
				return false
			}
			i := rng.Intn(len(m.Body))
			m.Body = append(m.Body[:i], m.Body[i+1:]...)
			jimple.RetargetAfterRemoval(m.Body, i)
			return true
		})
	register(CatJimple, "jimple.swap_stmts", "swap two adjacent statements (Table 2's def-use reorder)",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownBody(c, rng)
			if m == nil || len(m.Body) < 2 {
				return false
			}
			i := rng.Intn(len(m.Body) - 1)
			m.Body[i], m.Body[i+1] = m.Body[i+1], m.Body[i]
			return true
		})
	register(CatJimple, "jimple.duplicate_stmt", "duplicate a program statement in place",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownBody(c, rng)
			if m == nil || len(m.Body) == 0 {
				return false
			}
			i := rng.Intn(len(m.Body))
			st := m.Body[i]
			jimple.RetargetAfterInsertion(m.Body, i)
			m.Body = append(m.Body[:i], append([]jimple.Stmt{st}, m.Body[i:]...)...)
			return true
		})
	register(CatJimple, "jimple.replace_with_return", "replace a statement with a bare return",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownBody(c, rng)
			if m == nil || len(m.Body) == 0 {
				return false
			}
			m.Body[rng.Intn(len(m.Body))] = &jimple.Return{}
			return true
		})
	register(CatJimple, "jimple.move_to_end", "move a statement to the end of the body",
		func(c *jimple.Class, rng *rand.Rand) bool {
			m := ownBody(c, rng)
			if m == nil || len(m.Body) < 2 {
				return false
			}
			i := rng.Intn(len(m.Body) - 1)
			st := m.Body[i]
			m.Body = append(m.Body[:i], m.Body[i+1:]...)
			jimple.RetargetAfterRemoval(m.Body, i)
			m.Body = append(m.Body, st)
			return true
		})
}
