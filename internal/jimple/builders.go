package jimple

import (
	"repro/internal/classfile"
	"repro/internal/descriptor"
)

// AddDefaultInit appends the canonical no-argument constructor:
// r0 := @this; specialinvoke r0.<super: void <init>()>(); return.
func (c *Class) AddDefaultInit() *Method {
	m := c.AddMethod(classfile.AccPublic, "<init>", nil, descriptor.Void)
	this := m.NewLocal("r0", descriptor.Object(c.Name))
	super := c.Super
	if super == "" {
		super = "java/lang/Object"
	}
	m.Body = []Stmt{
		&Identity{Target: this, Param: -1},
		&InvokeStmt{Call: &Invoke{
			Kind:  InvokeSpecial,
			Class: super,
			Name:  "<init>",
			Sig:   descriptor.Method{Return: descriptor.Void},
			Base:  this,
		}},
		&Return{},
	}
	return m
}

// AddStandardMain appends a fresh StandardMain, the class's own to
// write to.
func (c *Class) AddStandardMain(message string) *Method {
	m := StandardMain(message)
	c.Methods = append(c.Methods, m)
	return m
}

// StandardMain builds the fuzzing-harness main of §2.2.1: it prints a
// completion message so that a mutant observably either runs or fails
// earlier in the startup pipeline. The method names nothing of the
// class that declares it, so one immutable StandardMain can be shared
// by any number of copy-on-write classes.
func StandardMain(message string) *Method {
	m := &Method{
		Name:      "main",
		Params:    []descriptor.Type{descriptor.Array(descriptor.Object("java/lang/String"), 1)},
		Return:    descriptor.Void,
		Modifiers: classfile.AccPublic | classfile.AccStatic,
	}
	args := m.NewLocal("r0", descriptor.Array(descriptor.Object("java/lang/String"), 1))
	out := m.NewLocal("$r1", descriptor.Object("java/io/PrintStream"))
	m.Body = []Stmt{
		&Identity{Target: args, Param: 0},
		&Assign{
			LHS: &UseLocal{L: out},
			RHS: &StaticFieldRef{Class: "java/lang/System", Name: "out", Type: descriptor.Object("java/io/PrintStream")},
		},
		&InvokeStmt{Call: &Invoke{
			Kind:  InvokeVirtual,
			Class: "java/io/PrintStream",
			Name:  "println",
			Sig:   descriptor.Method{Params: []descriptor.Type{descriptor.Object("java/lang/String")}, Return: descriptor.Void},
			Base:  out,
			Args:  []Expr{&StringConst{V: message}},
		}},
		&Return{},
	}
	return m
}

// Println appends statements to body that print a constant message via
// a fresh PrintStream local; used by generators building ad-hoc bodies.
func Println(m *Method, message string) []Stmt {
	out := m.NewLocal(freshName(m, "$s"), descriptor.Object("java/io/PrintStream"))
	return []Stmt{
		&Assign{
			LHS: &UseLocal{L: out},
			RHS: &StaticFieldRef{Class: "java/lang/System", Name: "out", Type: descriptor.Object("java/io/PrintStream")},
		},
		&InvokeStmt{Call: &Invoke{
			Kind:  InvokeVirtual,
			Class: "java/io/PrintStream",
			Name:  "println",
			Sig:   descriptor.Method{Params: []descriptor.Type{descriptor.Object("java/lang/String")}, Return: descriptor.Void},
			Base:  out,
			Args:  []Expr{&StringConst{V: message}},
		}},
	}
}

func freshName(m *Method, prefix string) string {
	return prefix + string(rune('0'+len(m.Locals)%10)) + string(rune('a'+(len(m.Locals)/10)%26))
}
