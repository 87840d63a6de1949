// Package reduce adapts hierarchical delta debugging (§2.3) to
// discrepancy-triggering classfiles: starting from a mutant's Jimple
// model, it repeatedly deletes methods, fields, interfaces, throws
// entries and statements, keeping a deletion only when the encoded
// five-VM outcome vector is preserved. The result is the smallest class
// this greedy hierarchy descent can find that still triggers the same
// discrepancy.
package reduce

import (
	"fmt"

	"repro/internal/difftest"
	"repro/internal/jimple"
)

// Options bound the reduction loop.
type Options struct {
	// MaxRounds caps full passes over the hierarchy (default 8).
	MaxRounds int
}

// Result reports the reduction.
type Result struct {
	Reduced *jimple.Class
	// Vector is the preserved outcome vector key.
	Vector string
	// Tests counts differential executions spent.
	Tests int
	// Deleted counts accepted deletions.
	Deleted int
}

// vectorOf lowers and runs the class, returning the encoded vector.
func vectorOf(r *difftest.Runner, c *jimple.Class) (string, bool) {
	f, err := jimple.Lower(c)
	if err != nil {
		return "", false
	}
	data, err := f.Bytes()
	if err != nil {
		return "", false
	}
	return r.Run(data).Key(), true
}

// del is one candidate deletion. It mutates the clone it is handed —
// writing to a method only through OwnMethod, since the clone shares
// its methods with the current base — and reports whether it applied
// (bounds may have shifted since the candidate was enumerated; a stale
// candidate is a no-op).
type del func(*jimple.Class) bool

// shrinker carries one Reduce call's state through its stages.
type shrinker struct {
	cur    *jimple.Class
	want   string
	res    *Result
	runner *difftest.Runner
}

// try applies del to a clone of the base; on vector preservation it
// commits.
func (s *shrinker) try(d del) bool {
	cand := s.cur.Clone()
	if !d(cand) {
		return false
	}
	got, ok := vectorOf(s.runner, cand)
	s.res.Tests++
	if ok && got == s.want {
		s.cur = cand
		s.res.Deleted++
		return true
	}
	return false
}

// runStage walks one stage's ordered candidate list, committing each
// deletion that preserves the vector.
func (s *shrinker) runStage(cands []del) bool {
	changed := false
	for _, d := range cands {
		if s.try(d) {
			changed = true
		}
	}
	return changed
}

// Reduce shrinks c while preserving its outcome vector on the runner's
// VMs. The input class is not modified.
func Reduce(c *jimple.Class, runner *difftest.Runner, opts Options) (*Result, error) {
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 8
	}
	cur := c.Clone()
	want, ok := vectorOf(runner, cur)
	if !ok {
		return nil, fmt.Errorf("reduce: class does not lower to a classfile")
	}
	s := &shrinker{
		cur:    cur,
		want:   want,
		res:    &Result{Vector: want, Tests: 1},
		runner: runner,
	}

	for round := 0; round < opts.MaxRounds; round++ {
		changed := false
		for _, stage := range stages {
			if s.runStage(stage(s.cur)) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	s.res.Reduced = s.cur
	return s.res, nil
}

// stages enumerate one round's candidate deletions, largest units first
// (step 1 of §2.3: methods, then fields, interfaces, throws entries,
// statements and unused locals). Each stage enumerates its candidates up
// front against the current class; within a stage a deletion never
// grows another candidate's container, so a stale index is at worst a
// no-op (the bounds checks), exactly as in the original interleaved
// loops.
var stages = []func(cur *jimple.Class) []del{
	func(cur *jimple.Class) []del {
		var cands []del
		for i := len(cur.Methods) - 1; i >= 0; i-- {
			cands = append(cands, func(c *jimple.Class) bool {
				if i >= len(c.Methods) {
					return false
				}
				c.Methods = append(c.Methods[:i], c.Methods[i+1:]...)
				return true
			})
		}
		return cands
	},
	func(cur *jimple.Class) []del {
		var cands []del
		for i := len(cur.Fields) - 1; i >= 0; i-- {
			cands = append(cands, func(c *jimple.Class) bool {
				if i >= len(c.Fields) {
					return false
				}
				c.Fields = append(c.Fields[:i], c.Fields[i+1:]...)
				return true
			})
		}
		return cands
	},
	func(cur *jimple.Class) []del {
		var cands []del
		for i := len(cur.Interfaces) - 1; i >= 0; i-- {
			cands = append(cands, func(c *jimple.Class) bool {
				if i >= len(c.Interfaces) {
					return false
				}
				c.Interfaces = append(c.Interfaces[:i], c.Interfaces[i+1:]...)
				return true
			})
		}
		return cands
	},
	func(cur *jimple.Class) []del {
		var cands []del
		for mi := range cur.Methods {
			for ti := len(cur.Methods[mi].Throws) - 1; ti >= 0; ti-- {
				cands = append(cands, func(c *jimple.Class) bool {
					if mi >= len(c.Methods) || ti >= len(c.Methods[mi].Throws) {
						return false
					}
					m := c.OwnMethod(mi)
					m.Throws = append(m.Throws[:ti], m.Throws[ti+1:]...)
					return true
				})
			}
		}
		return cands
	},
	// Statements, from the end, preserving branch targets.
	func(cur *jimple.Class) []del {
		var cands []del
		for mi := range cur.Methods {
			for si := len(cur.Methods[mi].Body) - 1; si >= 0; si-- {
				cands = append(cands, func(c *jimple.Class) bool {
					if mi >= len(c.Methods) || si >= len(c.Methods[mi].Body) {
						return false
					}
					m := c.OwnMethod(mi)
					m.Body = append(m.Body[:si], m.Body[si+1:]...)
					jimple.RetargetAfterRemoval(m.Body, si)
					return true
				})
			}
		}
		return cands
	},
	func(cur *jimple.Class) []del {
		var cands []del
		for mi := range cur.Methods {
			for li := len(cur.Methods[mi].Locals) - 1; li >= 0; li-- {
				cands = append(cands, func(c *jimple.Class) bool {
					if mi >= len(c.Methods) || li >= len(c.Methods[mi].Locals) {
						return false
					}
					m := c.OwnMethod(mi)
					m.Locals = append(m.Locals[:li], m.Locals[li+1:]...)
					return true
				})
			}
		}
		return cands
	},
}

// Size is the reduction metric: structural element count.
func Size(c *jimple.Class) int {
	n := 1 + len(c.Interfaces) + len(c.Fields)
	for _, m := range c.Methods {
		n += 1 + len(m.Throws) + len(m.Body) + len(m.Locals)
	}
	return n
}
