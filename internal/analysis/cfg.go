package analysis

import (
	"repro/internal/bytecode"
	"repro/internal/classfile"
)

// BadTarget records a control transfer whose destination is not an
// instruction boundary (or lies outside the code array).
type BadTarget struct {
	// From is the instruction index of the branch.
	From int
	// Target is the offending absolute PC.
	Target int
}

// CFG is the per-method control-flow graph shared across passes: the
// decoded instruction list, explicit successor edges, and the
// reachability fixpoint the inference verifier would compute (entry
// instruction plus exception-handler entries of protected ranges that
// contain reachable instructions).
type CFG struct {
	// Code is the attribute the graph was built from.
	Code *classfile.CodeAttr
	// Ins is the decoded instruction sequence.
	Ins []*bytecode.Instruction
	// PCIndex maps a byte PC to its instruction index.
	PCIndex map[int]int
	// Succs lists successor instruction indices (fall-through plus
	// branch/switch targets; exception edges are reconstructed from
	// Code.Handlers during the reachability computation).
	Succs [][]int
	// BadTargets lists branches into the middle of an instruction.
	BadTargets []BadTarget
	// FallsOff lists instruction indices that can fall through past the
	// end of the code array.
	FallsOff []int
	// Reachable marks instructions the verifier's worklist would visit.
	Reachable []bool
}

// NewCFG decodes a Code attribute and builds its graph. The error
// reports undecodable bytecode; all other irregularities (branches to
// non-boundaries, falling off the end) are recorded on the graph for
// passes to report.
func NewCFG(code *classfile.CodeAttr) (*CFG, error) {
	ins, err := bytecode.Decode(code.Code)
	if err != nil {
		return nil, err
	}
	g := &CFG{
		Code:      code,
		Ins:       ins,
		PCIndex:   make(map[int]int, len(ins)),
		Succs:     make([][]int, len(ins)),
		Reachable: make([]bool, len(ins)),
	}
	for i, in := range ins {
		g.PCIndex[in.PC] = i
	}
	for i, in := range ins {
		if !in.Op.EndsBlock() {
			if i+1 < len(ins) {
				g.Succs[i] = append(g.Succs[i], i+1)
			} else {
				g.FallsOff = append(g.FallsOff, i)
			}
		}
		for k := range in.NumTargets() {
			t := in.Target(k)
			if idx, ok := g.PCIndex[t]; ok {
				g.Succs[i] = append(g.Succs[i], idx)
			} else {
				g.BadTargets = append(g.BadTargets, BadTarget{From: i, Target: t})
			}
		}
	}
	g.computeReachable()
	return g, nil
}

// computeReachable runs the fixpoint: instruction 0 is live, successors
// of live instructions are live, and a handler entry becomes live once
// any instruction of its protected range is live (the exception edges
// the dataflow verifier propagates).
func (g *CFG) computeReachable() {
	if len(g.Ins) == 0 {
		return
	}
	work := []int{0}
	g.Reachable[0] = true
	mark := func(idx int) {
		if idx >= 0 && idx < len(g.Ins) && !g.Reachable[idx] {
			g.Reachable[idx] = true
			work = append(work, idx)
		}
	}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range g.Succs[i] {
			mark(s)
		}
		pc := g.Ins[i].PC
		for _, h := range g.Code.Handlers {
			if pc >= int(h.StartPC) && pc < int(h.EndPC) {
				if hidx, ok := g.PCIndex[int(h.HandlerPC)]; ok {
					mark(hidx)
				}
			}
		}
	}
}

// UnreachableCount returns how many instructions the verifier never
// visits.
func (g *CFG) UnreachableCount() int {
	n := 0
	for _, r := range g.Reachable {
		if !r {
			n++
		}
	}
	return n
}
