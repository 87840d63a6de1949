// Package analysis is a pluggable static-analysis framework over
// parsed classfiles, modelled on go/analysis: each Analyzer runs
// against a shared Pass context (the constant pool, resolved
// descriptors, lazily built per-method control-flow graphs) and
// reports typed Diagnostics. A Diagnostic carries a JVMS §4 citation,
// the earliest startup phase at which a conforming VM may reject the
// construct, the error class such a rejection uses, and a Gate mapping
// the diagnostic onto the jvm.Policy knob that makes a particular VM
// enforce it. Folding gated diagnostics through a preset's policy
// yields the static accept/reject oracle in verdict.go; the raw
// diagnostic stream drives cmd/classlint.
//
// The load-phase passes deliberately re-derive the format rules from
// JVMS §4 instead of calling into internal/jvm's loader, so that
// crosscheck.go can use them as an independent check on the loader
// itself.
package analysis

import (
	"fmt"
	"slices"

	"repro/internal/classfile"
	"repro/internal/jvm"
)

// Severity grades a diagnostic.
type Severity int

// Severities.
const (
	// SevWarn marks advisory lint findings no simulated VM rejects
	// (unreachable code, StackMapTable inconsistencies under inference
	// verification).
	SevWarn Severity = iota
	// SevError marks constructs at least one conforming VM may reject.
	SevError
)

// String names the severity.
func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warn"
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Analyzer names the pass that produced the finding.
	Analyzer string
	// Rule is the stable identifier of the violated rule within the pass.
	Rule string
	// Severity grades the finding.
	Severity Severity
	// Phase is the earliest startup phase at which a conforming VM may
	// reject the construct.
	Phase jvm.Phase
	// Err is the error class such a rejection uses (a jvm.Err* value).
	Err string
	// JVMS cites the specification section the rule derives from.
	JVMS string
	// Message is the human-readable description.
	Message string
	// Method contextualises method-level findings as "name+descriptor";
	// empty for class-level findings.
	Method string
	// Gate maps the diagnostic onto the policy knob enforcing it.
	Gate Gate
	// Seq orders diagnostics exactly as internal/jvm's loader would
	// encounter them, so the oracle can predict which rejection fires
	// first when several rules are violated.
	Seq int
}

// String renders the diagnostic for classlint output.
func (d Diagnostic) String() string {
	loc := ""
	if d.Method != "" {
		loc = " [" + d.Method + "]"
	}
	errPart := ""
	if d.Err != "" {
		errPart = ", " + d.Err
	}
	return fmt.Sprintf("%s: %s/%s (JVMS %s, %s phase%s)%s: %s",
		d.Severity, d.Analyzer, d.Rule, d.JVMS, d.Phase, errPart, loc, d.Message)
}

// Loader-order stages used to build Diagnostic.Seq. The values mirror
// the check sequence of internal/jvm's load phase.
const (
	stageVersion = iota
	stagePool
	stagePoolNames
	stageThisClass
	stageSuper
	stageInterfaces
	stageClassFlags
	stageIfaceSuper
	stageFields
	stageMethods
	// stagePost orders diagnostics the loader never reaches (method
	// bodies, stack maps) after every format check.
	stagePost
)

// seqOf packs (stage, member index, sub-check) into a sortable ordinal.
func seqOf(stage, index, sub int) int {
	return stage<<24 | index<<8 | sub
}

// Analyzer is one pluggable pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics.
	Name string
	// Doc is a one-line description for classlint -list.
	Doc string
	// Run executes the pass against the shared context.
	Run func(*Pass)
}

// Pass is the shared per-file context handed to every analyzer.
type Pass struct {
	// File is the classfile under analysis.
	File *classfile.File

	analyzer *Analyzer
	diags    []Diagnostic
	cfgs     map[*classfile.Member]*cfgEntry
}

type cfgEntry struct {
	cfg *CFG
	err error
}

// CFG returns the lazily-built control-flow graph of m's Code
// attribute, shared across passes. The error reports undecodable
// bytecode; methods without Code return (nil, nil).
func (p *Pass) CFG(m *classfile.Member) (*CFG, error) {
	if e, ok := p.cfgs[m]; ok {
		return e.cfg, e.err
	}
	var e cfgEntry
	if code := m.Code(); code != nil {
		e.cfg, e.err = NewCFG(code)
	}
	p.cfgs[m] = &e
	return e.cfg, e.err
}

// MethodLabel renders the "name+descriptor" context of a member.
func (p *Pass) MethodLabel(m *classfile.Member) string {
	return m.Name(p.File.Pool) + m.Descriptor(p.File.Pool)
}

// report appends a diagnostic, stamping the running analyzer.
func (p *Pass) report(d Diagnostic) {
	d.Analyzer = p.analyzer.Name
	p.diags = append(p.diags, d)
}

// Run executes the analyzers against one classfile and returns the
// diagnostics in loader order.
func Run(f *classfile.File, analyzers []*Analyzer) []Diagnostic {
	p := &Pass{File: f, cfgs: make(map[*classfile.Member]*cfgEntry)}
	for _, a := range analyzers {
		p.analyzer = a
		a.Run(p)
	}
	slices.SortStableFunc(p.diags, func(a, b Diagnostic) int { return a.Seq - b.Seq })
	return p.diags
}

// DefaultAnalyzers returns the standard six passes in execution order.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{ConstPoolAnalyzer, MembersAnalyzer, StructureAnalyzer,
		CodeAnalyzer, DeadCodeAnalyzer, StackMapAnalyzer}
}
