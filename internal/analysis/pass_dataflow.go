package analysis

import (
	"repro/internal/analysis/dataflow"
	"repro/internal/classfile"
	"repro/internal/jvm"
	"repro/internal/rtlib"
)

// DataflowAnalyzer surfaces the abstract-interpretation verifier's
// findings as diagnostics: each method body is run through the §4.10
// type-state dataflow under a dialect-free baseline policy, then under
// each verifier-dialect knob in isolation, so a finding's Gate names
// exactly the dialect that makes a preset reject it. The pass is for
// classlint's diagnostic surface; the definite accept/reject oracle
// (verdict.go) runs the dataflow directly under each preset's real
// policy and does not consult these diagnostics. It is therefore not
// part of DefaultAnalyzers — cmd/classlint appends it explicitly.
//
// Environment-sensitive checks (hierarchy joins, assignability,
// throwability) use the JRE8 library as the representative
// environment; per-release splits are the crosscheck harness's
// territory, not a lint concern.
var DataflowAnalyzer = &Analyzer{
	Name: "dataflow",
	Doc:  "abstract-interpretation bytecode verification (JVMS §4.10 type-state dataflow)",
	Run:  runDataflow,
}

// Sub-check ordinals within a method's dataflow band (stagePost),
// placed after the stackmap band.
const (
	subDataflowBase = 32 + iota
	subDataflowUninit
	subDataflowRefAssign
	subDataflowShape
)

// entryMethod reports whether lazy-verification presets still verify m
// during the startup pipeline: the observable main, or a method named
// <clinit> (verified when the class initializer first runs).
func entryMethod(f *classfile.File, m *classfile.Member) bool {
	name := m.Name(f.Pool)
	if name == "<clinit>" {
		return true
	}
	return name == "main" && m.Descriptor(f.Pool) == "([Ljava/lang/String;)V"
}

func runDataflow(p *Pass) {
	env := rtlib.Shared(rtlib.JRE8)
	// The baseline policy runs only the rules every verifier dialect
	// shares: no dialect knobs, no eager resolution (missing catch
	// types are a resolution finding, not a verification one), and no
	// jsr/ret ban (the code pass reports that with its own gate).
	base := jvm.Policy{}
	dialects := []struct {
		sub     int
		rule    string
		dialect VerifyDialect
		set     func(*jvm.Policy)
	}{
		{subDataflowUninit, "verify-uninit-merge", DialectUninitMerge,
			func(pl *jvm.Policy) { pl.VerifyUninitMerge = true }},
		{subDataflowRefAssign, "verify-ref-assignability", DialectRefAssign,
			func(pl *jvm.Policy) { pl.VerifyRefAssignability = true }},
		{subDataflowShape, "verify-stack-shape", DialectStrictShape,
			func(pl *jvm.Policy) { pl.VerifyStrictStackShape = true }},
	}

	for i, m := range p.File.Methods {
		if m.Code() == nil {
			continue
		}
		label := p.MethodLabel(m)
		entry := entryMethod(p.File, m)
		diag := func(sub int, rule string, out *jvm.Outcome, dialect VerifyDialect) {
			p.report(Diagnostic{
				Rule: rule, Severity: SevError,
				Phase: jvm.PhaseLinking, Err: out.Error, JVMS: "§4.10",
				Message: out.Message, Method: label,
				Gate: Gate{Kind: GateVerify, Dialect: dialect, Entry: entry},
				Seq:  seqOf(stagePost, i, sub),
			})
		}
		if out := dataflow.VerifyMethod(p.File, m, &base, env); out != nil {
			diag(subDataflowBase, "verify-reject", out, DialectInference)
			continue
		}
		for _, d := range dialects {
			pl := base
			d.set(&pl)
			if out := dataflow.VerifyMethod(p.File, m, &pl, env); out != nil {
				diag(d.sub, d.rule, out, d.dialect)
			}
		}
	}
}
