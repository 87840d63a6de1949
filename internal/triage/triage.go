// Package triage automates the discrepancy analysis the paper performed
// manually (§2.3, §3.3): given a discrepancy-triggering classfile, it
// separates *compatibility* discrepancies from *implementation-caused*
// ones by re-running the class with every VM bound to the same library
// release (Definition 2: a discrepancy under e1 = e2 indicates a JVM
// defect or policy difference, not an environment mismatch), then
// refines the implementation-caused ones with error-class heuristics
// mirroring the paper's defect-vs-checking-strategy discussion.
package triage

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/difftest"
	"repro/internal/jvm"
	"repro/internal/rtlib"
)

// Verdict is the triage outcome for one classfile.
type Verdict string

// Triage verdicts.
const (
	// NotDiscrepant: the five VMs agree; nothing to triage.
	NotDiscrepant Verdict = "not-discrepant"
	// CompatibilityIssue: the discrepancy disappears once all VMs share
	// one library release — fix the environment, not a JVM.
	CompatibilityIssue Verdict = "compatibility"
	// DefectIndicative: the discrepancy persists under a shared
	// environment and involves an outcome pattern the paper associates
	// with implementation defects (a lenient VM accepting what the
	// specification forbids, or a strict VM rejecting what it allows).
	DefectIndicative Verdict = "defect-indicative"
	// PolicyDifference: persists under a shared environment but matches
	// the latitude the specification grants (verification timing,
	// resolution eagerness, accessibility checking).
	PolicyDifference Verdict = "policy-difference"
)

// Report is the full triage result for one classfile.
type Report struct {
	Verdict Verdict
	// Standard is the outcome vector under per-VM environments.
	Standard difftest.Vector
	// Shared maps release names to vectors under that shared release.
	Shared map[string]difftest.Vector
	// Notes explains the decision, one line per signal.
	Notes []string
	// Oracle holds static-oracle disagreements with the standard-lineup
	// outcomes (sanitizer: a non-empty list means this reproduction's
	// oracle or a VM simulation is wrong, so the triage verdict itself
	// is suspect).
	Oracle []analysis.Mismatch
}

// Key returns the standard-environment vector key.
func (r *Report) Key() string { return r.Standard.Key() }

// Triager owns the shared-environment lineups Definition 2 re-runs a
// discrepancy on. The standard-lineup run is the caller's: one
// difftest Evaluate already produced each class's vector and oracle
// mismatches, so triage never runs a class on that lineup again.
type Triager struct {
	shared map[string]*difftest.Runner
}

// New builds a triager with a shared-environment lineup for every
// release.
func New() *Triager {
	return &Triager{
		shared: map[string]*difftest.Runner{
			"JRE7": difftest.NewSharedEnvRunner(rtlib.JRE7),
			"JRE8": difftest.NewSharedEnvRunner(rtlib.JRE8),
		},
	}
}

// Triage classifies one classfile, given its standard-lineup vector and
// the static-oracle mismatches of that run (a difftest Summary's
// Vectors[i] and, when checked, Mismatches[i]).
func (t *Triager) Triage(data []byte, std difftest.Vector, oracle []analysis.Mismatch) *Report {
	rep := &Report{Standard: std, Oracle: oracle, Shared: map[string]difftest.Vector{}}
	for _, m := range oracle {
		rep.Notes = append(rep.Notes, "oracle mismatch: "+m.String())
	}
	if !rep.Standard.Discrepant() {
		rep.Verdict = NotDiscrepant
		rep.Notes = append(rep.Notes, "all five VMs agree under their own environments")
		return rep
	}

	// Definition 2: re-run under shared environments. When some shared
	// release makes the five VMs agree, the split was environmental —
	// it can be eliminated by enforcing the VMs against that release
	// rather than by fixing any VM.
	var constantUnder []string
	releases := make([]string, 0, len(t.shared))
	for rel := range t.shared {
		releases = append(releases, rel)
	}
	sort.Strings(releases)
	for _, rel := range releases {
		v := t.shared[rel].Run(data)
		rep.Shared[rel] = v
		if !v.Discrepant() {
			constantUnder = append(constantUnder, rel)
		}
	}
	if len(constantUnder) > 0 {
		rep.Verdict = CompatibilityIssue
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("vector %s becomes constant when every VM shares the %s library",
				rep.Standard.Key(), strings.Join(constantUnder, "/")))
		return rep
	}
	rep.Notes = append(rep.Notes, "discrepancy persists under every shared library release (Definition 2: implementation-caused)")

	// Heuristic refinement on the persisting vector.
	rep.Verdict = classifyImplementation(rep, t.shared[releases[0]].Names())
	return rep
}

// classifyImplementation applies the paper's defect-vs-policy heuristics.
func classifyImplementation(rep *Report, names []string) Verdict {
	v := rep.Standard

	// Signal 1: a single lenient VM invokes a class every other VM
	// rejects with a format error — the paper's "obvious JVM defects"
	// pattern (GIJ accepting illegal constructs, J9's <clinit> bug).
	invoked, rejectedFormat := 0, 0
	invoker := -1
	for i, o := range v.Outcomes {
		if o.OK() {
			invoked++
			invoker = i
		} else if o.Error == jvm.ErrClassFormat || o.Error == jvm.ErrVerify {
			rejectedFormat++
		}
	}
	if invoked == 1 && rejectedFormat >= 3 {
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("only %s accepts a class the others reject as malformed", names[invoker]))
		return DefectIndicative
	}
	if invoked == 4 && rejectedFormat == 1 {
		for i, o := range v.Outcomes {
			if !o.OK() {
				rep.Notes = append(rep.Notes,
					fmt.Sprintf("only %s rejects (%s) a class the others run", names[i], o.Error))
			}
		}
		return DefectIndicative
	}

	// Signal 2: same error class, different phases — the timing latitude
	// the specification grants (lazy vs eager verification/resolution).
	errs := map[string]bool{}
	var rejectErr string
	for _, o := range v.Outcomes {
		if !o.OK() {
			errs[o.Error] = true
			rejectErr = o.Error
		}
	}
	phases := map[int]bool{}
	for _, c := range v.Codes {
		phases[c] = true
	}
	if len(errs) == 1 && len(phases) > 1 {
		rep.Notes = append(rep.Notes,
			fmt.Sprintf("every rejecting VM throws %s, only the phase differs (verification/resolution timing)", rejectErr))
		return PolicyDifference
	}

	// Signal 3: a strictness split where some VMs run the class and the
	// rejecting side uses access/linkage errors — checking-policy
	// differences (throws-clause checks, module accessibility, eager
	// resolution).
	policyErrs := 0
	for _, o := range v.Outcomes {
		switch o.Error {
		case jvm.ErrIllegalAccess, jvm.ErrNoClassDef, jvm.ErrNoSuchMethod,
			jvm.ErrNoSuchField, jvm.ErrIncompatibleChange:
			policyErrs++
		}
	}
	if policyErrs > 0 && invoked > 0 {
		rep.Notes = append(rep.Notes,
			"rejecting VMs use linkage/access errors while others run the class (checking-policy split)")
		return PolicyDifference
	}

	// Signal 4: mixed error classes at the same phase — strict/lenient
	// verification dialect differences.
	rep.Notes = append(rep.Notes, "mixed error classes across VMs (verification dialect difference)")
	if invoked >= 1 && strings.Contains(v.Key(), "0") {
		return DefectIndicative
	}
	return PolicyDifference
}
