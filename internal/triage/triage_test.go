package triage

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/difftest"
	"repro/internal/jimple"
)

func bytesOf(t *testing.T, c *jimple.Class) []byte {
	t.Helper()
	f, err := jimple.Lower(c)
	if err != nil {
		t.Fatal(err)
	}
	data, err := f.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// triageEach evaluates classes once on the standard lineup, checked,
// and triages each from its kept vector and mismatches.
func triageEach(classes ...[]byte) []*Report {
	sum := difftest.NewStandardRunner().Evaluate(classes, difftest.Options{Checked: true})
	tr := New()
	reps := make([]*Report, len(classes))
	for i, data := range classes {
		reps[i] = tr.Triage(data, sum.Vectors[i], sum.Mismatches[i])
	}
	return reps
}

func TestNotDiscrepant(t *testing.T) {
	c := jimple.NewClass("TOk")
	c.AddDefaultInit()
	c.AddStandardMain("ok")
	r := triageEach(bytesOf(t, c))[0]
	if r.Verdict != NotDiscrepant {
		t.Errorf("verdict = %s, want not-discrepant (%s)", r.Verdict, r.Key())
	}
}

func TestCompatibilityVerdictForEnumEditor(t *testing.T) {
	c := jimple.NewClass("TEnumEd")
	c.Super = "com/sun/beans/editors/EnumEditor"
	c.AddStandardMain("ok")
	r := triageEach(bytesOf(t, c))[0]
	if r.Verdict != CompatibilityIssue {
		t.Errorf("verdict = %s (%s), want compatibility", r.Verdict, r.Key())
	}
	if len(r.Shared) == 0 {
		t.Error("shared-environment vectors missing")
	}
}

func TestDefectVerdictForFigure2(t *testing.T) {
	es := catalog.Entries()
	// D01 is Figure 2's abstract <clinit>.
	data, err := es[0].Data()
	if err != nil {
		t.Fatal(err)
	}
	r := triageEach(data)[0]
	if r.Verdict != DefectIndicative {
		t.Errorf("verdict = %s (%s), want defect-indicative; notes: %v", r.Verdict, r.Key(), r.Notes)
	}
}

func TestCatalogTriageAgreement(t *testing.T) {
	// Run the triager over the full 62-report catalog and compare its
	// automatic verdicts with the curated classifications. Heuristics
	// cannot match the paper's manual analysis perfectly; require strong
	// agreement on compatibility detection and a solid majority overall.
	entries := catalog.Entries()
	var classes [][]byte
	for _, e := range entries {
		data, err := e.Data()
		if err != nil {
			t.Fatal(err)
		}
		classes = append(classes, data)
	}
	reps := triageEach(classes...)
	agree, total := 0, 0
	compatRight, compatTotal := 0, 0
	implAsCompat := 0
	for i, e := range entries {
		r := reps[i]
		total++
		want := map[catalog.Classification]Verdict{
			catalog.DefectIndicative: DefectIndicative,
			catalog.PolicyDifference: PolicyDifference,
			catalog.Compatibility:    CompatibilityIssue,
		}[e.Classification]
		if r.Verdict == want {
			agree++
		}
		if e.Classification == catalog.Compatibility {
			compatTotal++
			if r.Verdict == CompatibilityIssue {
				compatRight++
			}
		} else if r.Verdict == CompatibilityIssue {
			// The sun.*-accessibility entries are genuinely
			// environment-sensitive (the Java 9 module system is a library
			// property here); the automated triager may call them
			// compatibility where the paper filed them under accessibility
			// policy. Tolerate a couple of those, nothing more.
			implAsCompat++
			t.Logf("%s triaged as compatibility (curated: %s)", e.ID, e.Classification)
		}
	}
	t.Logf("triage agreement: %d/%d overall, %d/%d compatibility", agree, total, compatRight, compatTotal)
	if compatRight != compatTotal {
		t.Errorf("compatibility detection missed entries: %d/%d", compatRight, compatTotal)
	}
	if implAsCompat > 3 {
		t.Errorf("%d implementation-caused entries triaged as compatibility", implAsCompat)
	}
	if agree*100 < total*55 {
		t.Errorf("overall agreement %d/%d below 55%%", agree, total)
	}
}
