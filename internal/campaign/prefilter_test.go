package campaign

import (
	"bytes"
	"testing"

	"repro/internal/coverage"
	"repro/internal/jvm"
	"repro/internal/seedgen"
)

// TestStaticPrefilterPreservesSuite asserts the prefilter's contract:
// a fixed-seed classfuzz campaign with StaticPrefilter enabled produces
// the identical accepted test suite — same names, same bytes, same
// mutator statistics — while executing strictly fewer mutants on the
// reference VM. Both bands must contribute: load-doomed mutants reuse
// cached load-phase traces, and verify-doomed ones (load-clean classes
// the dataflow oracle proves the linker rejects) reuse full traces
// keyed by the name-masked content fingerprint.
func TestStaticPrefilterPreservesSuite(t *testing.T) {
	base := Config{
		Algorithm:  Classfuzz,
		Criterion:  coverage.STBR,
		Iterations: 600,
		Rand:       3,
		RefSpec:    jvm.HotSpot9(),
	}

	plain := base
	plain.Source = FlatSeeds(seedgen.Generate(seedgen.DefaultOptions(15, 3)))
	r1, err := Run(plain)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}

	filtered := base
	filtered.Source = FlatSeeds(seedgen.Generate(seedgen.DefaultOptions(15, 3)))
	filtered.StaticPrefilter = true
	r2, err := Run(filtered)
	if err != nil {
		t.Fatalf("prefiltered run: %v", err)
	}

	if r2.Prefilter == nil {
		t.Fatal("prefiltered run reported no stats")
	}
	pf := r2.Prefilter
	t.Logf("prefilter: checked=%d doomed=%d verify_doomed=%d skipped=%d executed=%d",
		pf.Checked, pf.Doomed, pf.VerifyDoomed, pf.Skipped, pf.Executed)
	if pf.VerifyDoomed == 0 {
		t.Errorf("verify band doomed no mutants (checked=%d doomed=%d)", pf.Checked, pf.Doomed)
	}
	if pf.VerifyDoomed >= pf.Doomed {
		t.Errorf("verify dooms (%d) must be a strict subset of dooms (%d): the load band stopped contributing",
			pf.VerifyDoomed, pf.Doomed)
	}

	// Identical accepted suite.
	if len(r1.Test) != len(r2.Test) {
		t.Fatalf("suite size diverged: plain %d, prefiltered %d", len(r1.Test), len(r2.Test))
	}
	for i := range r1.Test {
		if r1.Test[i].Name != r2.Test[i].Name {
			t.Fatalf("suite[%d] name diverged: %q vs %q", i, r1.Test[i].Name, r2.Test[i].Name)
		}
		if !bytes.Equal(r1.Test[i].Data, r2.Test[i].Data) {
			t.Fatalf("suite[%d] (%s) bytes diverged", i, r1.Test[i].Name)
		}
	}
	if len(r1.MutatorStats) != len(r2.MutatorStats) {
		t.Fatalf("mutator stat lengths diverged")
	}
	for i := range r1.MutatorStats {
		a, b := r1.MutatorStats[i], r2.MutatorStats[i]
		if a.Selected != b.Selected || a.Success != b.Success {
			t.Fatalf("mutator %s stats diverged: %d/%d vs %d/%d",
				a.Name, a.Success, a.Selected, b.Success, b.Selected)
		}
	}

	// Strictly fewer reference-VM executions: the plain run executes
	// every generated mutant; the prefiltered run executes all but the
	// skipped ones.
	execPlain := len(r1.Gen)
	execFiltered := len(r2.Gen) - pf.Skipped
	if pf.Skipped == 0 {
		t.Fatalf("prefilter skipped no executions (checked=%d doomed=%d)", pf.Checked, pf.Doomed)
	}
	if execFiltered >= execPlain {
		t.Fatalf("prefiltered run executed %d mutants, plain %d — expected strictly fewer", execFiltered, execPlain)
	}
}
