package difftest

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/jvm"
)

// TestVerifyMemoSummaryEquivalence pins the lineup-level contract of
// the method-verification memo: Summaries — vectors, histogram,
// discrepancy samples, everything — are field-identical whether the
// lineup runs with no memo, a cold one, or one warmed by an identical
// prior pass, sequentially and at every worker count of the sweep.
func TestVerifyMemoSummaryEquivalence(t *testing.T) {
	classes := mixedCorpus(t)

	off := NewStandardRunner()
	off.VerifyMemo = nil
	jvm.ShareVerifyMemo(off.VMs, nil)
	want := off.Evaluate(classes, Options{})

	check := func(name string, got *Summary) {
		t.Helper()
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s summary differs from memo-off reference:\nwant %+v\ngot  %+v", name, want, got)
		}
	}

	// Default runner: private memo, cold then warm.
	r := NewStandardRunner()
	check("default cold", r.Evaluate(classes, Options{}))
	check("default warm", r.Evaluate(classes, Options{}))

	// Warm shared memo across the worker sweep.
	warm := jvm.NewVerifyMemo()
	for _, w := range testWorkerCounts() {
		r := NewStandardRunner()
		r.VerifyMemo = warm
		jvm.ShareVerifyMemo(r.VMs, warm)
		check(fmt.Sprintf("shared workers=%d", w), r.Evaluate(classes, Options{Workers: w}))
	}
	if warm.Len() == 0 {
		t.Fatal("shared memo stayed empty — the sweep never exercised it")
	}
}
