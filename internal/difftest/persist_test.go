package difftest

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/seedgen"
)

// TestMemoExportImportRoundTrip fills a memo through a real evaluation,
// round-trips it through JSON, imports into a fresh memo against a
// fresh lineup, and checks (1) a warm evaluation against the imported
// memo produces the identical Summary, (2) with zero VM executions.
func TestMemoExportImportRoundTrip(t *testing.T) {
	classes, err := seedgen.GenerateFiles(seedgen.DefaultOptions(40, 11))
	if err != nil {
		t.Fatal(err)
	}

	cold := NewStandardRunner()
	memo := NewOutcomeMemo()
	cold.Memo = memo
	want := cold.Evaluate(classes, Options{})

	blob, err := json.Marshal(memo.Export())
	if err != nil {
		t.Fatalf("marshal export: %v", err)
	}
	var exp MemoExport
	if err := json.Unmarshal(blob, &exp); err != nil {
		t.Fatalf("unmarshal export: %v", err)
	}

	warm := NewStandardRunner()
	fresh := NewOutcomeMemo()
	n, err := fresh.Import(&exp, warm.VMs)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if wantN := len(classes) * len(warm.VMs); n != wantN {
		t.Fatalf("imported %d outcomes, want %d", n, wantN)
	}
	warm.Memo = fresh
	got := warm.Evaluate(classes, Options{})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("summary after memo import diverges from the original evaluation")
	}
	stats := warm.Stats()
	if runs := stats.Counter(MetricVMRuns); runs != 0 {
		t.Fatalf("imported memo still ran %d VM executions", runs)
	}
}

// TestMemoExportDeterministic: two exports of the same memo serialize
// byte-identically (checkpoint files must diff cleanly).
func TestMemoExportDeterministic(t *testing.T) {
	classes, err := seedgen.GenerateFiles(seedgen.DefaultOptions(25, 7))
	if err != nil {
		t.Fatal(err)
	}
	r := NewStandardRunner()
	memo := NewOutcomeMemo()
	r.Memo = memo
	r.Evaluate(classes, Options{})
	a, _ := json.Marshal(memo.Export())
	b, _ := json.Marshal(memo.Export())
	if !bytes.Equal(a, b) {
		t.Fatal("memo export is not deterministic")
	}
}

// TestMemoImportDropsUnknownIdents: outcomes recorded under a VM
// identity absent from the importing lineup are dropped, not
// misattributed.
func TestMemoImportDropsUnknownIdents(t *testing.T) {
	classes, err := seedgen.GenerateFiles(seedgen.DefaultOptions(5, 3))
	if err != nil {
		t.Fatal(err)
	}
	r := NewStandardRunner()
	memo := NewOutcomeMemo()
	r.Memo = memo
	r.Evaluate(classes, Options{})
	exp := memo.Export()
	for i := range exp.Classes {
		for j := range exp.Classes[i].Outcomes {
			exp.Classes[i].Outcomes[j].Sig ^= 0xdead // simulate policy drift
		}
	}
	fresh := NewOutcomeMemo()
	n, err := fresh.Import(exp, NewStandardRunner().VMs)
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("adopted %d outcomes under drifted identities", n)
	}

	// Version mismatch is refused outright.
	exp2 := memo.Export()
	exp2.Version++
	if _, err := fresh.Import(exp2, NewStandardRunner().VMs); err == nil {
		t.Fatal("version mismatch accepted")
	}
}
