package difftest

import (
	"testing"
)

// TestEvaluateCheckedUnparseable asserts unparseable bytes yield no
// oracle claims (all VMs still report their own loading rejection).
func TestEvaluateCheckedUnparseable(t *testing.T) {
	sum := NewStandardRunner().Evaluate([][]byte{{0xCA, 0xFE, 0xBA}}, Options{Checked: true})
	if len(sum.Mismatches[0]) != 0 {
		t.Errorf("oracle claimed something about unparseable bytes: %v", sum.Mismatches[0])
	}
	for i, c := range sum.Vectors[0].Codes {
		if c != 1 {
			t.Errorf("VM %d: phase code %d for unparseable bytes, want loading (1)", i, c)
		}
	}
}
