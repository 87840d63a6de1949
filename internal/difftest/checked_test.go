package difftest

import (
	"testing"
)

// TestRunCheckedUnparseable asserts unparseable bytes yield no oracle
// claims (all VMs still report their own rejection vector).
func TestRunCheckedUnparseable(t *testing.T) {
	r := NewStandardRunner()
	v, mm := r.RunChecked([]byte{0xCA, 0xFE, 0xBA})
	if len(mm) != 0 {
		t.Errorf("oracle claimed something about unparseable bytes: %v", mm)
	}
	for i, o := range v.Outcomes {
		if o.OK() {
			t.Errorf("VM %d invoked unparseable bytes", i)
		}
	}
}
