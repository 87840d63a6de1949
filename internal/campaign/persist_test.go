package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/coverage"
	"repro/internal/difftest"
)

// TestSaveAndLoadCorpus: Save writes manifest.json and one .class file
// per accepted test; read back, they describe the campaign and drive
// differential testing like the campaign's own bytes.
func TestSaveAndLoadCorpus(t *testing.T) {
	res := runCampaign(t, Classfuzz, coverage.STBR, 200)
	dir := t.TempDir()
	if err := res.Save(dir); err != nil {
		t.Fatal(err)
	}

	blob, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man Manifest
	if err := json.Unmarshal(blob, &man); err != nil {
		t.Fatal(err)
	}
	var classes [][]byte
	for _, mc := range man.Classes {
		data, err := os.ReadFile(filepath.Join(dir, mc.File))
		if err != nil {
			t.Fatal(err)
		}
		classes = append(classes, data)
	}
	if man.Algorithm != Classfuzz || man.Criterion != "[stbr]" {
		t.Errorf("manifest identity: %+v", man)
	}
	if man.Accepted != len(res.Test) || len(classes) != len(res.Test) {
		t.Errorf("accepted %d, loaded %d, campaign %d", man.Accepted, len(classes), len(res.Test))
	}
	if man.Generated != len(res.Gen) || man.Iterations != res.Iterations {
		t.Error("campaign counters lost")
	}
	for i, mc := range man.Classes {
		if string(classes[i]) != string(res.Test[i].Data) {
			t.Fatalf("class %s bytes differ after round trip", mc.Name)
		}
		if got := (coverage.Stats{Stmts: mc.Stmts, Branches: mc.Branches}); got != res.Test[i].Stats {
			t.Errorf("class %s stats lost: %v vs %v", mc.Name, got, res.Test[i].Stats)
		}
		if mc.Mutator == "" {
			t.Errorf("class %s lost its mutator attribution", mc.Name)
		}
	}
	// Mutator stats are sorted by rate and only include selected ones.
	for i := 1; i < len(man.Mutators); i++ {
		if man.Mutators[i].Rate > man.Mutators[i-1].Rate {
			t.Error("manifest mutators not sorted by rate")
		}
	}

	// A reloaded corpus must drive differential testing identically.
	runner := difftest.NewStandardRunner()
	var orig [][]byte
	for _, g := range res.Test {
		orig = append(orig, g.Data)
	}
	s1 := runner.Evaluate(orig, difftest.Options{})
	s2 := runner.Evaluate(classes, difftest.Options{})
	if s1.Count(difftest.Discrepancy) != s2.Count(difftest.Discrepancy) || s1.DistinctCount() != s2.DistinctCount() {
		t.Error("reloaded corpus behaves differently")
	}
}
