package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/coverage"
	"repro/internal/difftest"
)

func TestSaveAndLoadCorpus(t *testing.T) {
	res := runCampaign(t, Classfuzz, coverage.STBR, 200)
	dir := t.TempDir()
	if err := res.Save(dir); err != nil {
		t.Fatal(err)
	}

	man, classes, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
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
		if mc.Stats() != res.Test[i].Stats {
			t.Errorf("class %s stats lost: %v vs %v", mc.Name, mc.Stats(), res.Test[i].Stats)
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

func TestLoadCorpusErrors(t *testing.T) {
	if _, _, err := LoadCorpus(t.TempDir()); err == nil {
		t.Error("missing manifest must fail")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCorpus(dir); err == nil {
		t.Error("corrupt manifest must fail")
	}
	// Manifest referencing a missing classfile.
	man := Manifest{Classes: []ManifestClass{{Name: "X", File: "X.class"}}}
	blob, _ := json.Marshal(man)
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCorpus(dir); err == nil {
		t.Error("missing classfile must fail")
	}
}
