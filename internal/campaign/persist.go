package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// Manifest is the on-disk description of a saved campaign: the corpus
// directory layout the classfuzz CLI writes, so a test suite generated
// once can be re-used for differential testing sessions later (the
// paper's TestClasses artifacts).
type Manifest struct {
	Algorithm  Algorithm         `json:"algorithm"`
	Criterion  string            `json:"criterion"`
	Iterations int               `json:"iterations"`
	Generated  int               `json:"generated"`
	Accepted   int               `json:"accepted"`
	ElapsedMS  int64             `json:"elapsed_ms"`
	Classes    []ManifestClass   `json:"classes"`
	Mutators   []ManifestMutator `json:"mutators,omitempty"`
}

// ManifestClass records one accepted test classfile.
type ManifestClass struct {
	Name     string `json:"name"`
	File     string `json:"file"`
	Iter     int    `json:"iter"`
	Mutator  string `json:"mutator"`
	Stmts    int    `json:"stmts"`
	Branches int    `json:"branches"`
}

// ManifestMutator records one mutator's campaign statistics.
type ManifestMutator struct {
	Name     string  `json:"name"`
	Selected int     `json:"selected"`
	Success  int     `json:"success"`
	Rate     float64 `json:"rate"`
}

// Save writes the accepted suite to dir: one .class file per test plus
// manifest.json.
func (r *Result) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	man := Manifest{
		Algorithm:  r.Algorithm,
		Criterion:  r.Criterion.String(),
		Iterations: r.Iterations,
		Generated:  len(r.Gen),
		Accepted:   len(r.Test),
		ElapsedMS:  r.Elapsed.Milliseconds(),
	}
	for _, g := range r.Test {
		file := g.Name + ".class"
		if err := os.WriteFile(filepath.Join(dir, file), g.Data, 0o644); err != nil {
			return err
		}
		mc := ManifestClass{
			Name:     g.Name,
			File:     file,
			Iter:     g.Iter,
			Stmts:    g.Stats.Stmts,
			Branches: g.Stats.Branches,
		}
		if g.MutatorID >= 0 && g.MutatorID < len(r.MutatorStats) {
			mc.Mutator = r.MutatorStats[g.MutatorID].Name
		}
		man.Classes = append(man.Classes, mc)
	}
	for _, st := range r.MutatorStats {
		if st.Selected == 0 {
			continue
		}
		man.Mutators = append(man.Mutators, ManifestMutator{
			Name: st.Name, Selected: st.Selected, Success: st.Success, Rate: st.Rate(),
		})
	}
	sort.Slice(man.Mutators, func(a, b int) bool {
		if man.Mutators[a].Rate != man.Mutators[b].Rate {
			return man.Mutators[a].Rate > man.Mutators[b].Rate
		}
		return man.Mutators[a].Name < man.Mutators[b].Name
	})
	blob, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "manifest.json"), blob, 0o644)
}
