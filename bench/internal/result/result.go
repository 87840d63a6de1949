// Package result is the on-disk form of one classfuzzbench run: what
// the benchmark writes with -out and what bench/compare reads back.
package result

import (
	"encoding/json"
	"fmt"
	"os"
)

// Metric is one measured value. Base, when set, gives a ratio's
// numerator and denominator ("4086 / 204284"), so every ratio travels
// with what it was computed from.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Base  string  `json:"base,omitempty"`
}

// Workload is one workload's outcome within a run.
type Workload struct {
	Name string `json:"name"`
	// Correct is false when any output check failed.
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// Failures describes each failed check.
	Failures []string          `json:"failures,omitempty"`
	Metrics  map[string]Metric `json:"metrics"`
	// Invariants are outputs that must be identical across runs of one
	// seed and between a parent commit and a change.
	Invariants map[string]string `json:"invariants,omitempty"`
}

// Meta records the conditions a run was made under.
type Meta struct {
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
	Seed        int64  `json:"seed"`
	Scale       string `json:"scale"`
	Seconds     int    `json:"seconds"`
	Traced      bool   `json:"traced"`
}

// File is one run: its conditions and every workload it ran.
type File struct {
	Meta      Meta       `json:"meta"`
	Workloads []Workload `json:"workloads"`
}

// Read loads a result file.
func Read(path string) (*File, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(blob, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// Write stores a result file.
func (f *File) Write(path string) error {
	blob, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
