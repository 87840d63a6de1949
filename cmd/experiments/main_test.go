package main

import (
	"bytes"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// timingCols matches Table 4's two wall-clock columns, µs/gen and
// µs/test: the last two fields of each of its lines.
var timingCols = regexp.MustCompile(`\s+\S+\s+\S+$`)

// stripTimings drops Table 4's µs/gen and µs/test columns, the only
// part of the record that differs between two runs.
func stripTimings(record string) string {
	lines := strings.Split(record, "\n")
	inTable4 := false
	for i, line := range lines {
		switch {
		case strings.HasPrefix(line, "Table 4:"):
			inTable4 = true
		case line == "":
			inTable4 = false
		case inTable4:
			lines[i] = timingCols.ReplaceAllString(line, "")
		}
	}
	return strings.Join(lines, "\n")
}

// TestPaperScaleRecord regenerates `experiments -scale paper` in
// process and diffs it against the committed experiments_paper_scale.txt.
// A change that moves the record regenerates the file and says why.
func TestPaperScaleRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale record takes several seconds")
	}
	want, err := os.ReadFile("../../experiments_paper_scale.txt")
	if err != nil {
		t.Fatal(err)
	}
	scale := experiments.PaperScale()
	scale.Seed, scale.Workers, scale.SeedStrategy = 1, 1, "uniform"
	var got bytes.Buffer
	if err := write(&got, scale, "all"); err != nil {
		t.Fatal(err)
	}
	g, w := strings.Split(stripTimings(got.String()), "\n"), strings.Split(stripTimings(string(want)), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Errorf("line %d:\n got  %q\n want %q", i+1, gl, wl)
		}
	}
	if t.Failed() {
		t.Log("regenerate with: go run ./cmd/experiments -scale paper > experiments_paper_scale.txt")
	}
}

// TestWriteSessionStudies runs the two experiments that read Table 6's
// vectors on their own at the default scale.
func TestWriteSessionStudies(t *testing.T) {
	for run, header := range map[string]string{
		"prelim": "Preliminary study: ",
		"table7": "Table 7: Results on testing of JVMs using the ",
	} {
		var got bytes.Buffer
		if err := write(&got, experiments.DefaultScale(), run); err != nil {
			t.Fatalf("%s: %v", run, err)
		}
		if !strings.HasPrefix(got.String(), header) {
			t.Errorf("-run %s printed %q, want a line starting %q", run, got.String(), header)
		}
	}
}
