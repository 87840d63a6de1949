// Command compare judges a change against its parent commit from
// classfuzzbench result files (classfuzzbench -out FILE).
//
// Run the benchmark at least ten times on each commit, alternating
// which runs first, with the same seed for the i-th parent and the i-th
// change run. Then, from bench/ (where go -C bench also runs it):
//
//	go run ./compare -parent '../runs/parent-*.json' -change '../runs/change-*.json'
//
// Files pair up in name order. Pairs whose invariants or output checks
// differ are refused. For each workload compare prints one row with a
// verdict per end-to-end metric of BENCHMARK.json: gain, within-bound,
// regression or unresolved. It exits 1 when any metric regressed.
//
//	go run ./compare -summary '../runs/parent-*.json'
//
// prints the median, quartiles and spread of every metric instead (the
// form of bench/baseline.json).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"repro/bench/internal/result"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchmark := fs.String("benchmark", "../BENCHMARK.json", "benchmark definition holding the end-to-end bounds")
	parentGlob := fs.String("parent", "", "glob of the parent commit's result files")
	changeGlob := fs.String("change", "", "glob of the change's result files")
	summaryGlob := fs.String("summary", "", "glob of one side's result files to summarise instead of comparing")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *summaryGlob != "" {
		files, err := load(*summaryGlob)
		if err != nil {
			fmt.Fprintf(stderr, "compare: %v\n", err)
			return 2
		}
		blob, err := json.MarshalIndent(summarize(files), "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "compare: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "%s\n", blob)
		return 0
	}
	if *parentGlob == "" || *changeGlob == "" {
		fmt.Fprintln(stderr, "compare: need -parent and -change (or -summary)")
		return 2
	}
	bounds, err := readBounds(*benchmark)
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	parent, err := load(*parentGlob)
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	change, err := load(*changeGlob)
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	rows, err := compareRuns(bounds, parent, change)
	if err != nil {
		fmt.Fprintf(stderr, "compare: refusing to compare: %v\n", err)
		return 2
	}
	fmt.Fprint(stdout, render(rows))
	for _, r := range rows {
		for _, c := range r.Cells {
			if c.Verdict == verdictRegression {
				return 1
			}
		}
	}
	return 0
}

// load reads the result files a glob names, in name order.
func load(glob string) ([]*result.File, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files match %q", glob)
	}
	sort.Strings(paths)
	var files []*result.File
	for _, p := range paths {
		f, err := result.Read(p)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}
