// Command classlint runs the internal/analysis passes over classfiles
// and reports the diagnostics some VM preset would act on.
//
// Usage:
//
//	classlint [flags] [file.class | dir]...
//	classlint -gen N [-genseed S]          # lint a generated seed corpus
//
// A diagnostic is "live" when it is an error some preset in the
// standard five-VM lineup enforces; live diagnostics fail the run.
// Warnings and policy-gated errors no preset enables are advisory and
// printed only with -all. The pass list is DefaultAnalyzers plus the
// dataflow verifier, so §4.10 verification findings (and the dialect
// gates that make individual presets reject them) appear alongside the
// format checks. The make lint target runs this over the seed corpus,
// which must be clean — only mutants may lint dirty.
//
// With -json the run emits a single JSON array — one object per input
// with its live and advisory diagnostics — instead of text; verdicts
// and exit codes are unchanged.
//
// Exit codes:
//
//	0  every input parsed and linted clean
//	1  some input was dirty (live diagnostics or unparseable), or an
//	   input could not be read or generated
//	2  usage error (no inputs)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/classfile"
	"repro/internal/jvm"
	"repro/internal/seedgen"
)

// jsonDiag is one diagnostic in -json output.
type jsonDiag struct {
	Analyzer string   `json:"analyzer"`
	Rule     string   `json:"rule"`
	Severity string   `json:"severity"`
	Phase    string   `json:"phase"`
	Err      string   `json:"error,omitempty"`
	JVMS     string   `json:"jvms,omitempty"`
	Method   string   `json:"method,omitempty"`
	Message  string   `json:"message"`
	Presets  []string `json:"presets,omitempty"`
}

// jsonEntry is one linted input in -json output.
type jsonEntry struct {
	Input    string `json:"input"`
	Clean    bool   `json:"clean"`
	ParseErr string `json:"parse_error,omitempty"`
	// Refused is set for a class over jvm.MaxVerifyFootprint, which
	// is not linted.
	Refused  string     `json:"refused,omitempty"`
	Live     []jsonDiag `json:"live,omitempty"`
	Advisory []jsonDiag `json:"advisory,omitempty"`
}

func main() {
	genCount := flag.Int("gen", 0, "lint a freshly generated seed corpus of this size instead of files")
	genSeed := flag.Int64("genseed", 1, "RNG seed for -gen")
	all := flag.Bool("all", false, "also print advisory diagnostics (warnings and errors no preset enforces)")
	quiet := flag.Bool("q", false, "print only the per-input verdict lines")
	jsonOut := flag.Bool("json", false, "emit a JSON array of per-input diagnostics instead of text")
	flag.Parse()
	if *genCount == 0 && flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: classlint [-all] [-q] [-json] [file.class | dir]...  |  classlint -gen N [-genseed S]")
		os.Exit(2)
	}

	specs := jvm.StandardFive()
	analyzers := append(analysis.DefaultAnalyzers(), analysis.DataflowAnalyzer)
	dirty := 0
	var entries []jsonEntry
	lintOne := func(label string, f *classfile.File) {
		live, advisory := split(analysis.Run(f, analyzers), specs)
		if len(live) > 0 {
			dirty++
		}
		if *jsonOut {
			e := jsonEntry{Input: label, Clean: len(live) == 0}
			for _, d := range live {
				e.Live = append(e.Live, toJSON(d, specs))
			}
			for _, d := range advisory {
				e.Advisory = append(e.Advisory, toJSON(d, specs))
			}
			entries = append(entries, e)
			return
		}
		if len(live) > 0 {
			fmt.Printf("%s: %d live diagnostic(s)\n", label, len(live))
		} else if *all && len(advisory) > 0 {
			fmt.Printf("%s: clean (%d advisory)\n", label, len(advisory))
		} else if !*quiet {
			fmt.Printf("%s: clean\n", label)
		}
		if *quiet {
			return
		}
		for _, d := range live {
			fmt.Printf("  %s [presets: %s]\n", d, strings.Join(enforcers(d, specs), ","))
		}
		if *all {
			for _, d := range advisory {
				fmt.Printf("  advisory: %s\n", d)
			}
		}
	}

	total := 0
	if *genCount > 0 {
		files, err := seedgen.GenerateFiles(seedgen.DefaultOptions(*genCount, *genSeed))
		if err != nil {
			fmt.Fprintf(os.Stderr, "classlint: %v\n", err)
			os.Exit(1)
		}
		total = len(files)
		for i, data := range files {
			f, err := classfile.Parse(data)
			if err != nil {
				fmt.Fprintf(os.Stderr, "seed[%d]: parse: %v\n", i, err)
				os.Exit(1)
			}
			lintOne(fmt.Sprintf("seed[%d] %s", i, f.Name()), f)
		}
	} else {
		paths := expand(flag.Args())
		total = len(paths)
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
				os.Exit(1)
			}
			f, err := classfile.Parse(data)
			if err != nil {
				dirty++
				if *jsonOut {
					entries = append(entries, jsonEntry{Input: path, ParseErr: err.Error()})
				} else {
					fmt.Printf("%s: unparseable: %v\n", path, err)
				}
				continue
			}
			if err := jvm.CheckFootprint(f); err != nil {
				dirty++
				if *jsonOut {
					entries = append(entries, jsonEntry{Input: path, Refused: err.Error()})
				} else {
					fmt.Printf("%s: refused: %v\n", path, err)
				}
				continue
			}
			lintOne(path, f)
		}
	}
	if *jsonOut {
		out, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "classlint: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
	} else if *genCount > 0 {
		fmt.Printf("linted %d generated seeds, %d dirty\n", total, dirty)
	} else {
		fmt.Printf("linted %d file(s), %d dirty\n", total, dirty)
	}
	if dirty > 0 {
		os.Exit(1)
	}
}

// toJSON renders one diagnostic for -json output.
func toJSON(d analysis.Diagnostic, specs []jvm.Spec) jsonDiag {
	return jsonDiag{
		Analyzer: d.Analyzer,
		Rule:     d.Rule,
		Severity: d.Severity.String(),
		Phase:    d.Phase.String(),
		Err:      d.Err,
		JVMS:     d.JVMS,
		Method:   d.Method,
		Message:  d.Message,
		Presets:  enforcers(d, specs),
	}
}

// split partitions diagnostics into live (an error some standard preset
// enforces) and advisory (everything else).
func split(diags []analysis.Diagnostic, specs []jvm.Spec) (live, advisory []analysis.Diagnostic) {
	for _, d := range diags {
		if d.Severity == analysis.SevError && len(enforcers(d, specs)) > 0 {
			live = append(live, d)
		} else {
			advisory = append(advisory, d)
		}
	}
	return
}

// enforcers names the presets whose policy enables the diagnostic's gate.
func enforcers(d analysis.Diagnostic, specs []jvm.Spec) []string {
	var out []string
	for i := range specs {
		if d.Gate.Enabled(&specs[i].Policy) {
			out = append(out, specs[i].Name)
		}
	}
	return out
}

// expand resolves directory arguments to the .class files inside them.
func expand(args []string) []string {
	var out []string
	for _, a := range args {
		st, err := os.Stat(a)
		if err != nil || !st.IsDir() {
			out = append(out, a)
			continue
		}
		filepath.Walk(a, func(p string, info os.FileInfo, err error) error {
			if err == nil && !info.IsDir() && strings.HasSuffix(p, ".class") {
				out = append(out, p)
			}
			return nil
		})
	}
	return out
}
