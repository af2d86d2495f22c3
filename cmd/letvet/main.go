// Command letvet runs the letvet static-analysis suite (internal/analysis)
// over the module: determinism of MILP construction (detrange), exact-time
// discipline (ticktime), float-comparison hygiene (floateq), seeded
// randomness (globalrand), error handling in the user-facing layers
// (errdrop), interprocedural determinism taint (nondetflow), concurrency
// discipline for captured writes (sharedwrite), and waiver rot
// (stalewaiver).
//
// Usage:
//
//	go run ./cmd/letvet ./...            # analyze the whole module
//	go run ./cmd/letvet -tests ./...     # include _test.go files (CI mode)
//	go run ./cmd/letvet -json ./...      # findings as a JSON report
//	go run ./cmd/letvet -list            # print the analyzers
//
// letvet exits 1 when it reports findings, so it can gate CI. Waivers:
// a `//letvet:<tag> <justification>` comment (tags: ordered, floateq,
// nondet, sharedwrite) on the flagged line or the line above it suppresses
// the finding; the stalewaiver analyzer flags waivers that stop
// suppressing anything, so they cannot rot in place.
//
// CI plumbing: -o FILE writes the JSON report to FILE regardless of the
// stdout format, -github emits `::error file=..` annotations so findings
// land on the pull-request diff. The suite is enforced at zero findings:
// every finding fails the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"letdma/internal/analysis"
)

// report is the schema of the -json output and of the -o file.
type report struct {
	Findings []finding `json:"findings"`
}

// finding is one diagnostic with a module-relative, slash-separated path.
type finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("list", false, "print the analyzers and exit")
	tests := flag.Bool("tests", false, "also analyze _test.go files (external test packages included)")
	jsonOut := flag.Bool("json", false, "print the findings as a JSON report instead of text lines")
	outFile := flag.String("o", "", "write the JSON report to this file as well")
	github := flag.Bool("github", false, "emit GitHub Actions ::error annotations for the findings")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: letvet [flags] [package patterns, default ./...]")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range analysis.Suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.LoadOpts(".", analysis.Options{Tests: *tests}, patterns...)
	if err != nil {
		fatalf("%v", err)
	}
	diags, err := analysis.RunAnalyzers(pkgs, analysis.Suite, false)
	if err != nil {
		fatalf("%v", err)
	}
	findings := toFindings(diags)
	if *outFile != "" {
		if err := writeReport(*outFile, findings); err != nil {
			fatalf("%v", err)
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report{Findings: findings}); err != nil {
			fatalf("%v", err)
		}
	} else {
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s: %s\n", f.File, f.Line, f.Column, f.Analyzer, f.Message)
		}
	}
	if *github {
		for _, f := range findings {
			// The annotation message must stay on one line; findings are.
			fmt.Printf("::error file=%s,line=%d,col=%d,title=letvet/%s::%s\n",
				f.File, f.Line, f.Column, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "letvet: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "letvet: "+format+"\n", args...)
	os.Exit(2)
}

// toFindings converts diagnostics to report findings with stable
// module-relative slash paths.
func toFindings(diags []analysis.Diagnostic) []finding {
	cwd, _ := os.Getwd()
	out := make([]finding, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = rel
			}
		}
		out = append(out, finding{
			Analyzer: d.Analyzer,
			File:     filepath.ToSlash(file),
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Message:  d.Message,
		})
	}
	return out
}

func writeReport(path string, findings []finding) error {
	if findings == nil {
		findings = []finding{}
	}
	data, err := json.MarshalIndent(report{Findings: findings}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
