// Command sanlint is the repo's multichecker: it runs the two sanlint
// analyzers (determinism, hotpath) whole-program over the packages matched
// by the given patterns (default ./...) and exits non-zero if any
// diagnostic is reported. `make lint` runs it over the whole tree.
//
// Packages load in dependency order so facts exported by a dependency —
// hotpath's allocation-free proofs, determinism's taint chains — are
// visible when its importers are analyzed.
//
// Diagnostics print in the familiar vet format:
//
//	path/to/file.go:12:3: hotpath: make allocates
//
// With -json they print instead as a JSON array of findings, sorted by
// file, line, column, then analyzer — byte-identical across runs, so CI can
// archive the output as an artifact and diff it between commits. With
// -fact-debug the exported object facts print after the diagnostics.
//
// The determinism analyzer's diagnostics are scoped to the packages whose
// output feeds the reproducibility guarantee (experiments, mapper, dot,
// isomorph); its facts still propagate program-wide so a scoped package
// calling a tainted helper elsewhere is caught at the import edge.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"sanmap/internal/analysis"
	"sanmap/internal/analysis/determinism"
	"sanmap/internal/analysis/hotpath"
)

// analyzers is the full suite, in display order.
var analyzers = []*analysis.Analyzer{
	determinism.Analyzer,
	hotpath.Analyzer,
}

// determinismScope lists the import-path suffixes where map-iteration order
// and global randomness leak into published artifacts (maps, DOT renderings,
// experiment tables). Elsewhere the rules would mostly flag benign code, so
// determinism diagnostics outside the scope are dropped — the analyzer still
// runs everywhere to export taint facts.
var determinismScope = []string{
	"internal/experiments",
	"internal/mapper",
	"internal/dot",
	"internal/isomorph",
}

// finding is the JSON shape of one diagnostic.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sanlint:", err)
		os.Exit(1)
	}
	os.Exit(run(wd, os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it loads the patterns relative to wd,
// applies the suite, and writes findings to stdout. It returns the process
// exit code: 0 clean, 1 findings or load failure, 2 flag error.
func run(wd string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sanlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	jsonOut := fs.Bool("json", false, "print findings as a sorted JSON array (stable across runs)")
	factDebug := fs.Bool("fact-debug", false, "dump the exported object facts after the findings")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: sanlint [-list] [-json] [-fact-debug] [packages]\n\n")
		fmt.Fprintf(stderr, "Runs the sanlint analyzers whole-program over the given package patterns (default ./...).\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "sanlint:", err)
		return 1
	}
	if len(pkgs) == 0 {
		fmt.Fprintln(stderr, "sanlint: no packages matched")
		return 1
	}
	res := analysis.Run(pkgs, analyzers)

	fset := pkgs[0].Fset
	findings := []finding{}
	for _, d := range res.Diagnostics {
		if d.Analyzer == determinism.Analyzer.Name && !inDeterminismScope(d.Package) {
			continue
		}
		pos := fset.Position(d.Pos)
		name := pos.Filename
		if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = filepath.ToSlash(rel)
		}
		findings = append(findings, finding{
			File:     name,
			Line:     pos.Line,
			Col:      pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	// Diagnostics arrive sorted on absolute paths; re-sort on the printed
	// (relativized) names so the output contract is self-contained.
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})

	if *jsonOut {
		out, err := json.MarshalIndent(findings, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "sanlint:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", out)
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}

	if *factDebug {
		for _, of := range res.ObjectFacts() {
			fmt.Fprintf(stdout, "fact %s %s %v\n", of.Analyzer, of.Key, of.Fact)
		}
	}

	if len(findings) > 0 {
		fmt.Fprintf(stderr, "sanlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

func inDeterminismScope(importPath string) bool {
	for _, suffix := range determinismScope {
		if strings.HasSuffix(importPath, suffix) {
			return true
		}
	}
	return false
}
