// Package analysistest runs an analyzer over fixture packages and checks
// its diagnostics against `// want` expectations embedded in the fixtures,
// mirroring golang.org/x/tools/go/analysis/analysistest.
//
// Expectation syntax: a line that should trigger diagnostics carries a
// trailing comment of one or more double-quoted regular expressions,
//
//	x := badThing() // want "first finding" "second finding"
//
// Every expectation must be matched by a diagnostic on that line, and every
// diagnostic must be matched by an expectation; either mismatch fails the
// test. Fixture packages live under testdata/src/<name> and must type-check.
//
// A fixture may be multi-package: subdirectories of testdata/src/<name> are
// loaded along with the root (the whole `./...` subtree, dependencies
// ordered first), so cross-package rules — interprocedural hotpath h7,
// determinism taint through helper packages — are testable by making the
// root package import its fixture-local helpers. Want comments are honored
// in every package of the subtree.
package analysistest

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"sanmap/internal/analysis"
)

// expectation is one `// want` regexp, anchored to a file line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// Run loads the `./...` subtree at testdata/src/<pkg>, applies the analyzer
// whole-program (dependencies first, facts propagating), and reports
// mismatches between its diagnostics and the fixtures' want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkg string) {
	t.Helper()
	dir := filepath.Join(testdata, "src", pkg)
	pkgs, err := analysis.Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	var fixture []*analysis.Package
	for _, p := range pkgs {
		if !p.DepOnly {
			fixture = append(fixture, p)
		}
	}
	if len(fixture) == 0 {
		t.Fatalf("fixture %s: loaded no packages", dir)
	}

	var wants []*expectation
	for _, p := range fixture {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					wants = append(wants, parseWants(t, p.Fset, c)...)
				}
			}
		}
	}

	res := analysis.Run(pkgs, []*analysis.Analyzer{a})

	fset := fixture[0].Fset
	for _, d := range res.Diagnostics {
		pos := fset.Position(d.Pos)
		if !claim(wants, pos, d.Message) {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

// claim marks the first unmatched expectation on the diagnostic's line whose
// regexp matches the message.
func claim(wants []*expectation, pos token.Position, msg string) bool {
	for _, w := range wants {
		if w.matched || w.line != pos.Line || w.file != pos.Filename {
			continue
		}
		if w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// parseWants extracts the expectations from one comment.
func parseWants(t *testing.T, fset *token.FileSet, c *ast.Comment) []*expectation {
	t.Helper()
	text := strings.TrimPrefix(c.Text, "//")
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, "want ") {
		return nil
	}
	pos := fset.Position(c.Pos())
	rest := strings.TrimSpace(strings.TrimPrefix(text, "want"))
	var out []*expectation
	for rest != "" {
		if rest[0] != '"' {
			t.Fatalf("%s: malformed want comment (expected quoted regexp): %s", pos, c.Text)
		}
		end := strings.Index(rest[1:], `"`)
		if end < 0 {
			t.Fatalf("%s: unterminated regexp in want comment: %s", pos, c.Text)
		}
		pat := rest[1 : 1+end]
		re, err := regexp.Compile(pat)
		if err != nil {
			t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
		}
		out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
		rest = strings.TrimSpace(rest[end+2:])
	}
	if len(out) == 0 {
		t.Fatalf("%s: want comment carries no regexps: %s", pos, c.Text)
	}
	return out
}

// Testdata returns the conventional testdata directory for the caller's
// package: ../testdata relative to the analyzer package directory, i.e. the
// analyzers share one fixture tree under internal/analysis/testdata.
func Testdata() string { return filepath.Join("..", "testdata") }
