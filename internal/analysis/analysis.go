// Package analysis is a small, dependency-free static-analysis framework
// modelled on golang.org/x/tools/go/analysis. The repo vendors no external
// modules, so the subset of the x/tools API that the sanlint analyzers need
// is reimplemented here on top of the standard library: an Analyzer is a
// named check with a Run function, a Pass hands it one type-checked package,
// and diagnostics are collected positions with messages.
//
// The framework is whole-program: the loader returns the full in-module
// dependency closure in dependency order, and analyzers export typed Facts
// on objects (facts.go) and import them when analyzing dependents. That is
// what lets hotpath's h7 and the determinism taint follow calls across
// package boundaries.
//
// The one annotation the analyzers read is //sanlint:hotpath on a function
// (the body must be allocation-free; see DESIGN.md §8). Annotations are
// directive comments (no space after //), so gofmt leaves them alone,
// exactly like //go:noinline.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one static check. Run is invoked once per package — in
// dependency order across the program — and reports findings through the
// Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and fixture expectations.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run executes the check over one type-checked package.
	Run func(*Pass)
}

// A Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
	// Package is the import path of the package the finding was reported
	// in; cmd/sanlint uses it to scope the determinism analyzer.
	Package string
}

// A Pass connects an Analyzer to one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the parsed files of the package, including in-package
	// _test.go files (external test packages are not loaded).
	Files      []*ast.File
	Pkg        *types.Package
	TypesInfo  *types.Info
	ImportPath string

	prog        *factStore
	diagnostics []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diagnostics = append(p.diagnostics, Diagnostic{
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
		Package:  p.ImportPath,
	})
}

// A Result is the outcome of one whole-program Run: the diagnostics of the
// target (non-DepOnly) packages, sorted by position, plus the accumulated
// fact tables for -fact-debug.
type Result struct {
	Diagnostics []Diagnostic
	store       *factStore
}

// ObjectFacts returns every exported object fact, sorted by object key then
// analyzer then fact type — a stable ordering for the -fact-debug dump.
func (r *Result) ObjectFacts() []ObjectFact {
	var out []ObjectFact
	for k, f := range r.store.obj {
		out = append(out, ObjectFact{Key: k.key, Analyzer: k.analyzer, Fact: f})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return fmt.Sprintf("%T", a.Fact) < fmt.Sprintf("%T", b.Fact)
	})
	return out
}

// Run applies the analyzers to every package in pkgs, which must be in
// dependency order as returned by Load: facts exported while analyzing a
// dependency are importable by its dependents. Dependency-only packages are
// analyzed for their facts but their diagnostics are discarded; only
// findings in the target packages are returned, sorted by file, line,
// column, then analyzer name.
func Run(pkgs []*Package, analyzers []*Analyzer) *Result {
	store := newFactStore()
	for _, pkg := range pkgs {
		store.loaded[pkg.ImportPath] = true
	}

	res := &Result{store: store}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.TypesInfo,
				ImportPath: pkg.ImportPath,
				prog:       store,
			}
			a.Run(pass)
			if !pkg.DepOnly {
				res.Diagnostics = append(res.Diagnostics, pass.diagnostics...)
			}
		}
	}
	sortDiagnostics(firstFset(pkgs), res.Diagnostics)
	return res
}

func firstFset(pkgs []*Package) *token.FileSet {
	if len(pkgs) > 0 {
		return pkgs[0].Fset // Load shares one FileSet across the program
	}
	return token.NewFileSet()
}

func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}

// FuncIsHotpath reports whether the function's doc comment carries the
// directive //sanlint:hotpath. Directive comments must start the line
// exactly (no leading space after //), mirroring the //go: convention.
func FuncIsHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == "//sanlint:hotpath" {
			return true
		}
	}
	return false
}

// StaticCallee resolves call to the concrete function or method it invokes,
// or nil when the callee is dynamic (an interface method, a func-typed
// variable or field), a builtin, or a type conversion. Methods of generic
// types resolve to their generic origin — the declaration annotations and
// facts live on.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return nil // conversion
	}
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	fn = fn.Origin()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			return nil // dynamic dispatch
		}
	}
	return fn
}
