// Package callgraph defines the call-graph input the determinism
// analyzer's taint fixpoint builds on. It is not a check: it reports
// nothing. Each pass computes a lightweight static call graph of the package under
// analysis — one node per declared function or method, edges to every
// statically-resolved callee (direct calls and concrete method calls,
// including cross-package ones) — and returns it as the pass result, so
// analyzers listing callgraph in Requires receive it via Pass.ResultOf.
//
// Dynamic dispatch is out of scope by design: calls through interface
// methods, function-typed variables and fields resolve to no edge. The
// taint treats those the way hotpath's h7 does — as outside the static
// reach, guarded instead by the runtime byte-identity tests.
package callgraph

import (
	"go/ast"
	"go/types"
	"sort"

	"sanmap/internal/analysis"
)

// Analyzer computes the per-package static call graph. It reports no
// diagnostics; its result (*Graph) feeds dependent analyzers.
var Analyzer = &analysis.Analyzer{
	Name: "callgraph",
	Doc: "builds the intra-module static call graph consumed by the " +
		"determinism taint",
	Run: run,
}

// Graph is the static call graph of one package.
type Graph struct {
	// Funcs maps the ObjectKey of every function or method declared in the
	// package to its object.
	Funcs map[string]*types.Func
	// Decls maps the same keys to the declarations, for analyzers that
	// re-walk bodies.
	Decls map[string]*ast.FuncDecl
	// Callees maps a declared function's key to its statically-resolved
	// callees — local and imported — sorted and deduplicated. Values are
	// objects, so consumers can both key on them and import facts.
	Callees map[string][]*types.Func
}

func run(pass *analysis.Pass) (any, error) {
	g := &Graph{
		Funcs:   make(map[string]*types.Func),
		Decls:   make(map[string]*ast.FuncDecl),
		Callees: make(map[string][]*types.Func),
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			key := analysis.ObjectKey(fn)
			if key == "" {
				continue
			}
			g.Funcs[key] = fn
			g.Decls[key] = fd
			g.Callees[key] = callees(pass, fd.Body)
		}
	}
	return g, nil
}

// callees collects the statically-resolved callees of one body.
func callees(pass *analysis.Pass, body *ast.BlockStmt) []*types.Func {
	seen := make(map[string]*types.Func)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := analysis.StaticCallee(pass.TypesInfo, call); fn != nil {
			seen[analysis.ObjectKey(fn)] = fn
		}
		return true
	})
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*types.Func, len(keys))
	for i, k := range keys {
		out[i] = seen[k]
	}
	return out
}
