// Package hotpath defines the sanlint analyzer that keeps annotated
// functions allocation-free. The eval kernel (simnet.evalRoute and the
// evalScratch helpers) and the eventq heap are guarded by runtime
// testing.AllocsPerRun gates; this analyzer enforces the same contract
// statically, so a heap allocation introduced on the hot path fails
// `make lint` before it ever reaches a benchmark.
//
// A function annotated //sanlint:hotpath must not contain:
//
//   - map, slice or channel composite literals, or make()/new() of them
//     (h1: guaranteed heap allocation);
//   - function literals except immediately-invoked ones (h2: closures
//     capture and escape);
//   - append whose destination is not rooted at the receiver or a
//     parameter — appending to anything else cannot reuse a caller-owned
//     scratch buffer (h3);
//   - explicit conversions to interface types (h4: boxing);
//   - defer or go statements (h5);
//   - string concatenation (h6);
//   - calls to functions that are not provably allocation-free (h7): a
//     same-package callee must carry the //sanlint:hotpath annotation, and
//     a callee in another in-module package must carry the exported
//     AllocFreeFact — which it earns by being annotated, so the hot path
//     is annotated transitively across package boundaries (closing the
//     simnet→eventq→wormsim gap the per-package rule used to punt on).
//     Stdlib callees and dynamic calls (interface methods, func values)
//     remain outside the annotation's static reach: the runtime
//     AllocsPerRun gates own them (fmt.Sprintf in routes.Table.Route passes
//     here and fails mapd's TestReadPathAllocatesNothing).
//
// The converse holds too: for annotated functions no AllocsPerRun gate
// executes — wormsim's step loop among them (DESIGN.md §8) — this analyzer
// is the only allocation guard.
//
// Arguments of panic(...) are exempt from every rule: panics are cold
// guard paths (the eval kernel formats its invariant violations there).
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"

	"sanmap/internal/analysis"
)

// AllocFreeFact marks a function proven allocation-free: it carries the
// //sanlint:hotpath annotation, so this analyzer has checked its body. The
// fact is what h7 demands of cross-package callees.
type AllocFreeFact struct{}

func (*AllocFreeFact) AFact()         {}
func (*AllocFreeFact) String() string { return "allocfree" }

// Analyzer enforces zero-allocation discipline on //sanlint:hotpath funcs.
var Analyzer = &analysis.Analyzer{
	Name: "hotpath",
	Doc: "//sanlint:hotpath functions must stay allocation-free: no " +
		"map/slice/chan literals, escaping closures, foreign appends, " +
		"interface boxing, defer/go, string concatenation, or calls to " +
		"functions not provably allocation-free (transitive annotation, " +
		"across packages)",
	Run: run,
}

func run(pass *analysis.Pass) {
	// Annotated function objects, for the transitive-annotation rule h7.
	// Exporting the fact first makes every annotated function visible to
	// dependent packages analyzed later in the program order.
	annotated := make(map[types.Object]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && analysis.FuncIsHotpath(fd) {
				obj := pass.TypesInfo.Defs[fd.Name]
				annotated[obj] = true
				if fn, ok := obj.(*types.Func); ok {
					pass.ExportObjectFact(fn, &AllocFreeFact{})
				}
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !analysis.FuncIsHotpath(fd) || fd.Body == nil {
				continue
			}
			c := &checker{pass: pass, owned: ownedObjects(pass, fd), annotated: annotated}
			c.walk(fd.Body)
		}
	}
}

// ownedObjects collects the receiver and parameter objects of fd: the roots
// through which a hot function may legitimately grow caller-owned buffers.
func ownedObjects(pass *analysis.Pass, fd *ast.FuncDecl) map[types.Object]bool {
	owned := make(map[types.Object]bool)
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					owned[obj] = true
				}
			}
		}
	}
	add(fd.Recv)
	add(fd.Type.Params)
	return owned
}

type checker struct {
	pass      *analysis.Pass
	owned     map[types.Object]bool
	annotated map[types.Object]bool
}

func (c *checker) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPanic(c.pass, n) {
				return false // cold guard path: skip the arguments entirely
			}
			c.checkCall(n)
		case *ast.CompositeLit:
			switch c.pass.TypesInfo.TypeOf(n).Underlying().(type) {
			case *types.Map, *types.Slice, *types.Chan:
				c.pass.Reportf(n.Pos(), "hotpath: composite literal allocates a %s", typeKind(c.pass.TypesInfo.TypeOf(n)))
			}
		case *ast.FuncLit:
			c.pass.Reportf(n.Pos(), "hotpath: function literal may escape (closure allocation)")
			return false
		case *ast.DeferStmt:
			c.pass.Reportf(n.Pos(), "hotpath: defer allocates and delays the hot path")
		case *ast.GoStmt:
			c.pass.Reportf(n.Pos(), "hotpath: goroutine launch on the hot path")
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(c.pass.TypesInfo.TypeOf(n)) {
				c.pass.Reportf(n.Pos(), "hotpath: string concatenation allocates")
			}
		}
		return true
	})
}

func (c *checker) checkCall(call *ast.CallExpr) {
	// Conversions: flag only conversions to interface types (boxing).
	if tv, ok := c.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			if at := c.pass.TypesInfo.TypeOf(call.Args[0]); at != nil && !types.IsInterface(at) {
				c.pass.Reportf(call.Pos(), "hotpath: conversion to interface type %s boxes its operand", tv.Type)
			}
		}
		return
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj := c.pass.TypesInfo.Uses[fun]
		if b, ok := obj.(*types.Builtin); ok {
			c.checkBuiltin(b.Name(), call)
			return
		}
		c.checkCallee(call, obj)
	case *ast.SelectorExpr:
		c.checkCallee(call, c.pass.TypesInfo.Uses[fun.Sel])
	case *ast.FuncLit:
		// Immediately-invoked literal: the walk still visits the FuncLit
		// node and flags it; nothing extra here.
	}
}

// checkBuiltin flags allocating builtins and foreign appends.
func (c *checker) checkBuiltin(name string, call *ast.CallExpr) {
	switch name {
	case "make", "new":
		c.pass.Reportf(call.Pos(), "hotpath: %s allocates", name)
	case "append":
		if len(call.Args) == 0 {
			return
		}
		if root := rootObject(c.pass, call.Args[0]); root == nil || !c.owned[root] {
			c.pass.Reportf(call.Pos(), "hotpath: append to a slice not owned by the receiver or a parameter may allocate")
		}
	}
}

// checkCallee enforces h7: a same-package callee must be annotated, and a
// callee in another in-module package must carry the exported
// allocation-free fact. Stdlib callees and dynamic calls stay exempt.
func (c *checker) checkCallee(call *ast.CallExpr, obj types.Object) {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	// Methods of generic types are used through instantiations; compare
	// against the generic declaration the annotation sits on.
	fn = fn.Origin()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		return // dynamic dispatch: outside the annotation's static reach
	}
	if fn.Pkg() == c.pass.Pkg {
		if !c.annotated[fn] {
			c.pass.Reportf(call.Pos(), "hotpath: call to unannotated same-package function %s (annotate it //sanlint:hotpath or move it off the hot path)", fn.Name())
		}
		return
	}
	if !c.pass.InModule(fn.Pkg()) {
		return // stdlib: left to the runtime AllocsPerRun gates
	}
	if !c.pass.ImportObjectFact(fn, &AllocFreeFact{}) {
		c.pass.Reportf(call.Pos(), "hotpath: call to %s.%s which is not provably allocation-free (annotate it //sanlint:hotpath or move it off the hot path)", fn.Pkg().Path(), fn.Name())
	}
}

// rootObject walks selector/index/slice/star chains to the base identifier's
// object: the owner of the storage being appended to.
func rootObject(pass *analysis.Pass, expr ast.Expr) types.Object {
	e := ast.Unparen(expr)
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = ast.Unparen(x.X)
		case *ast.IndexExpr:
			e = ast.Unparen(x.X)
		case *ast.SliceExpr:
			e = ast.Unparen(x.X)
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
		case *ast.Ident:
			return pass.TypesInfo.Uses[x]
		default:
			return nil
		}
	}
}

func isPanic(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func typeKind(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Map:
		return "map"
	case *types.Slice:
		return "slice"
	case *types.Chan:
		return "channel"
	}
	return "value"
}
