// Package goroutine defines the sanlint analyzer that forbids
// fire-and-forget goroutines: every `go` statement must have a provable
// join, so a test or a shutting-down daemon can always wait for the work it
// started. An unjoined goroutine is a leak under the race detector and a
// nondeterminism hazard for the byte-identity lanes.
//
// A `go` statement is considered joined when one of these holds:
//
//   - g1 WaitGroup: the goroutine (a function literal) calls Done on a
//     *sync.WaitGroup, and — when the WaitGroup is a local variable — the
//     launching function calls Add on it before the `go` statement.
//     WaitGroups owned elsewhere (parameters, struct fields) are accepted:
//     the owner carries the Add/Wait bookkeeping.
//   - g2 done channel: the goroutine sends on or closes a channel, and —
//     when the channel is a local variable — the launching function
//     receives from it. Channels owned elsewhere are accepted.
//   - g3 signalling callee: `go f(...)` where f (resolved statically)
//     takes a *sync.WaitGroup or channel argument at the call site, or
//     carries the exported CompletesFact: its body signals completion
//     through a parameter or its receiver. The fact crosses package
//     boundaries, so `go worker.Run(wg)` joins even though worker's Done
//     call is in another package.
//
// Anything else — a bare closure that signals nothing, a dynamic call
// through a func value with no WaitGroup or channel in sight — is flagged.
package goroutine

import (
	"go/ast"
	"go/token"
	"go/types"

	"sanmap/internal/analysis"
)

// CompletesFact marks a function that signals completion through its
// parameters or receiver: it calls Done on a *sync.WaitGroup it was handed,
// or sends on / closes a channel it was handed (directly or as a receiver
// field). `go` statements running such a function are joinable by their
// caller.
type CompletesFact struct{}

func (*CompletesFact) AFact()         {}
func (*CompletesFact) String() string { return "completes" }

// Analyzer enforces the goroutine-lifecycle join rule.
var Analyzer = &analysis.Analyzer{
	Name: "goroutine",
	Doc: "every go statement needs a provable join (WaitGroup Done with a " +
		"prior Add, a received-from or caller-owned done channel, or a " +
		"callee that signals completion)",
	FactTypes: []analysis.Fact{&CompletesFact{}},
	Run:       run,
}

func run(pass *analysis.Pass) (any, error) {
	// Export facts first so `go` statements checked below (and in dependent
	// packages) can rely on them, declaration order notwithstanding.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fd.Body != nil && fn != nil && signalsCompletion(pass, fd) {
				pass.ExportObjectFact(fn, &CompletesFact{})
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					checkGo(pass, fd, g)
				}
				return true
			})
		}
	}
	return nil, nil
}

// checkGo validates one go statement inside fd.
func checkGo(pass *analysis.Pass, fd *ast.FuncDecl, g *ast.GoStmt) {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		checkClosure(pass, fd, g, lit)
		return
	}

	// Named (or dynamic) callee: a WaitGroup or channel among the call-site
	// arguments is a join handle regardless of how the callee resolves.
	for _, arg := range g.Call.Args {
		if t := pass.TypesInfo.TypeOf(arg); isWaitGroupPtr(t) || isChan(t) {
			return
		}
	}
	fn := analysis.StaticCallee(pass.TypesInfo, g.Call)
	if fn == nil {
		pass.Reportf(g.Pos(), "goroutine: go through a dynamic call has no provable join; pass a *sync.WaitGroup or channel, or launch a named worker")
		return
	}
	if pass.ImportObjectFact(fn, &CompletesFact{}) {
		return
	}
	if fn.Pkg() == pass.Pkg {
		// Same package: the fact for fn was exported above if it signals.
		pass.Reportf(g.Pos(), "goroutine: go %s has no provable join: it signals completion through neither a parameter nor its receiver; add a WaitGroup/done channel", fn.Name())
		return
	}
	pass.Reportf(g.Pos(), "goroutine: go %s.%s has no provable join: pass a *sync.WaitGroup or channel", pkgName(fn), fn.Name())
}

// checkClosure validates a `go func(){...}()` launch.
func checkClosure(pass *analysis.Pass, fd *ast.FuncDecl, g *ast.GoStmt, lit *ast.FuncLit) {
	wgs, chans := closureSignals(pass, lit)
	if len(wgs) == 0 && len(chans) == 0 {
		pass.Reportf(g.Pos(), "goroutine: fire-and-forget goroutine: nothing in the closure signals completion (WaitGroup.Done, channel send, or close); join it")
		return
	}
	var firstProblem string
	for _, wg := range wgs {
		if !isLocalOf(fd, wg) {
			return // caller-owned WaitGroup: its owner joins
		}
		if callsMethodBefore(pass, fd, wg, "Add", g.Pos()) {
			return
		}
		if firstProblem == "" {
			firstProblem = "goroutine: goroutine calls " + wg.Name() + ".Done but " + wg.Name() + ".Add is not called before the go statement"
		}
	}
	for _, ch := range chans {
		if !isLocalOf(fd, ch) {
			return // caller-owned channel: its owner collects
		}
		if receivesFrom(pass, fd, ch) {
			return
		}
		if firstProblem == "" {
			firstProblem = "goroutine: goroutine signals on " + ch.Name() + " but this function never receives from it"
		}
	}
	pass.Reportf(g.Pos(), "%s", firstProblem)
}

// closureSignals collects the WaitGroups the closure calls Done on and the
// channels it sends on or closes (by terminal object: a variable or a
// struct field).
func closureSignals(pass *analysis.Pass, lit *ast.FuncLit) (wgs, chans []types.Object) {
	seenWG := make(map[types.Object]bool)
	seenCh := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if obj := terminalObject(pass, n.Chan); obj != nil && !seenCh[obj] {
				seenCh[obj] = true
				chans = append(chans, obj)
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) == 1 {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
					if obj := terminalObject(pass, n.Args[0]); obj != nil && !seenCh[obj] {
						seenCh[obj] = true
						chans = append(chans, obj)
					}
					return true
				}
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
					if obj := terminalObject(pass, sel.X); obj != nil && !seenWG[obj] {
						seenWG[obj] = true
						wgs = append(wgs, obj)
					}
				}
			}
		}
		return true
	})
	return wgs, chans
}

// signalsCompletion reports whether fd's body signals completion through a
// parameter or its receiver: wg.Done on a WaitGroup parameter, a send on /
// close of a channel parameter, or either through a receiver field.
func signalsCompletion(pass *analysis.Pass, fd *ast.FuncDecl) bool {
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
	throughOwned := func(e ast.Expr) bool {
		if obj := terminalObject(pass, e); obj != nil {
			if owned[obj] {
				return true
			}
			// A receiver (or parameter) field: root the chain.
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				if base := baseObject(pass, e); base != nil && owned[base] {
					return true
				}
			}
		}
		return false
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			found = throughOwned(n.Chan)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && len(n.Args) == 1 {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
					found = throughOwned(n.Args[0])
					return !found
				}
			}
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
					found = throughOwned(sel.X)
				}
			}
		}
		return !found
	})
	return found
}

// isLocalOf reports whether obj is declared inside fd's body (as opposed to
// a parameter, receiver, field, or outer-scope variable).
func isLocalOf(fd *ast.FuncDecl, obj types.Object) bool {
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		return false
	}
	return fd.Body.Pos() <= obj.Pos() && obj.Pos() <= fd.Body.End()
}

// callsMethodBefore reports whether fd's body calls obj.<name>(...) at a
// position before limit.
func callsMethodBefore(pass *analysis.Pass, fd *ast.FuncDecl, obj types.Object, name string, limit token.Pos) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= limit {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == name {
			if terminalObject(pass, sel.X) == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// receivesFrom reports whether fd's body receives from the channel object
// (<-ch or range ch), anywhere — join points usually follow the launch.
func receivesFrom(pass *analysis.Pass, fd *ast.FuncDecl, ch types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && terminalObject(pass, n.X) == ch {
				found = true
			}
		case *ast.RangeStmt:
			if isChan(pass.TypesInfo.TypeOf(n.X)) && terminalObject(pass, n.X) == ch {
				found = true
			}
		}
		return !found
	})
	return found
}

// terminalObject resolves an expression to the object that identifies the
// signalled handle: the variable for a bare identifier, the field for a
// selector chain (so e.yield in a closure and in the launcher match).
func terminalObject(pass *analysis.Pass, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := pass.TypesInfo.Uses[x]; obj != nil {
			return obj
		}
		return pass.TypesInfo.Defs[x]
	case *ast.SelectorExpr:
		return pass.TypesInfo.Uses[x.Sel]
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return terminalObject(pass, x.X)
		}
	}
	return nil
}

// baseObject walks a selector/index/star chain to its base identifier.
func baseObject(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			return pass.TypesInfo.Uses[x]
		default:
			return nil
		}
	}
}

func isWaitGroupPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup"
}

func isChan(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

func pkgName(fn *types.Func) string {
	if fn.Pkg() != nil {
		return fn.Pkg().Name()
	}
	return "?"
}
