// Package determinism defines the sanlint analyzer that guards the repo's
// headline reproducibility property: identical inputs produce byte-identical
// maps, figures and DOT renderings, on any worker count. Three failure
// classes are flagged:
//
//   - wall-clock reads: time.Now threads real time into virtual-time
//     experiments;
//   - the global math/rand generator: rand.Int, rand.Shuffle et al. draw
//     from process-global state; randomized experiments must thread an
//     explicit *rand.Rand so a seed reproduces the run;
//   - order-sensitive map iteration: `for k, v := range m` visits keys in
//     randomized order, so a body that publishes anything order-dependent
//     makes output differ run to run.
//
// A map-range body is order-sensitive when it contains (with K/V the range
// variables and anything derived from them tainted):
//
//	D1  append to a slice declared outside the loop, unless that slice is
//	    passed to a sort.* / slices.Sort* call later in the same function
//	    (the collect-then-sort idiom);
//	D2  a write to an output sink: fmt.Print*/Fprint*, strings.Builder or
//	    bytes.Buffer Write methods, io.WriteString, or a channel send;
//	D3  a return statement referencing a tainted variable (which mismatch
//	    is reported first depends on iteration order);
//	D4  any other call passing a tainted value — except builtins,
//	    conversions, sort calls, panic arguments, and calls in condition
//	    position (if/for/switch conditions are pure-read by convention:
//	    think liveAny(es) guards). Effectful callees invoked per-element
//	    observe iteration order; pure per-key uses in condition position do
//	    not.
//
// Pure accumulation — counters, min/max folds, writes into other maps —
// passes: those are order-independent.
//
// Since PR 8 the wall-clock and global-rand rules are interprocedural: the
// analyzer exports a NondetFact for every function that reaches time.Now or
// the global generator — directly, through same-package helpers (a local
// fixpoint over the package's static call graph), or through
// already-tainted functions in dependency packages (imported facts). A call
// that crosses a package boundary into a tainted function is flagged at
// that call site: the virtual-time entry point, not the helper package the
// source hides in.
package determinism

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"sanmap/internal/analysis"
)

// NondetFact marks a function that reaches a nondeterministic source. Path
// is the call chain down to the source, e.g. ["Stamp", "time.Now"].
type NondetFact struct {
	Path []string
}

func (*NondetFact) AFact() {}

func (f *NondetFact) String() string { return "reaches " + strings.Join(f.Path, " -> ") }

// Analyzer flags nondeterministic constructs: wall-clock time, the global
// math/rand generator (both followed through helper calls across package
// boundaries), and order-sensitive map iteration.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc: "experiments must be reproducible: no time.Now or global " +
		"math/rand reach (even through helper packages), no map iteration " +
		"that publishes order-dependent output",
	Run: run,
}

func run(pass *analysis.Pass) {
	g := make(map[string]*localFunc)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				g[analysis.ObjectKey(fn)] = &localFunc{fn: fn, body: fd.Body, callees: staticCallees(pass, fd.Body)}
			}
		}
	}
	taint(pass, g)
}

// localFunc is one function or method declared in the package under
// analysis: a node of its static call graph, which run keys by ObjectKey.
type localFunc struct {
	fn      *types.Func
	body    *ast.BlockStmt
	callees []*types.Func
}

// staticCallees returns the statically-resolved callees of one body, local
// and imported, deduplicated and sorted by ObjectKey. Dynamic dispatch is
// out of scope by design: calls through interface methods, function-typed
// variables and fields resolve to no edge. The taint treats those the way
// hotpath's h7 does — as outside the static reach, guarded instead by the
// runtime byte-identity tests.
func staticCallees(pass *analysis.Pass, body *ast.BlockStmt) []*types.Func {
	seen := make(map[string]*types.Func)
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := analysis.StaticCallee(pass.TypesInfo, call); fn != nil {
				seen[analysis.ObjectKey(fn)] = fn
			}
		}
		return true
	})
	var out []*types.Func
	for _, k := range sortedKeys(seen) {
		out = append(out, seen[k])
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// taint computes which local functions reach a nondeterministic source,
// exports their facts, and flags calls that import taint from another
// package — the entry points where real time would leak into virtual time.
func taint(pass *analysis.Pass, g map[string]*localFunc) {
	keys := sortedKeys(g)

	// Seed: functions calling time.Now / global math/rand directly.
	nondet := make(map[string][]string)
	for _, key := range keys {
		src := ""
		ast.Inspect(g[key].body, func(n ast.Node) bool {
			if src != "" {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				if s := globalSourceName(pass, call); s != "" {
					src = s
					return false
				}
			}
			return true
		})
		if src != "" {
			nondet[key] = []string{src}
		}
	}

	// Fixpoint over the local call graph, seeding from imported facts at
	// cross-package edges. Sorted iteration keeps the recorded chains (and
	// so the -fact-debug dump) deterministic.
	for changed := true; changed; {
		changed = false
		for _, key := range keys {
			if nondet[key] != nil {
				continue
			}
			for _, callee := range g[key].callees {
				var chain []string
				if local := nondet[analysis.ObjectKey(callee)]; local != nil {
					chain = local
				} else if callee.Pkg() != pass.Pkg && pass.InModule(callee.Pkg()) {
					var fact NondetFact
					if pass.ImportObjectFact(callee, &fact) {
						chain = fact.Path
					}
				}
				if chain != nil {
					nondet[key] = append([]string{chainName(pass, callee)}, chain...)
					changed = true
					break
				}
			}
		}
	}
	for _, key := range keys {
		if chain := nondet[key]; chain != nil {
			pass.ExportObjectFact(g[key].fn, &NondetFact{Path: chain})
		}
	}

	// Report at the import edge: a call into another in-module package
	// whose callee carries taint. Intra-package reaches are not re-flagged
	// here — their root source (or their own import edge) already is.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.StaticCallee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg() == pass.Pkg || !pass.InModule(fn.Pkg()) {
				return true
			}
			var fact NondetFact
			if pass.ImportObjectFact(fn, &fact) {
				pass.Reportf(call.Pos(), "call to %s reaches %s; thread the virtual clock or an explicit *rand.Rand instead",
					chainName(pass, fn), strings.Join(fact.Path, " -> "))
			}
			return true
		})
	}
}

// chainName renders a callee for taint chains: package-qualified when the
// function lives elsewhere, bare within the package under analysis.
func chainName(pass *analysis.Pass, fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if tn := recvTypeName(sig.Recv().Type()); tn != "" {
			name = tn + "." + name
		}
	}
	if fn.Pkg() != nil && fn.Pkg() != pass.Pkg {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

// recvTypeName unwraps *T / T receivers to the named type's name.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkGlobalSource(pass, n)
		case *ast.RangeStmt:
			if isMapType(pass.TypesInfo.TypeOf(n.X)) {
				checkMapRange(pass, body, n)
			}
		}
		return true
	})
}

// checkGlobalSource flags time.Now and package-level math/rand functions.
func checkGlobalSource(pass *analysis.Pass, call *ast.CallExpr) {
	switch src := globalSourceName(pass, call); src {
	case "":
	case "time.Now":
		pass.Reportf(call.Pos(), "time.Now is nondeterministic; thread the virtual clock (simnet.Net.Clock) or an explicit time source")
	default:
		pass.Reportf(call.Pos(), "global math/rand %s draws from process-global state; thread an explicit *rand.Rand so the seed reproduces the run", strings.TrimPrefix(src, "rand."))
	}
}

// globalSourceName classifies a call as a nondeterministic source: it
// returns "time.Now", "rand.<Name>" for the package-level math/rand
// functions, or "".
func globalSourceName(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	// Methods (e.g. (*rand.Rand).Intn) have a receiver; only package-level
	// functions draw from global state.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" {
			return "time.Now"
		}
	case "math/rand", "math/rand/v2":
		// Constructors (New, NewSource, NewPCG, ...) build explicit
		// generators — that is exactly the sanctioned pattern.
		if strings.HasPrefix(fn.Name(), "New") {
			return ""
		}
		return "rand." + fn.Name()
	}
	return ""
}

// checkMapRange applies the D1–D4 sink rules to one map-range loop.
func checkMapRange(pass *analysis.Pass, funcBody *ast.BlockStmt, rs *ast.RangeStmt) {
	taint := make(map[types.Object]bool)
	addTaint := func(e ast.Expr) {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				taint[obj] = true
			} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
				taint[obj] = true
			}
		}
	}
	if rs.Key != nil {
		addTaint(rs.Key)
	}
	if rs.Value != nil {
		addTaint(rs.Value)
	}
	// Propagate taint through assignments inside the body until stable:
	// v := expr(tainted) taints v; inner `range tainted` taints its vars.
	for changed := true; changed; {
		changed = false
		ast.Inspect(rs.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					var rhs ast.Expr
					if len(n.Rhs) == len(n.Lhs) {
						rhs = n.Rhs[i]
					} else if len(n.Rhs) == 1 {
						rhs = n.Rhs[0]
					}
					if rhs == nil || !mentionsTaint(pass, taint, rhs) {
						continue
					}
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
						obj := pass.TypesInfo.Defs[id]
						if obj == nil {
							obj = pass.TypesInfo.Uses[id]
						}
						if obj != nil && !taint[obj] {
							taint[obj] = true
							changed = true
						}
					}
				}
			case *ast.RangeStmt:
				if n != rs && mentionsTaint(pass, taint, n.X) {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						if e == nil {
							continue
						}
						if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
							if obj := pass.TypesInfo.Defs[id]; obj != nil && !taint[obj] {
								taint[obj] = true
								changed = true
							}
						}
					}
				}
			}
			return true
		})
	}

	v := &rangeVisitor{pass: pass, funcBody: funcBody, rs: rs, taint: taint}
	v.stmt(rs.Body)
}

// rangeVisitor walks a map-range body tracking condition position.
type rangeVisitor struct {
	pass     *analysis.Pass
	funcBody *ast.BlockStmt
	rs       *ast.RangeStmt
	taint    map[types.Object]bool
}

// stmt dispatches over statements. Condition expressions (if/for/switch)
// are deliberately not visited: calls there are read-only guards, exempt
// from D4 by design.
func (v *rangeVisitor) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, st := range s.List {
			v.stmt(st)
		}
	case *ast.IfStmt:
		v.stmt(s.Init)
		// Condition position: calls there are read-only guards (D4 exempt).
		v.stmt(s.Body)
		v.stmt(s.Else)
	case *ast.ForStmt:
		v.stmt(s.Init)
		v.stmt(s.Post)
		v.stmt(s.Body)
	case *ast.RangeStmt:
		v.stmt(s.Body)
	case *ast.SwitchStmt:
		v.stmt(s.Init)
		v.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		v.stmt(s.Init)
		v.stmt(s.Body)
	case *ast.CaseClause:
		for _, st := range s.Body {
			v.stmt(st)
		}
	case *ast.SendStmt:
		v.pass.Reportf(s.Pos(), "channel send inside map iteration publishes values in randomized order (D2); collect and sort first")
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if mentionsTaint(v.pass, v.taint, r) {
				v.pass.Reportf(s.Pos(), "return inside map iteration depends on which key is visited first (D3); iterate sorted keys")
				return
			}
		}
		for _, r := range s.Results {
			v.expr(r)
		}
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
				v.checkAppend(s, call)
			}
			v.expr(rhs)
		}
		for _, lhs := range s.Lhs {
			v.expr(lhs)
		}
	case *ast.ExprStmt:
		v.expr(s.X)
	case *ast.IncDecStmt, *ast.BranchStmt, *ast.EmptyStmt:
		// Order-independent or control-only.
	case *ast.DeclStmt:
		ast.Inspect(s, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				v.checkCallSink(call)
			}
			return true
		})
	case *ast.DeferStmt:
		v.checkCallSink(s.Call)
	case *ast.GoStmt:
		v.checkCallSink(s.Call)
	case *ast.LabeledStmt:
		v.stmt(s.Stmt)
	case *ast.SelectStmt:
		v.stmt(s.Body)
	case *ast.CommClause:
		for _, st := range s.Body {
			v.stmt(st)
		}
	}
}

// expr scans an expression for call sinks, exempting calls in condition
// position (the caller routes conditions around this).
func (v *rangeVisitor) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if isPanicCall(v.pass, call) {
				return false
			}
			if v.checkCallSink(call) {
				return false // one finding per call chain is enough
			}
		}
		return true
	})
}

// checkAppend handles D1: append into a slice declared outside the loop.
func (v *rangeVisitor) checkAppend(as *ast.AssignStmt, call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return
	}
	if b, ok := v.pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return
	}
	if len(call.Args) == 0 {
		return
	}
	target, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		// Appends into selector/index targets (receiver fields etc.) are
		// out of D1's scope; D4 still sees effectful calls.
		return
	}
	obj := v.pass.TypesInfo.Uses[target]
	if obj == nil {
		return
	}
	// Declared inside the loop body: loop-local accumulation, fine.
	if v.rs.Body.Pos() <= obj.Pos() && obj.Pos() <= v.rs.Body.End() {
		return
	}
	if sortedLater(v.pass, v.funcBody, v.rs, obj) {
		return
	}
	v.pass.Reportf(call.Pos(), "append to %s inside map iteration records keys in randomized order (D1); sort it before use (collect-then-sort)", target.Name)
}

// checkCallSink handles D2 and D4 for one call; it reports whether a
// diagnostic was emitted.
func (v *rangeVisitor) checkCallSink(call *ast.CallExpr) bool {
	if tv, ok := v.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return false // conversion
	}
	if kind := outputSink(v.pass, call); kind != "" {
		v.pass.Reportf(call.Pos(), "%s inside map iteration writes in randomized key order (D2); iterate sorted keys", kind)
		return true
	}
	if isSortCall(v.pass, call) || isPureFormat(v.pass, call) {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if _, ok := v.pass.TypesInfo.Uses[fun].(*types.Builtin); ok {
			return false
		}
	}
	// D4: effectful call fed by the iteration.
	tainted := false
	for _, a := range call.Args {
		if mentionsTaint(v.pass, v.taint, a) {
			tainted = true
			break
		}
	}
	if !tainted {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && mentionsTaint(v.pass, v.taint, sel.X) {
			tainted = true
		}
	}
	if tainted {
		v.pass.Reportf(call.Pos(), "call passes map-iteration state to an effectful function in randomized order (D4); iterate sorted keys or move the call out of the loop")
	}
	return tainted
}

// outputSink classifies calls that write ordered output (D2).
func outputSink(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		recv := sig.Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			owner := named.Obj()
			if owner.Pkg() != nil && strings.HasPrefix(fn.Name(), "Write") {
				switch owner.Pkg().Path() + "." + owner.Name() {
				case "strings.Builder", "bytes.Buffer":
					return owner.Name() + "." + fn.Name()
				}
			}
		}
		return ""
	}
	switch fn.Pkg().Path() {
	case "fmt":
		if strings.HasPrefix(fn.Name(), "Print") || strings.HasPrefix(fn.Name(), "Fprint") {
			return "fmt." + fn.Name()
		}
	case "io":
		if fn.Name() == "WriteString" {
			return "io.WriteString"
		}
	}
	return ""
}

// sortedLater reports whether obj is passed to a sort call positioned after
// the range statement in the same function (collect-then-sort idiom).
func sortedLater(pass *analysis.Pass, funcBody *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || !isSortCall(pass, call) {
			return !found
		}
		for _, a := range call.Args {
			ast.Inspect(a, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// isPureFormat recognises fmt.Sprint*/Errorf: they only build values, so
// they are not D4 sinks themselves — whatever consumes the result is.
func isPureFormat(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return false
	}
	return strings.HasPrefix(fn.Name(), "Sprint") || fn.Name() == "Errorf"
}

// isSortCall recognises sort.* and slices.Sort* calls.
func isSortCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort":
		return true
	case "slices":
		return strings.HasPrefix(fn.Name(), "Sort")
	}
	return false
}

// mentionsTaint reports whether the expression references a tainted object.
func mentionsTaint(pass *analysis.Pass, taint map[types.Object]bool, e ast.Expr) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil && taint[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func isPanicCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}
