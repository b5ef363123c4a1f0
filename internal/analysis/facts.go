package analysis

import (
	"fmt"
	"go/types"
	"reflect"
)

// A Fact is a typed datum an analyzer attaches to an object (function,
// named type, package-level variable) while analyzing the package that
// declares it, and imports back when analyzing dependents. Facts are how
// the interprocedural rules cross package boundaries: hotpath exports "this
// function is provably allocation-free", determinism exports "this function
// reaches time.Now".
//
// Fact types must be pointers to structs; each analyzer sees only its own
// facts (the store is keyed by analyzer and concrete fact type).
type Fact interface {
	// AFact marks the type as a fact; it has no behaviour.
	AFact()
}

// An ObjectFact pairs a fact with the stable key of the object it describes;
// the driver exposes the full set for `sanlint -fact-debug`.
type ObjectFact struct {
	Key      string // ObjectKey of the described object
	Analyzer string
	Fact     Fact
}

// ObjectKey returns a stable, program-wide identity for the kinds of object
// facts attach to. The loader type-checks target packages twice (without and
// with in-package test files), producing distinct types.Object identities
// for the same declaration, so facts cannot key on object pointers; the
// fully-qualified name is identical across both checks:
//
//	functions and methods:    (sanmap/internal/simnet.*Net).Eval
//	named types:              sanmap/internal/topology.Network
//	package-level variables:  sanmap/internal/simnet.ErrTimeout
//
// Objects outside these kinds (locals, struct fields, imports) have no
// stable key; ObjectKey returns "" and the fact APIs reject them.
func ObjectKey(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		// Methods of generic types are used through instantiations; the
		// annotation and the fact live on the generic origin.
		return o.Origin().FullName()
	case *types.TypeName:
		if o.Pkg() != nil {
			return o.Pkg().Path() + "." + o.Name()
		}
	case *types.Var:
		if !o.IsField() && o.Parent() != nil && o.Pkg() != nil && o.Parent() == o.Pkg().Scope() {
			return o.Pkg().Path() + "." + o.Name()
		}
	}
	return ""
}

// factStore is the program-wide fact table one Run call accumulates.
// Packages are analyzed in dependency order, so when a pass imports a fact
// its dependency's pass has already exported it.
type factStore struct {
	obj map[objFactKey]Fact
	// loaded records the import paths type-checked from source this run:
	// the in-module universe the interprocedural rules can reason about.
	loaded map[string]bool
}

type objFactKey struct {
	key      string
	analyzer string
	typ      reflect.Type
}

func newFactStore() *factStore {
	return &factStore{
		obj:    make(map[objFactKey]Fact),
		loaded: make(map[string]bool),
	}
}

// factType validates that fact is a pointer to struct and returns its type.
func factType(fact Fact) reflect.Type {
	t := reflect.TypeOf(fact)
	if t == nil || t.Kind() != reflect.Pointer {
		panic(fmt.Sprintf("analysis: fact %T must be a pointer to a struct", fact))
	}
	return t
}

// ExportObjectFact records fact for obj. The object must be a function, a
// named type, or a package-level variable of the package under analysis.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	key := ObjectKey(obj)
	if key == "" {
		panic(fmt.Sprintf("analysis: %s: cannot attach a fact to %v (no stable key)", p.Analyzer.Name, obj))
	}
	p.prog.obj[objFactKey{key, p.Analyzer.Name, factType(fact)}] = fact
}

// ImportObjectFact copies the fact previously exported for obj (by this
// analyzer, in this or an earlier pass) into the pointer fact and reports
// whether one was found.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	key := ObjectKey(obj)
	if key == "" {
		return false
	}
	stored, ok := p.prog.obj[objFactKey{key, p.Analyzer.Name, factType(fact)}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// InModule reports whether pkg was type-checked from source during this run
// — i.e. it belongs to the module under analysis, so the interprocedural
// rules may demand facts of its declarations. Standard-library packages are
// loaded from export data and are never in-module.
func (p *Pass) InModule(pkg *types.Package) bool {
	return pkg != nil && p.prog.loaded[pkg.Path()]
}
