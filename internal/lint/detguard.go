// The detguard rule: bodies handed to the parallel engine must be
// deterministic.  internal/parallel guarantees bitwise-identical results
// between a serial and a parallel run of the same workload; that
// guarantee dies the moment a worker body reads the wall clock, draws
// from math/rand, or iterates a map (whose order differs run to run).
// The rule inspects every function literal passed to parallel.Map and
// robust.Map and flags those three nondeterminism sources inside it,
// including in nested literals.
package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// detguardEntry names one parallel entry point whose closure arguments
// are in scope.
type detguardEntry struct {
	pkgSuffix string // import-path suffix of the defining package
	name      string // function name
}

var detguardEntries = []detguardEntry{
	{"/internal/parallel", "Map"},
	{"/internal/robust", "Map"},
}

type detguardRule struct{}

func init() { Register(detguardRule{}) }

func (detguardRule) Name() string { return "detguard" }

func (detguardRule) Doc() string {
	return "no time.Now/math/rand/map-range inside closures passed to parallel.Map or robust.Map (breaks the bitwise serial-vs-parallel guarantee)"
}

func (detguardRule) Check(p *Package) []Finding {
	if p.Info == nil {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !p.isDetguardEntry(call.Fun) {
				return true
			}
			for _, arg := range call.Args {
				lit, ok := arg.(*ast.FuncLit)
				if !ok {
					continue
				}
				out = append(out, p.checkDeterministic(lit.Body)...)
			}
			return true
		})
	}
	return out
}

// isDetguardEntry reports whether fun resolves to one of the guarded
// parallel entry points.  Resolution is by type information when
// available (so aliased imports and same-package calls work), with a
// syntactic parallel.X fallback for packages with incomplete info.
func (p *Package) isDetguardEntry(fun ast.Expr) bool {
	var id *ast.Ident
	switch x := fun.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	case *ast.IndexExpr: // explicit instantiation: parallel.Map[T, R](...)
		return p.isDetguardEntry(x.X)
	case *ast.IndexListExpr:
		return p.isDetguardEntry(x.X)
	default:
		return false
	}
	if obj := p.Info.Uses[id]; obj != nil && obj.Pkg() != nil {
		for _, e := range detguardEntries {
			if id.Name == e.name && strings.HasSuffix(obj.Pkg().Path(), e.pkgSuffix) {
				return true
			}
		}
		return false
	}
	// Fallback: selector on a package ident named like the entry's package.
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkgID, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	for _, e := range detguardEntries {
		if sel.Sel.Name == e.name && strings.HasSuffix(e.pkgSuffix, "/"+pkgID.Name) {
			return true
		}
	}
	return false
}

// checkDeterministic flags wall-clock reads, math/rand draws and map
// iteration anywhere inside the worker body, nested literals included —
// a closure spawned from a worker still runs on the worker.
func (p *Package) checkDeterministic(body *ast.BlockStmt) []Finding {
	var out []Finding
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if name, bad := p.nondeterministicCall(x); bad {
				out = append(out, Finding{
					Pos:  p.Fset.Position(x.Pos()),
					Rule: "detguard",
					Msg:  name + " inside a parallel worker body",
					Hint: "hoist the call out of the worker or derive the value deterministically from the item index",
				})
			}
		case *ast.RangeStmt:
			tv, ok := p.Info.Types[x.X]
			if ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					out = append(out, Finding{
						Pos:  p.Fset.Position(x.Pos()),
						Rule: "detguard",
						Msg:  "map iteration inside a parallel worker body",
						Hint: "iterate a sorted key slice instead; map order is randomized per run",
					})
				}
			}
		}
		return true
	})
	return out
}

// nondeterministicCall reports whether call reads the wall clock
// (time.Now/Since/After/Tick) or draws from math/rand.
func (p *Package) nondeterministicCall(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	pkgID, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	// Resolve the qualifier to a package name when type info knows it.
	pkgPath := pkgID.Name
	if obj := p.Info.Uses[pkgID]; obj != nil {
		if pn, ok := obj.(*types.PkgName); ok {
			pkgPath = pn.Imported().Path()
		} else {
			return "", false // a value, not a package qualifier
		}
	}
	switch pkgPath {
	case "time":
		switch sel.Sel.Name {
		case "Now", "Since", "After", "Tick":
			return "time." + sel.Sel.Name, true
		}
	case "math/rand", "math/rand/v2", "rand":
		return pkgPath + "." + sel.Sel.Name, true
	}
	return "", false
}
