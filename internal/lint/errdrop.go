// The errdrop rule: errors are part of the solver contract and may be
// neither silently discarded nor compared to sentinels with ==.
//
// Two checks:
//
//  1. A call whose results include an error, used as a bare statement
//     (or go/defer call), drops that error on the floor.  Print-family
//     functions of fmt and methods on strings.Builder / bytes.Buffer
//     (documented to never fail) are exempt; an explicit `_ =` discard
//     is also accepted as a visible, reviewable decision.
//  2. `err == Sentinel` / `err != Sentinel` where the sentinel is a
//     package-level error variable.  The solver stack wraps sentinels
//     with fmt.Errorf("%w") — linalg.ErrStopped arrives wrapped in
//     "linalg: CG ... stopped" — so == can never match; errors.Is is
//     required.  When the cross-package fact store has proof of a %w
//     wrap site, the finding cites it.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

type errdropRule struct{}

func init() { Register(errdropRule{}) }

func (errdropRule) Name() string { return "errdrop" }

func (errdropRule) Doc() string {
	return "no discarded error returns and no ==/!= sentinel comparisons where errors.Is is required"
}

func (errdropRule) Check(p *Package) []Finding {
	if p.Info == nil {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.ExprStmt:
				if call, ok := x.X.(*ast.CallExpr); ok {
					out = append(out, p.checkDroppedError(call)...)
				}
			case *ast.GoStmt:
				out = append(out, p.checkDroppedError(x.Call)...)
			case *ast.DeferStmt:
				out = append(out, p.checkDroppedError(x.Call)...)
			case *ast.BinaryExpr:
				out = append(out, p.checkSentinelCompare(x)...)
			}
			return true
		})
	}
	return out
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type()

// resultsIncludeError reports whether the call's type is error or a
// tuple with an error member.
func (p *Package) resultsIncludeError(call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if types.Identical(t.At(i).Type(), errorType) {
				return true
			}
		}
		return false
	default:
		return types.Identical(t, errorType)
	}
}

// errdropExempt reports whether the callee is on the never-fails list:
// fmt's print family, strings.Builder / bytes.Buffer methods, and the
// error-returning no-ops of hash writers are out of scope.
func (p *Package) errdropExempt(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	// Package-qualified: fmt.Println / fmt.Fprintf and friends.
	if id, ok := sel.X.(*ast.Ident); ok {
		if obj := p.Info.Uses[id]; obj != nil {
			if pn, ok := obj.(*types.PkgName); ok {
				return pn.Imported().Path() == "fmt" &&
					strings.Contains(sel.Sel.Name, "rint") // Print*, Fprint*, Sprint* family
			}
		}
	}
	// Method on a receiver documented to never return a write error.
	tv, ok := p.Info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	name := types.TypeString(tv.Type, nil)
	for _, exempt := range []string{"*strings.Builder", "strings.Builder", "*bytes.Buffer", "bytes.Buffer", "hash.Hash"} {
		if name == exempt {
			return true
		}
	}
	return false
}

func (p *Package) checkDroppedError(call *ast.CallExpr) []Finding {
	if !p.resultsIncludeError(call) || p.errdropExempt(call) {
		return nil
	}
	return []Finding{{
		Pos:  p.Fset.Position(call.Pos()),
		Rule: "errdrop",
		Msg:  "call discards its error result",
		Hint: "handle the error, or make the discard explicit with `_ =` plus a reason",
	}}
}

// checkSentinelCompare flags err ==/!= Sentinel.
func (p *Package) checkSentinelCompare(be *ast.BinaryExpr) []Finding {
	if be.Op != token.EQL && be.Op != token.NEQ {
		return nil
	}
	if !p.exprIsError(be.X) || !p.exprIsError(be.Y) {
		return nil
	}
	// nil comparisons are the canonical success check.
	if isNilIdent(be.X) || isNilIdent(be.Y) {
		return nil
	}
	side := be.X
	obj := p.packageLevelErrorVar(side)
	if obj == nil {
		side = be.Y
		obj = p.packageLevelErrorVar(side)
	}
	if obj == nil {
		return nil // error-typed but neither side is a package-level sentinel
	}
	sentinel := obj.Name()
	if sel, ok := side.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			sentinel = id.Name + "." + sel.Sel.Name
		}
	}
	fnd := Finding{
		Pos:  p.Fset.Position(be.OpPos),
		Rule: "errdrop",
		Msg:  "error compared to sentinel " + sentinel + " with " + be.Op.String(),
		Hint: "use errors.Is; wrapped errors never match ==",
	}
	if w, ok := p.Facts.wrappedAt(obj); ok {
		fnd.Msg += "; the sentinel is wrapped with %w in " + w.pkg + ", so == can never match"
		fnd.Related = []Related{{Pos: w.pos, Msg: sentinel + " is wrapped with %w here"}}
	}
	return []Finding{fnd}
}

func (p *Package) exprIsError(e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.IsNil() {
		return true // untyped nil in an error comparison
	}
	return types.Identical(tv.Type, errorType)
}

// packageLevelErrorVar resolves e to a package-level variable of type
// error, or nil.
func (p *Package) packageLevelErrorVar(e ast.Expr) types.Object {
	var id *ast.Ident
	switch x := e.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return nil
	}
	obj := p.Info.Uses[id]
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil
	}
	if !types.Identical(v.Type(), errorType) {
		return nil
	}
	return obj
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
