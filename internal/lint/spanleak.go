// The spanleak rule: every obs span is ended by the statement right
// after the one that opens it.  A leaked span never gets a duration, so
// the Chrome trace shows a region that swallows everything after it and
// the span tree golden tests drift — the telemetry equivalent of a
// resource leak.
//
// The rule is syntactic.  Outside internal/obs, a call to obs.Start,
// obs.StartContext or (*obs.Span).Start must be the whole right-hand
// side of an assignment to a local variable, and the next statement in
// the same block must be `defer <local>.End()`.  That shape ends the
// span on every return and on a panic, so no path analysis is needed.
// Any other shape is a finding: an explicit End, attributes set before
// the defer, or a span that is returned, stored, passed on or dropped.
package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

type spanleakRule struct{}

func init() { Register(spanleakRule{}) }

func (spanleakRule) Name() string { return "spanleak" }

func (spanleakRule) Doc() string {
	return "every obs span is assigned to a local and followed by defer <local>.End() on the next statement"
}

func (spanleakRule) Check(p *Package) []Finding {
	// The obs package itself constructs and hands out spans.
	if p.Info == nil || strings.HasSuffix(p.ImportPath, "/internal/obs") {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		// Pre-order: a statement list is visited before the calls in
		// it, so every well-formed start is marked before it is seen.
		closed := make(map[*ast.CallExpr]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			var list []ast.Stmt
			switch x := n.(type) {
			case *ast.BlockStmt:
				list = x.List
			case *ast.CaseClause:
				list = x.Body
			case *ast.CommClause:
				list = x.Body
			case *ast.CallExpr:
				if isSpanStart(p, x) && !closed[x] {
					out = append(out, Finding{
						Pos:  p.Fset.Position(x.Pos()),
						Rule: "spanleak",
						Msg:  "span is not closed by defer <local>.End() on the next statement",
						Hint: "write `sp := obs.Start(...)` then `defer sp.End()`, and set attributes after the defer",
					})
				}
			}
			for i := 0; i+1 < len(list); i++ {
				if call := p.deferredStart(list[i], list[i+1]); call != nil {
					closed[call] = true
				}
			}
			return true
		})
	}
	return out
}

// isSpanStart reports whether call opens an obs span: obs.Start,
// obs.StartContext or (*obs.Span).Start (matched by package path suffix
// so the rule also works on testdata packages).
func isSpanStart(p *Package, call *ast.CallExpr) bool {
	fn := calleeFunc(p, call)
	return fn != nil && fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), "/internal/obs") &&
		(fn.Name() == "Start" || fn.Name() == "StartContext")
}

// deferredStart returns the span-opening call of s when s assigns the
// span to a local variable and next is `defer <local>.End()`.
func (p *Package) deferredStart(s, next ast.Stmt) *ast.CallExpr {
	as, ok := s.(*ast.AssignStmt)
	ds, isDefer := next.(*ast.DeferStmt)
	if !ok || !isDefer || len(as.Rhs) != 1 || len(ds.Call.Args) != 0 {
		return nil
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || !isSpanStart(p, call) {
		return nil
	}
	// The span is the last result: Start returns it alone, StartContext
	// after the derived context.
	id, ok := as.Lhs[len(as.Lhs)-1].(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := p.Info.Defs[id].(*types.Var)
	if !ok {
		v, ok = p.Info.Uses[id].(*types.Var)
	}
	if !ok || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
		return nil
	}
	sel, ok := ds.Call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return nil
	}
	if x, ok := sel.X.(*ast.Ident); !ok || p.Info.Uses[x] != v {
		return nil
	}
	return call
}
