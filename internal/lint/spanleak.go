// The spanleak rule: every obs.Span started in a function must be
// ended on every return path.  A leaked span never gets a duration, so
// the Chrome trace shows a region that swallows everything after it and
// the span tree golden tests drift — the telemetry equivalent of a
// resource leak.
//
// The check is lexical, which matches how the codebase writes spans:
// either `defer sp.End()` right after the start, or explicit `sp.End()`
// calls that appear before every subsequent `return`.  Span values that
// escape the function (returned, stored in a struct field or another
// variable, or passed to another function) are out of scope: ownership
// moved, and the receiver is responsible for ending them.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

type spanleakRule struct{}

func init() { Register(spanleakRule{}) }

func (spanleakRule) Name() string { return "spanleak" }

func (spanleakRule) Doc() string {
	return "every obs span started on a path must be End()ed on all returns (defer sp.End() or explicit End before each return)"
}

// isObsSpanPtr reports whether t is *obs.Span (matched by package path
// suffix so the rule also works on testdata packages).
func isObsSpanPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Span" &&
		strings.HasSuffix(named.Obj().Pkg().Path(), "/internal/obs")
}

// spanStart is one tracked `v := ...Start(...)` site.
type spanStart struct {
	name *ast.Ident // the span variable
	pos  token.Pos  // position of the start call
}

func (spanleakRule) Check(p *Package) []Finding {
	if p.Info == nil {
		return nil
	}
	// The obs package itself constructs and hands out spans; its
	// internals are the one place unended spans are legitimate.
	if strings.HasSuffix(p.ImportPath, "/internal/obs") {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				out = append(out, checkSpanBody(p, body)...)
			}
			return true
		})
	}
	return out
}

// checkSpanBody analyses one function body.  Nested function literals
// are separate scopes: starts inside them are checked when ast.Inspect
// reaches the literal, and their bodies are ignored here.
//
// Hand-offs are resolved through the call-graph summaries: passing the
// span to a callee that ends it counts as an End, a callee that merely
// uses it leaves the obligation with this function (and is cited in the
// finding), and a callee that stores or forwards it — or one without a
// summary — is an ownership transfer that ends the analysis, exactly as
// in the intraprocedural v2 rule.
func checkSpanBody(p *Package, body *ast.BlockStmt) []Finding {
	starts := collectSpanStarts(p, body)
	if len(starts) == 0 {
		return nil
	}
	var out []Finding
	for _, st := range starts {
		obj := p.Info.Defs[st.name]
		if obj == nil {
			obj = p.Info.Uses[st.name]
		}
		if obj == nil {
			continue
		}
		fl := spanFlow(p.Facts, p, body, obj)
		if fl.escapes {
			continue
		}
		if fl.deferredEnd || hasDeferredEnd(p, body, obj) {
			continue
		}
		if line, leaked := firstLeakyReturn(p, body, obj, st.pos, fl.extraEnds); leaked {
			f := Finding{
				Pos:  p.Fset.Position(st.pos),
				Rule: "spanleak",
				Msg:  "span " + st.name.Name + " is not ended on the return path at line " + strconv.Itoa(line),
				Hint: "defer " + st.name.Name + ".End() after the Start, or call End before every return",
			}
			for _, np := range fl.neutrals {
				f.Msg += "; " + shortFuncName(np.callee) + " uses it without ending it"
				f.Related = append(f.Related, Related{
					Pos: p.Fset.Position(np.pos),
					Msg: shortFuncName(np.callee) + " uses the span but never calls End",
				})
			}
			out = append(out, f)
		}
	}
	return out
}

// collectSpanStarts finds `v := call(...)` / `v = call(...)` where the
// call yields *obs.Span, skipping nested function literals.
func collectSpanStarts(p *Package, body *ast.BlockStmt) []spanStart {
	var starts []spanStart
	inspectSkipFuncLits(body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		tv, ok := p.Info.Types[call]
		if !ok || tv.Type == nil || !isObsSpanPtr(tv.Type) {
			return
		}
		starts = append(starts, spanStart{name: id, pos: call.Pos()})
	})
	return starts
}

// inspectSkipFuncLits walks the body without descending into nested
// function literals (they are independent span scopes).
func inspectSkipFuncLits(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// usesObject reports whether expr mentions obj as a bare identifier.
func usesObject(p *Package, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

// hasDeferredEnd reports whether the body contains `defer v.End()`.
func hasDeferredEnd(p *Package, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	inspectSkipFuncLits(body, func(n ast.Node) {
		ds, ok := n.(*ast.DeferStmt)
		if !ok || found {
			return
		}
		if isEndCallOn(p, ds.Call, obj) {
			found = true
		}
	})
	return found
}

// isEndCallOn reports whether call is v.End() for the given span object.
func isEndCallOn(p *Package, call *ast.CallExpr, obj types.Object) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && p.Info.Uses[id] == obj
}

// firstLeakyReturn scans every return statement lexically after the
// start call; a return leaks the span unless an End call on it appears
// lexically in between, or the return sits under a `v == nil` guard.
// A function body that falls off its closing brace is treated as one
// more return at the brace.  extraEnds are additional positions that
// end the span — calls to callees whose summary proves they End it.
func firstLeakyReturn(p *Package, body *ast.BlockStmt, obj types.Object, startPos token.Pos, extraEnds []token.Pos) (int, bool) {
	// Positions of every v.End() call (deferred or not), plus the
	// interprocedural End sites.
	ends := append([]token.Pos(nil), extraEnds...)
	inspectSkipFuncLits(body, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok && isEndCallOn(p, call, obj) {
			ends = append(ends, call.Pos())
		}
	})
	endedBefore := func(pos token.Pos) bool {
		for _, e := range ends {
			if e > startPos && e < pos {
				return true
			}
		}
		return false
	}

	leakLine, leaked := 0, false
	var walk func(n ast.Node, guarded bool)
	walk = func(n ast.Node, guarded bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			if leaked {
				return false
			}
			switch x := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.IfStmt:
				// Recurse manually so the nil-guard flag tracks scope.
				g := guarded || condNilChecks(p, x.Cond, obj)
				if x.Init != nil {
					walk(x.Init, guarded)
				}
				walk(x.Body, g)
				if x.Else != nil {
					walk(x.Else, guarded)
				}
				return false
			case *ast.ReturnStmt:
				if x.Pos() > startPos && !guarded && !endedBefore(x.Pos()) {
					leakLine, leaked = p.Fset.Position(x.Pos()).Line, true
				}
				return false
			}
			return true
		})
	}
	walk(body, false)
	if leaked {
		return leakLine, true
	}
	// Implicit return at the closing brace.
	if body.End() > startPos && !endedBefore(body.End()) {
		return p.Fset.Position(body.Rbrace).Line, true
	}
	return 0, false
}

// condNilChecks reports whether the condition contains `v == nil`
// (possibly inside a && / || chain), which marks the branch as the
// span-disabled path where returning without End is fine.
func condNilChecks(p *Package, cond ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || be.Op != token.EQL {
			return true
		}
		x, y := be.X, be.Y
		if isNilIdent(y) && usesObject(p, x, obj) || isNilIdent(x) && usesObject(p, y, obj) {
			found = true
			return false
		}
		return true
	})
	return found
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
