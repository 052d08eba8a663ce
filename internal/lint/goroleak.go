// The goroleak rule: library code must not start goroutines it never
// joins or cancels.  aeropack's concurrency is funnelled through
// internal/parallel precisely so the solver stack stays synchronous
// from the caller's point of view; a stray `go` whose lifetime nobody
// bounds outlives the request that spawned it, keeps captured matrices
// alive, and races with the next sweep's telemetry.
//
// A goroutine counts as managed when any of these hold:
//
//   - the launching function also waits: a `.Wait()` call, a channel
//     receive, a select, or ranging over a channel appears in the same
//     body (the join lives next to the launch, as in internal/parallel);
//   - the goroutine is self-terminating: its function literal calls
//     `wg.Done()` on a sync.WaitGroup (someone is waiting on that
//     group) or invokes a cancel/stop path;
//   - a named callee's call-graph summary proves the same — its body
//     signals a WaitGroup or cancels a context.
//
// Everything else is flagged at the `go` statement.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

type goroleakRule struct{}

func init() { Register(goroleakRule{}) }

func (goroleakRule) Name() string { return "goroleak" }

func (goroleakRule) Doc() string {
	return "no goroutine in library code without a join (Wait/channel) in the launcher or a WaitGroup/cancel signal in the goroutine"
}

func (goroleakRule) Check(p *Package) []Finding {
	if p.Info == nil || !strings.Contains(p.ImportPath, "/internal/") {
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
				out = append(out, checkGoroBody(p, body)...)
			}
			return true
		})
	}
	return out
}

// checkGoroBody flags unmanaged go statements launched directly from
// one function body (nested literals are their own launchers and are
// visited separately by Check's walk).
func checkGoroBody(p *Package, body *ast.BlockStmt) []Finding {
	var gos []*ast.GoStmt
	inspectSkipFuncLits(body, func(n ast.Node) {
		if g, ok := n.(*ast.GoStmt); ok {
			gos = append(gos, g)
		}
	})
	if len(gos) == 0 {
		return nil
	}
	if bodyHasJoin(p, body) {
		return nil
	}
	var out []Finding
	for _, g := range gos {
		if goroutineSelfManaged(p, g.Call) {
			continue
		}
		out = append(out, Finding{
			Pos:  p.Fset.Position(g.Pos()),
			Rule: "goroleak",
			Msg:  "goroutine is started but never joined or cancelled",
			Hint: "wg.Add/defer wg.Done + wg.Wait in the launcher, or hand the work to internal/parallel",
		})
	}
	return out
}

// bodyHasJoin reports whether the launching body itself waits on
// something: a .Wait() call, a channel receive, a select, or a range
// over a channel.  Function literals are skipped — a join inside a
// different goroutine does not bound this launcher's children.
func bodyHasJoin(p *Package, body *ast.BlockStmt) bool {
	found := false
	inspectSkipFuncLits(body, func(n ast.Node) {
		if found {
			return
		}
		switch x := n.(type) {
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				found = true
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				found = true
			}
		case *ast.SelectStmt:
			found = true
		case *ast.RangeStmt:
			if tv, ok := p.Info.Types[x.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		}
	})
	return found
}

// goroutineSelfManaged reports whether the spawned call's own body
// signals completion — calls wg.Done (deferred or not) or runs a
// cancel path — either directly (function literal) or per the named
// callee's summary.
func goroutineSelfManaged(p *Package, call *ast.CallExpr) bool {
	if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
		return funcLitSignals(p, lit.Body)
	}
	fn := calleeFunc(p, call)
	if fn == nil {
		// Function value / interface method: unresolvable, stay silent.
		return true
	}
	sum := p.Facts.summary(fn)
	if sum == nil {
		// No summary (std lib or out-of-module): conservative silence.
		return true
	}
	g := sum.goroSignals()
	return g.done || g.cancel
}

// funcLitSignals scans a goroutine literal's body for a WaitGroup.Done
// call or a cancel()/Stop() invocation, including deferred ones.
func funcLitSignals(p *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isWaitGroupDone(p, call) || isCancelCall(p, call) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isCancelCall recognises invoking a context.CancelFunc value or a
// method named Cancel/Stop — the goroutine is tearing something down,
// which bounds its own lifetime.
func isCancelCall(p *Package, call *ast.CallExpr) bool {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if obj := p.Info.Uses[fun]; obj != nil {
			if named, ok := obj.Type().(*types.Named); ok {
				if named.Obj().Name() == "CancelFunc" && named.Obj().Pkg() != nil &&
					named.Obj().Pkg().Path() == "context" {
					return true
				}
			}
		}
	case *ast.SelectorExpr:
		if fun.Sel.Name == "Cancel" || fun.Sel.Name == "Stop" {
			return true
		}
	}
	return false
}
