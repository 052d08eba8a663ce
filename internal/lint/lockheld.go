// The lockheld rule: a critical section does bounded, local work.  The
// telemetry registry and the parallel pool both take short critical
// sections on hot paths; a channel op, a WaitGroup.Wait or a solver
// entry inside one turns a bounded lock into an unbounded convoy (or a
// deadlock once the blocked goroutine is the one that would release the
// lock), and a second lock taken inside one is half of a lock-order
// cycle.
//
// The analysis is lexical, one function body at a time: a region starts
// at `x.Lock()` / `x.RLock()` and ends at the matching `x.Unlock()` /
// `x.RUnlock()` statement in the same block; `defer x.Unlock()` extends
// the region to the end of the function.  Inside a region the rule flags
//
//   - channel sends and receives, select statements, ranging over a
//     channel, and any `.Wait()` call;
//   - a Lock or RLock of any mutex, the same one included: no body holds
//     two locks, so no two bodies can take them in opposite orders;
//   - a call to a function or method declared in another package of the
//     module, whose body this check cannot see.
//
// Calls into the standard library, calls within the package and calls
// through function values stay allowed.  Function literals are skipped:
// they run later, usually after the lock is gone.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

type lockheldRule struct{}

func init() { Register(lockheldRule{}) }

func (lockheldRule) Name() string { return "lockheld" }

func (lockheldRule) Doc() string {
	return "no blocking op, second lock or call into another module package while a sync.Mutex/RWMutex is held"
}

func (lockheldRule) Check(p *Package) []Finding {
	if p.Info == nil {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					out = p.lockRegions(fn.Body, nil, out)
				}
			case *ast.FuncLit:
				out = p.lockRegions(fn.Body, nil, out)
			}
			return true
		})
	}
	return out
}

// mutexCall classifies a call as a Lock, RLock, Unlock or RUnlock method
// call on a sync.Mutex or sync.RWMutex and returns the receiver's
// printed form, the region key; method is "" for any other call.
func mutexCall(p *Package, call *ast.CallExpr) (method, recv string) {
	if call == nil {
		return "", ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	tv, ok := p.Info.Types[sel.X]
	if !ok || tv.Type == nil || !isSyncMutex(tv.Type) {
		return "", ""
	}
	return sel.Sel.Name, types.ExprString(sel.X)
}

// isSyncMutex reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func isSyncMutex(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != "sync" {
		return false
	}
	name := named.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

// lockRegions walks one block statement by statement, given the
// receivers held on entry, and appends a finding for every forbidden
// operation in a statement that runs with a lock held.
func (p *Package) lockRegions(block *ast.BlockStmt, held []string, out []Finding) []Finding {
	held = slices.Clone(held)
	for _, stmt := range block.List {
		var call *ast.CallExpr
		deferred := false
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			call, _ = s.X.(*ast.CallExpr)
		case *ast.DeferStmt:
			call, deferred = s.Call, true
		}
		if method, recv := mutexCall(p, call); method != "" {
			i := slices.Index(held, recv)
			switch {
			case deferred:
			case method == "Lock" || method == "RLock":
				if len(held) > 0 {
					out = append(out, lockheldFinding(p, call, method+" of "+recv))
				}
				if i < 0 {
					held = append(held, recv)
				}
			case i >= 0:
				held = slices.Delete(held, i, i+1)
			}
			continue
		}
		if len(held) > 0 {
			out = p.flagHeldStmt(stmt, out)
		}
		out = p.nestedRegions(stmt, held, out)
	}
	return out
}

// nestedRegions recurses into the block children of stmt with the
// current held set.
func (p *Package) nestedRegions(stmt ast.Stmt, held []string, out []Finding) []Finding {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		return p.lockRegions(s, held, out)
	case *ast.IfStmt:
		out = p.lockRegions(s.Body, held, out)
		if s.Else != nil {
			out = p.nestedRegions(s.Else, held, out)
		}
	case *ast.ForStmt:
		return p.lockRegions(s.Body, held, out)
	case *ast.RangeStmt:
		return p.lockRegions(s.Body, held, out)
	case *ast.SwitchStmt:
		return p.caseRegions(s.Body, held, out)
	case *ast.TypeSwitchStmt:
		return p.caseRegions(s.Body, held, out)
	}
	return out
}

func (p *Package) caseRegions(body *ast.BlockStmt, held []string, out []Finding) []Finding {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			out = p.lockRegions(&ast.BlockStmt{List: cc.Body}, held, out)
		}
	}
	return out
}

// flagHeldStmt inspects one statement that runs with a lock held,
// without descending into nested blocks (the region walk handles those)
// or function literals.
func (p *Package) flagHeldStmt(stmt ast.Stmt, out []Finding) []Finding {
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.BlockStmt, *ast.FuncLit:
			return false
		case *ast.SendStmt:
			out = append(out, lockheldFinding(p, x, "channel send"))
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				out = append(out, lockheldFinding(p, x, "channel receive"))
			}
		case *ast.SelectStmt:
			out = append(out, lockheldFinding(p, x, "select"))
			return false
		case *ast.RangeStmt:
			if tv, ok := p.Info.Types[x.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					out = append(out, lockheldFinding(p, x, "range over channel"))
				}
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
				out = append(out, lockheldFinding(p, x, "Wait()"))
			} else if fn := p.moduleCallee(x); fn != nil {
				out = append(out, lockheldFinding(p, x, "call to "+fn.Pkg().Name()+"."+fn.Name()+" in another module package"))
			}
		}
		return true
	})
	return out
}

func lockheldFinding(p *Package, n ast.Node, what string) Finding {
	return Finding{
		Pos:  p.Fset.Position(n.Pos()),
		Rule: "lockheld",
		Msg:  what + " while a mutex is held",
		Hint: "release the lock first (copy what you need out of the critical section)",
	}
}

// calleeFunc resolves a call to the static *types.Func it invokes, or
// nil for calls through function values, builtins and conversions.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// moduleCallee returns the static callee of call when it is declared in
// another package of this module, nil otherwise.
func (p *Package) moduleCallee(call *ast.CallExpr) *types.Func {
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg() == p.Pkg {
		return nil
	}
	if path := fn.Pkg().Path(); path != p.ModPath && !strings.HasPrefix(path, p.ModPath+"/") {
		return nil
	}
	return fn
}
