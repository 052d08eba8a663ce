// The lockheld rule: no blocking operation while a sync.Mutex or
// sync.RWMutex is held.  The telemetry registry and the parallel pool
// both take short critical sections on hot paths; a channel op, a
// WaitGroup.Wait or a solver entry inside one turns a bounded lock into
// an unbounded convoy (or a deadlock once the blocked goroutine is the
// one that would release the lock).
//
// The analysis is lexical per block: a region starts at `x.Lock()` /
// `x.RLock()` and ends at the matching `x.Unlock()` / `x.RUnlock()`
// statement in the same block; `defer x.Unlock()` extends the region to
// the end of the function.  Inside a region the rule flags channel
// sends and receives, select statements, ranging over a channel, any
// `.Wait()` call, and calls into the linalg/thermal solver entry
// points.  Function literals are skipped: they run later, usually after
// the lock is gone.
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
	return "no blocking call (channel op, Wait, solver entry) while a sync.Mutex/RWMutex is held"
}

func (lockheldRule) Check(p *Package) []Finding {
	if p.Info == nil {
		return nil
	}
	var out []Finding
	w := heldWalker{p: p, stmt: func(stmt ast.Stmt, _ []heldLock) {
		out = append(out, p.flagBlockingShallow(stmt)...)
	}}
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
				w.block(body, nil)
			}
			return true
		})
	}
	return out
}

// heldLock is one mutex in a lexical held set.
type heldLock struct {
	// obj is the mutex variable or field; nil when the receiver
	// resolves to none (lockheld still tracks it by name).
	obj types.Object
	// name is the receiver's printed form, the region key.
	name string
	// pos is the Lock call's position.
	pos token.Position
}

// mutexCall classifies a call as a Lock, RLock, Unlock or RUnlock method
// call on a sync.Mutex or sync.RWMutex; method is "" for any other call.
func mutexCall(p *Package, call *ast.CallExpr) (method string, l heldLock) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", l
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", l
	}
	tv, ok := p.Info.Types[sel.X]
	if !ok || tv.Type == nil || !isSyncMutex(tv.Type) {
		return "", l
	}
	return sel.Sel.Name, heldLock{obj: mutexObject(p, sel.X), name: types.ExprString(sel.X), pos: p.Fset.Position(call.Pos())}
}

func isAcquire(method string) bool { return method == "Lock" || method == "RLock" }

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

// heldWalker walks a function body statement by statement with the
// lexical held-lock discipline shared by lockheld and the lock-order
// graph: a region opens at `x.Lock()` / `x.RLock()` and closes at the
// matching `x.Unlock()` / `x.RUnlock()` statement in the same block,
// keyed by the receiver's printed form; `defer x.Unlock()` keeps it
// open to the end of the function.
type heldWalker struct {
	p *Package
	// acquire, when set, sees every Lock/RLock statement (deferred ones
	// included) with the locks held before it.
	acquire func(l heldLock, held []heldLock)
	// stmt sees every other statement that runs with a lock held; the
	// walker itself recurses into the statement's nested blocks.
	stmt func(s ast.Stmt, held []heldLock)
}

func (w heldWalker) block(block *ast.BlockStmt, held []heldLock) {
	cur := append([]heldLock(nil), held...)
	for _, stmt := range block.List {
		var call *ast.CallExpr
		deferred := false
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			call, _ = s.X.(*ast.CallExpr)
		case *ast.DeferStmt:
			call, deferred = s.Call, true
		}
		if call != nil {
			if method, l := mutexCall(w.p, call); method != "" {
				if isAcquire(method) && w.acquire != nil {
					w.acquire(l, cur)
				}
				i := slices.IndexFunc(cur, func(h heldLock) bool { return h.name == l.name })
				switch {
				case deferred:
				case isAcquire(method) && i < 0:
					cur = append(cur, l)
				case !isAcquire(method) && i >= 0:
					cur = slices.Delete(cur, i, i+1)
				}
				continue
			}
		}
		if len(cur) > 0 {
			w.stmt(stmt, cur)
		}
		w.nested(stmt, cur)
	}
}

// nested recurses into the block children of stmt with the current
// held set.
func (w heldWalker) nested(stmt ast.Stmt, held []heldLock) {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		w.block(s, held)
	case *ast.IfStmt:
		w.block(s.Body, held)
		if s.Else != nil {
			w.nested(s.Else, held)
		}
	case *ast.ForStmt:
		w.block(s.Body, held)
	case *ast.RangeStmt:
		w.block(s.Body, held)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.block(&ast.BlockStmt{List: cc.Body}, held)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.block(&ast.BlockStmt{List: cc.Body}, held)
			}
		}
	}
}

// flagBlockingShallow inspects one statement (not descending into nested
// blocks or function literals — the recursion handles blocks) for
// blocking operations.
func (p *Package) flagBlockingShallow(stmt ast.Stmt) []Finding {
	var out []Finding
	flag := func(n ast.Node, what string) {
		out = append(out, Finding{
			Pos:  p.Fset.Position(n.Pos()),
			Rule: "lockheld",
			Msg:  what + " while a mutex is held",
			Hint: "release the lock first (copy what you need out of the critical section)",
		})
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.BlockStmt:
			return false // handled by the block recursion
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			flag(x, "channel send")
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				flag(x, "channel receive")
			}
		case *ast.SelectStmt:
			flag(x, "select")
			return false
		case *ast.RangeStmt:
			if tv, ok := p.Info.Types[x.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					flag(x, "range over channel")
				}
			}
		case *ast.CallExpr:
			if what, bad := p.blockingCall(x); bad {
				flag(x, what)
				break
			}
			// Interprocedural: the callee's summary proves it (or
			// something it calls) blocks.
			fn := calleeFunc(p, x)
			if bf := p.Facts.summary(fn).blocking(); bf != nil {
				out = append(out, Finding{
					Pos:  p.Fset.Position(x.Pos()),
					Rule: "lockheld",
					Msg: "call to " + strings.Join(prependChain(shortFuncName(fn), bf.Chain), " → ") +
						" reaches " + bf.What + " while a mutex is held",
					Hint: "release the lock first (copy what you need out of the critical section)",
					Related: []Related{{
						Pos: bf.Pos,
						Msg: bf.What + " happens here",
					}},
				})
			}
		}
		return true
	})
	return out
}

// blockingCall reports whether the call is a Wait (sync.WaitGroup and
// friends) or a solver entry point in linalg/thermal.
func (p *Package) blockingCall(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if sel.Sel.Name == "Wait" {
		return "Wait()", true
	}
	obj := p.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	path := obj.Pkg().Path()
	for _, suffix := range []string{"/internal/linalg", "/internal/thermal"} {
		if strings.HasSuffix(path, suffix) {
			name := sel.Sel.Name
			if strings.HasPrefix(name, "CG") || strings.Contains(name, "Solve") {
				return "solver entry " + name, true
			}
		}
	}
	return "", false
}
