// Interprocedural analysis: a module-wide call graph with per-function
// summaries.  The fact store holds one funcSummary per function
// declaration across every loaded package and computes, on demand with
// memoization, what a call to that function implies for the caller:
//
//   - blocking: does the body (transitively) perform a channel op, a
//     Wait, or enter an iterative solver?  Consumed by lockheld.
//   - span parameters: for each *obs.Span parameter, does the body end
//     it on every path, merely use it, or take ownership (store/return/
//     forward it)?  Consumed by spanleak.
//   - error origin: for a pass-through wrapper (`return f()`), which
//     call does the returned error actually come from?  Consumed by
//     errdrop to point through wrappers.
//   - goroutine signals: does the body mark a WaitGroup done or carry a
//     cancellation path (receive/select/range-chan)?  Consumed by
//     goroleak to accept self-managing workers.
//   - size flow and lock acquisition (valueflow.go): which parameters
//     size an allocation unclamped, and which mutexes a call acquires.
//     Consumed by taintsize and the lock-order graph.
//
// Summaries follow call edges resolved through types.Info.Uses, so only
// static calls are followed; calls through interfaces or function values
// have no summary and every consumer treats that as "unknown" and stays
// silent (conservative toward no false positives).  Recursion is handled
// with an in-progress marker per summary kind: a summary requested while
// it is being computed resolves to the kind's zero value, the safe
// "unknown" answer, which makes mutual recursion terminate and keeps the
// result a least fixpoint.
//
// Because rules may run concurrently, Facts.Gather forces every summary
// eagerly (in deterministic order — the memoized cycle answers depend on
// traversal order); afterwards the store is read-only.
//
// Soundness with the result cache: a summary consumed while linting
// package P only describes functions of P itself or of packages P
// (transitively) imports, so P's content-hash cache key — which already
// folds in the transitive in-module dependency sources — rotates
// whenever any summarized body changes.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// maxChain bounds the call-chain breadcrumbs carried in summaries.
const maxChain = 6

// BlockFact says a function (transitively) performs a blocking
// operation.
type BlockFact struct {
	// What names the operation, in lockheld's vocabulary ("channel
	// send", "Wait()", "solver entry CG", ...).
	What string
	// Pos is where the underlying operation happens.
	Pos token.Position
	// Chain lists the intermediate callees between the summarized
	// function and the operation (empty for a direct operation).
	Chain []string
}

// ErrOrigin says where the error a wrapper returns actually comes from.
type ErrOrigin struct {
	// From names the originating callee, e.g. "os.Close".
	From string
	// Pos is the originating call site.
	Pos token.Position
}

// spanBehavior classifies what a callee does with a *obs.Span parameter.
type spanBehavior uint8

const (
	// bhUnknown: not a span parameter, an unresolved callee, or a
	// summary cycle.  Consumers treat it as an ownership transfer.
	bhUnknown spanBehavior = iota
	// bhNeutral: the callee uses the span but neither ends it nor takes
	// ownership — the caller still owes an End.
	bhNeutral
	// bhEnds: the callee ends the span on every path.
	bhEnds
	// bhEscapes: the callee stores, returns or forwards the span.
	bhEscapes
)

// goroFact says whether a function (transitively) marks a WaitGroup
// done or receives, selects or ranges over a channel.
type goroFact struct{ done, cancel bool }

// memo is one lazily computed summary kind of one function.
type memo[T any] struct {
	state uint8 // 0 todo, 1 in progress, 2 done
	val   T
}

// get returns the memoized value, computing it on first use.  A request
// made while the value is being computed — recursion — gets the zero T.
func (m *memo[T]) get(compute func() T) T {
	switch m.state {
	case 1:
		var zero T
		return zero
	case 2:
		return m.val
	}
	m.state = 1
	m.val = compute()
	m.state = 2
	return m.val
}

// funcSummary is one function declaration in the module-wide call
// graph, with its lazily computed summaries.  A nil *funcSummary (no
// declaration in the module) answers every kind with its zero value.
type funcSummary struct {
	facts *Facts
	fn    *types.Func
	decl  *ast.FuncDecl
	pkg   *Package

	block     memo[*BlockFact]
	spans     memo[[]spanBehavior]
	errOrigin memo[*ErrOrigin]
	goro      memo[goroFact]
	sizes     memo[[]SizeFact] // parameters that size allocations unclamped
	locks     memo[[]LockFact] // mutexes the body (transitively) acquires
}

// summary returns fn's call-graph summary, nil when fn is nil, declared
// outside the module, or the store is nil.
func (fs *Facts) summary(fn *types.Func) *funcSummary {
	if fs == nil || fn == nil {
		return nil
	}
	return fs.funcs[fn]
}

// index registers one function declaration of p as a call-graph node.
func (fs *Facts) index(p *Package, fd *ast.FuncDecl) {
	fn, ok := p.Info.Defs[fd.Name].(*types.Func)
	if !ok || fd.Body == nil {
		return
	}
	if _, seen := fs.funcs[fn]; !seen {
		fs.funcs[fn] = &funcSummary{facts: fs, fn: fn, decl: fd, pkg: p}
	}
}

// forceAll computes every summary eagerly and returns the nodes in the
// order it visited them.  Order matters: the memoized answer a cycle
// member sees depends on which member is forced first, so nodes are
// visited in (file, offset) order to keep runs deterministic.
func (fs *Facts) forceAll() []*funcSummary {
	ordered := make([]*funcSummary, 0, len(fs.funcs))
	for _, n := range fs.funcs {
		ordered = append(ordered, n)
	}
	sort.Slice(ordered, func(i, j int) bool {
		return posLess(ordered[i].pkg.Fset.Position(ordered[i].decl.Pos()),
			ordered[j].pkg.Fset.Position(ordered[j].decl.Pos()))
	})
	for _, n := range ordered {
		n.blocking()
		n.spanParams()
		n.errOriginOf()
		n.goroSignals()
		n.sizeFacts()
		n.lockFacts()
	}
	return ordered
}

// posLess orders positions by (filename, offset).
func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	return a.Offset < b.Offset
}

// unparen strips redundant parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

// calleeFunc resolves a call to the static *types.Func it invokes, or
// nil for calls through interfaces, function values or builtins.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch f := unparen(call.Fun).(type) {
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

// shortFuncName renders fn as "pkgname.Name" for messages.
func shortFuncName(fn *types.Func) string {
	if fn == nil {
		return "?"
	}
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return fn.Pkg().Name() + "." + fn.Name()
}

// prependChain builds a breadcrumb chain with the immediate callee in
// front, capped at maxChain entries.
func prependChain(head string, rest []string) []string {
	chain := append([]string{head}, rest...)
	if len(chain) > maxChain {
		chain = chain[:maxChain]
	}
	return chain
}

// ---------------------------------------------------------------------
// Blocking summaries (lockheld).

// blocking returns the function's blocking fact, nil when the body
// cannot block.  A cycle resolves to "does not block": on a recursive
// path the first iteration already exhibits any direct operation, and
// anything only reachable through the back edge is unproven.
func (n *funcSummary) blocking() *BlockFact {
	if n == nil {
		return nil
	}
	return n.block.get(n.blockScan)
}

func (n *funcSummary) blockScan() *BlockFact {
	p := n.pkg
	var found *BlockFact
	ast.Inspect(n.decl.Body, func(m ast.Node) bool {
		if found != nil {
			return false
		}
		switch x := m.(type) {
		case *ast.FuncLit:
			return false // runs later, not during this call
		case *ast.GoStmt:
			return false // concurrent; does not block the caller
		case *ast.DeferStmt:
			return false // runs on the way out; out of scope here
		case *ast.SendStmt:
			found = &BlockFact{What: "channel send", Pos: p.Fset.Position(x.Pos())}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				found = &BlockFact{What: "channel receive", Pos: p.Fset.Position(x.Pos())}
			}
		case *ast.SelectStmt:
			found = &BlockFact{What: "select", Pos: p.Fset.Position(x.Pos())}
			return false
		case *ast.RangeStmt:
			if tv, ok := p.Info.Types[x.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = &BlockFact{What: "range over channel", Pos: p.Fset.Position(x.Pos())}
					return false
				}
			}
		case *ast.CallExpr:
			if what, bad := p.blockingCall(x); bad {
				found = &BlockFact{What: what, Pos: p.Fset.Position(x.Pos())}
				return false
			}
			fn := calleeFunc(p, x)
			if bf := n.facts.summary(fn).blocking(); bf != nil {
				found = &BlockFact{What: bf.What, Pos: bf.Pos, Chain: prependChain(shortFuncName(fn), bf.Chain)}
				return false
			}
		}
		return true
	})
	return found
}

// ---------------------------------------------------------------------
// Span-parameter summaries (spanleak).

// spanParams classifies each parameter of n (flattened, receiver
// excluded).  nil means "unknown" — the summary is mid-computation
// (recursion) — and callers must treat every argument as escaping.
func (n *funcSummary) spanParams() []spanBehavior {
	if n == nil {
		return nil
	}
	return n.spans.get(n.spanParamScan)
}

func (n *funcSummary) spanParamScan() []spanBehavior {
	if n.decl.Type.Params == nil {
		return nil
	}
	p := n.pkg
	var out []spanBehavior
	for _, field := range n.decl.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, bhUnknown) // unnamed: the body cannot use it
			continue
		}
		for _, name := range field.Names {
			obj := p.Info.Defs[name]
			if obj == nil || !isObsSpanPtr(obj.Type()) {
				out = append(out, bhUnknown)
				continue
			}
			out = append(out, n.spanObjBehavior(obj))
		}
	}
	return out
}

// spanObjBehavior decides what n's body does with the span parameter.
func (n *funcSummary) spanObjBehavior(obj types.Object) spanBehavior {
	p := n.pkg
	fl := spanFlow(n.facts, p, n.decl.Body, obj)
	if fl.escapes {
		return bhEscapes
	}
	if fl.deferredEnd || hasDeferredEnd(p, n.decl.Body, obj) {
		return bhEnds
	}
	if _, leaked := firstLeakyReturn(p, n.decl.Body, obj, n.decl.Body.Pos(), fl.extraEnds); !leaked {
		return bhEnds
	}
	return bhNeutral
}

// spanPass records one call a span was handed to without being ended.
type spanPass struct {
	pos    token.Pos
	callee *types.Func
}

// spanFlowResult is the shared span data-flow answer consumed by both
// the spanleak rule and the span-parameter summaries.
type spanFlowResult struct {
	// escapes: ownership left the function (returned, stored, captured
	// by a goroutine, or handed to a callee that keeps/forwards it).
	escapes bool
	// deferredEnd: a deferred call ends the span on every exit.
	deferredEnd bool
	// extraEnds are call positions that end the span — interprocedural
	// End sites to merge with the literal v.End() calls.
	extraEnds []token.Pos
	// neutrals are calls the span was passed to that use it without
	// ending it; the caller still owes the End.
	neutrals []spanPass
}

// spanFlow classifies every use of the span object in body.  Works with
// a nil store (no summaries): every hand-off is then an escape, which
// reproduces the intraprocedural behavior.
func spanFlow(fs *Facts, p *Package, body *ast.BlockStmt, obj types.Object) spanFlowResult {
	var fl spanFlowResult
	goCalls := make(map[*ast.CallExpr]bool)
	deferCalls := make(map[*ast.CallExpr]bool)
	inspectSkipFuncLits(body, func(m ast.Node) {
		if fl.escapes {
			return
		}
		switch x := m.(type) {
		case *ast.GoStmt:
			goCalls[x.Call] = true
		case *ast.DeferStmt:
			deferCalls[x.Call] = true
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if usesObject(p, r, obj) {
					fl.escapes = true
				}
			}
		case *ast.AssignStmt:
			for _, r := range x.Rhs {
				if usesObject(p, r, obj) {
					fl.escapes = true
				}
			}
		case *ast.CompositeLit:
			for _, e := range x.Elts {
				if usesObject(p, e, obj) {
					fl.escapes = true
				}
			}
		case *ast.CallExpr:
			if isEndCallOn(p, x, obj) {
				return // counted by firstLeakyReturn / hasDeferredEnd
			}
			for i, a := range x.Args {
				if !usesObject(p, a, obj) {
					continue
				}
				// Only a bare `sp` argument is classifiable through the
				// callee summary; &sp, wrapper{sp} etc. hand it off.
				id, isIdent := unparen(a).(*ast.Ident)
				if !isIdent || p.Info.Uses[id] != obj {
					fl.escapes = true
					continue
				}
				if goCalls[x] {
					fl.escapes = true // the goroutine owns it now
					continue
				}
				switch fn, beh := argBehavior(fs, p, x, i); beh {
				case bhEnds:
					if deferCalls[x] {
						fl.deferredEnd = true
					} else {
						fl.extraEnds = append(fl.extraEnds, x.Pos())
					}
				case bhNeutral:
					fl.neutrals = append(fl.neutrals, spanPass{pos: x.Pos(), callee: fn})
				default:
					fl.escapes = true
				}
			}
		}
	})
	return fl
}

// argBehavior looks up what the call's callee does with its argIdx-th
// parameter.
func argBehavior(fs *Facts, p *Package, call *ast.CallExpr, argIdx int) (*types.Func, spanBehavior) {
	fn := calleeFunc(p, call)
	n := fs.summary(fn)
	if n == nil {
		return fn, bhUnknown
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || argIdx >= sig.Params().Len() ||
		(sig.Variadic() && argIdx >= sig.Params().Len()-1) {
		return fn, bhUnknown
	}
	params := n.spanParams()
	if argIdx >= len(params) {
		return fn, bhUnknown
	}
	return fn, params[argIdx]
}

// ---------------------------------------------------------------------
// Error-origin summaries (errdrop).

// errOriginOf reports where the error returned by a pass-through
// wrapper originates, nil when n is not a wrapper.
func (n *funcSummary) errOriginOf() *ErrOrigin {
	if n == nil {
		return nil
	}
	return n.errOrigin.get(n.errOriginScan)
}

func (n *funcSummary) errOriginScan() *ErrOrigin {
	p := n.pkg
	sig, ok := n.fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	returnsErr := false
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Identical(sig.Results().At(i).Type(), errorType) {
			returnsErr = true
		}
	}
	if !returnsErr {
		return nil
	}
	var origin *ErrOrigin
	inspectSkipFuncLits(n.decl.Body, func(m ast.Node) {
		if origin != nil {
			return
		}
		ret, ok := m.(*ast.ReturnStmt)
		if !ok {
			return
		}
		for _, r := range ret.Results {
			call, ok := unparen(r).(*ast.CallExpr)
			if !ok || !p.resultsIncludeError(call) {
				continue
			}
			// Chase the error through nested wrappers to the innermost
			// producing call; an interface or function-value call has
			// nothing nameable.
			if fn := calleeFunc(p, call); fn != nil {
				origin = n.facts.summary(fn).errOriginOf()
				if origin == nil {
					origin = &ErrOrigin{From: shortFuncName(fn), Pos: p.Fset.Position(call.Pos())}
				}
			}
			return
		}
	})
	return origin
}

// ---------------------------------------------------------------------
// Goroutine summaries (goroleak).

// goroSignals reports whether n's body (transitively, skipping nested
// literals) marks a WaitGroup done or has a cancellation path.
func (n *funcSummary) goroSignals() goroFact {
	if n == nil {
		return goroFact{}
	}
	return n.goro.get(n.goroScan)
}

func (n *funcSummary) goroScan() goroFact {
	p := n.pkg
	var g goroFact
	inspectSkipFuncLits(n.decl.Body, func(m ast.Node) {
		switch x := m.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				g.cancel = true
			}
		case *ast.SelectStmt:
			g.cancel = true
		case *ast.RangeStmt:
			if tv, ok := p.Info.Types[x.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					g.cancel = true
				}
			}
		case *ast.CallExpr:
			if isWaitGroupDone(p, x) {
				g.done = true
				return
			}
			c := n.facts.summary(calleeFunc(p, x)).goroSignals()
			g.done = g.done || c.done
			g.cancel = g.cancel || c.cancel
		}
	})
	return g
}

// isWaitGroupDone matches wg.Done() on a sync.WaitGroup receiver.
func isWaitGroupDone(p *Package, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	tv, ok := p.Info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj() != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup"
}
