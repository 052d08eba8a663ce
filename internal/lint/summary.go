// Interprocedural analysis: a module-wide call graph with per-function
// summaries.  The fact store builds one funcNode per function
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
//
// Summaries follow call edges resolved through types.Info.Uses, so only
// static calls are followed; calls through interfaces or function values
// have no summary and every consumer treats that as "unknown" and stays
// silent (conservative toward no false positives).  Recursion is handled
// with an on-stack marker: a summary requested while it is being
// computed resolves to the safe "unknown" answer, which makes mutual
// recursion terminate and keeps the result a least fixpoint.
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

// summary computation states.
const (
	stTodo uint8 = iota
	stInProgress
	stDone
)

// funcNode is one function declaration in the module-wide call graph,
// with its lazily-computed summaries.
type funcNode struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package

	blockState uint8
	block      *BlockFact

	spanState uint8
	spans     []spanBehavior

	errState  uint8
	errOrigin *ErrOrigin

	goroState  uint8
	goroDone   bool // body (transitively) calls WaitGroup.Done
	goroCancel bool // body (transitively) receives/selects/ranges a channel

	sizeState uint8
	sizes     []SizeFact // parameters that size allocations unclamped

	lockState uint8
	locks     []LockFact // mutexes the body (transitively) acquires
}

// summaries is the call-graph fact kind stored alongside the
// types.Object facts.  A nil *summaries behaves like an empty store.
type summaries struct {
	nodes map[*types.Func]*funcNode
}

func newSummaries() *summaries {
	return &summaries{nodes: make(map[*types.Func]*funcNode)}
}

// index registers every function declaration of p as a call-graph node.
func (s *summaries) index(p *Package) {
	if p == nil || p.Info == nil {
		return
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if _, seen := s.nodes[fn]; seen {
				continue
			}
			s.nodes[fn] = &funcNode{fn: fn, decl: fd, pkg: p}
		}
	}
}

// forceAll computes every summary eagerly.  Order matters: the memoized
// answer a cycle member sees depends on which member is forced first, so
// nodes are visited in (file, offset) order to keep runs deterministic.
// After forceAll the store is read-only and safe for concurrent rules.
func (s *summaries) forceAll() {
	for _, n := range s.orderedNodes() {
		s.blocking(n)
		s.spanParams(n)
		s.errOriginOf(n)
		s.goroSignals(n)
		s.sizeFacts(n)
		s.lockFacts(n)
	}
}

// orderedNodes returns every call-graph node in deterministic (file,
// offset) order — the traversal order forceAll and the lock-edge gather
// share.
func (s *summaries) orderedNodes() []*funcNode {
	ordered := make([]*funcNode, 0, len(s.nodes))
	for _, n := range s.nodes {
		ordered = append(ordered, n)
	}
	sort.Slice(ordered, func(i, j int) bool {
		a := ordered[i].pkg.Fset.Position(ordered[i].decl.Pos())
		b := ordered[j].pkg.Fset.Position(ordered[j].decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return ordered
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
func (s *summaries) blocking(n *funcNode) *BlockFact {
	switch n.blockState {
	case stInProgress:
		return nil
	case stDone:
		return n.block
	}
	n.blockState = stInProgress
	n.block = s.blockScan(n)
	n.blockState = stDone
	return n.block
}

func (s *summaries) blockScan(n *funcNode) *BlockFact {
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
			if fn == nil || fn == n.fn {
				return true
			}
			cn := s.nodes[fn]
			if cn == nil {
				return true
			}
			if bf := s.blocking(cn); bf != nil {
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
func (s *summaries) spanParams(n *funcNode) []spanBehavior {
	switch n.spanState {
	case stInProgress:
		return nil
	case stDone:
		return n.spans
	}
	n.spanState = stInProgress
	n.spans = s.spanParamScan(n)
	n.spanState = stDone
	return n.spans
}

func (s *summaries) spanParamScan(n *funcNode) []spanBehavior {
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
			out = append(out, s.spanObjBehavior(n, obj))
		}
	}
	return out
}

// spanObjBehavior decides what n's body does with the span parameter.
func (s *summaries) spanObjBehavior(n *funcNode, obj types.Object) spanBehavior {
	p := n.pkg
	fl := s.spanFlow(p, n.decl.Body, obj)
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

// spanFlow classifies every use of the span object in body.  Works on a
// nil receiver (no summaries): every hand-off is then an escape, which
// reproduces the intraprocedural v2 behavior.
func (s *summaries) spanFlow(p *Package, body *ast.BlockStmt, obj types.Object) spanFlowResult {
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
				switch fn, beh := s.argBehavior(p, x, i); beh {
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
func (s *summaries) argBehavior(p *Package, call *ast.CallExpr, argIdx int) (*types.Func, spanBehavior) {
	if s == nil {
		return nil, bhUnknown
	}
	fn := calleeFunc(p, call)
	if fn == nil {
		return nil, bhUnknown
	}
	cn := s.nodes[fn]
	if cn == nil {
		return fn, bhUnknown
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || argIdx >= sig.Params().Len() ||
		(sig.Variadic() && argIdx >= sig.Params().Len()-1) {
		return fn, bhUnknown
	}
	params := s.spanParams(cn)
	if argIdx >= len(params) {
		return fn, bhUnknown
	}
	return fn, params[argIdx]
}

// ---------------------------------------------------------------------
// Error-origin summaries (errdrop).

// errOriginOf reports where the error returned by a pass-through
// wrapper originates, nil when n is not a wrapper.
func (s *summaries) errOriginOf(n *funcNode) *ErrOrigin {
	switch n.errState {
	case stInProgress:
		return nil
	case stDone:
		return n.errOrigin
	}
	n.errState = stInProgress
	n.errOrigin = s.errOriginScan(n)
	n.errState = stDone
	return n.errOrigin
}

func (s *summaries) errOriginScan(n *funcNode) *ErrOrigin {
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
			origin = s.callOrigin(p, call)
			return
		}
	})
	return origin
}

// callOrigin chases the error through nested wrappers to the innermost
// producing call.
func (s *summaries) callOrigin(p *Package, call *ast.CallExpr) *ErrOrigin {
	fn := calleeFunc(p, call)
	if fn == nil {
		return nil // interface/function-value call: nothing nameable
	}
	if cn := s.nodes[fn]; cn != nil {
		if inner := s.errOriginOf(cn); inner != nil {
			return inner
		}
	}
	return &ErrOrigin{From: shortFuncName(fn), Pos: p.Fset.Position(call.Pos())}
}

// ---------------------------------------------------------------------
// Goroutine summaries (goroleak).

// goroSignals reports whether n's body (transitively, skipping nested
// literals) marks a WaitGroup done or has a cancellation path.
func (s *summaries) goroSignals(n *funcNode) (done, cancel bool) {
	switch n.goroState {
	case stInProgress:
		return false, false
	case stDone:
		return n.goroDone, n.goroCancel
	}
	n.goroState = stInProgress
	n.goroDone, n.goroCancel = s.goroScan(n)
	n.goroState = stDone
	return n.goroDone, n.goroCancel
}

func (s *summaries) goroScan(n *funcNode) (done, cancel bool) {
	p := n.pkg
	inspectSkipFuncLits(n.decl.Body, func(m ast.Node) {
		switch x := m.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				cancel = true
			}
		case *ast.SelectStmt:
			cancel = true
		case *ast.RangeStmt:
			if tv, ok := p.Info.Types[x.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					cancel = true
				}
			}
		case *ast.CallExpr:
			if isWaitGroupDone(p, x) {
				done = true
				return
			}
			fn := calleeFunc(p, x)
			if fn == nil || fn == n.fn {
				return
			}
			if cn := s.nodes[fn]; cn != nil {
				d, c := s.goroSignals(cn)
				done = done || d
				cancel = cancel || c
			}
		}
	})
	return done, cancel
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
