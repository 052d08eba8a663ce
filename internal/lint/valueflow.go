// The value-flow engine: def-use taint tracking over the typed AST,
// layered on the PR 6 call-graph summaries so taint and lock facts
// propagate across function and package boundaries.
//
// Two analyses share the machinery:
//
//   - size taint (taintsize): an integer derived from a wire-level
//     request field (a json-tagged struct field of a package that talks
//     HTTP) or from a command-line flag reaches an allocation-sized
//     sink — a make() size or a loop bound — without passing through a
//     proven clamp.  Per-function summaries record
//     which parameters flow into such sinks, so the caller is flagged
//     with the full call chain.
//   - lock acquisition (lockorder): per-function summaries of which
//     sync.Mutex/RWMutex objects a call (transitively) acquires; the
//     fact store combines them with lexical held-set tracking into a
//     module-wide lock-order graph.
//
// Taint is deliberately narrow: it flows through assignments, +,-,*
// arithmetic, conversions, len()/cap() of tainted slices and min/max of
// all-tainted arguments.  It does NOT flow through other call results
// or composite literals — silence on an unproven path beats a false
// positive.  Taint dies at a clamp:
//
//   - an ordering comparison (<, <=, >, >=) mentioning the value (or
//     len() of it) anywhere before the sink — the if-clamp idiom;
//   - min()/max() with at least one untainted bound;
//   - %, / and & arithmetic (the result is bounded by the operands);
//   - re-assignment from an untainted expression;
//   - a module-wide clamped-field fact: the json field is ordering-
//     compared against something in its declaring package (the
//     validate()-caps idiom), which sanitizes every use of the field.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strconv"
	"strings"
)

// maxSizeFacts bounds the size-sink facts recorded per function.
const maxSizeFacts = 8

// maxLockFacts bounds the mutex acquisitions recorded per function.
const maxLockFacts = 8

// SizeFact says a call to the summarized function lets its Param-th
// argument (flattened index, receiver excluded) size an allocation or
// bound a loop without a clamp.
type SizeFact struct {
	// Param is the flattened parameter index the taint enters through.
	Param int
	// Sink names the sink kind: "make size" or "loop bound".
	Sink string
	// Pos is the sink site.
	Pos token.Position
	// Chain lists intermediate callees between the summarized function
	// and the sink (empty for a direct sink).
	Chain []string
}

// LockFact says the summarized function (transitively) acquires a
// mutex.  Obj identifies the mutex variable or field; Name is the
// receiver's printed form at the acquisition site.
type LockFact struct {
	Obj   types.Object
	Name  string
	Pos   token.Position
	Chain []string
}

// taintOrigin describes where a tainted value came from.
type taintOrigin struct {
	// desc names the source for messages, e.g. `request field "powers_w"`
	// or `flag -workers` or `parameter n`.
	desc string
	// param is the flattened parameter index in summary mode, -1 when the
	// source is a request field or flag.
	param int
}

// sizeSinkHit is one taint-reaches-sink event reported by the tracker.
type sizeSinkHit struct {
	origin *taintOrigin
	// sink names the sink kind ("make size" or "loop bound").
	sink string
	// pos is the site in the tracked function (argument or bound).
	pos token.Pos
	// target is the underlying sink when it lives in a callee (zero
	// Position for a direct sink).
	target token.Position
	// chain lists the callees between the tracked function and target.
	chain []string
}

// taintTracker walks one function body in source order, maintaining
// int- and slice-taint maps plus a sanitized set, and reports every
// taint-reaches-sink event through onSink.
type taintTracker struct {
	p    *Package
	s    *summaries
	decl *ast.FuncDecl

	// wireSource seeds json-tagged wire fields and flag derefs as taint
	// sources (rule mode); summary mode seeds parameters instead.
	wireSource bool

	intTaint   map[types.Object]*taintOrigin
	sliceTaint map[types.Object]*taintOrigin
	// flagPtr tracks locals bound to flag.Int()-family results.
	flagPtr map[types.Object]string
	// sanitized marks objects (locals and field objects) that passed an
	// ordering comparison before the current program point.
	sanitized map[types.Object]bool
	// loopConds marks for-condition expressions: their comparisons are
	// sinks, not clamps.
	loopConds map[ast.Expr]bool

	onSink func(sizeSinkHit)
}

func newTaintTracker(p *Package, s *summaries, decl *ast.FuncDecl, wireSource bool) *taintTracker {
	return &taintTracker{
		p: p, s: s, decl: decl, wireSource: wireSource,
		intTaint:   make(map[types.Object]*taintOrigin),
		sliceTaint: make(map[types.Object]*taintOrigin),
		flagPtr:    make(map[types.Object]string),
		sanitized:  make(map[types.Object]bool),
		loopConds:  make(map[ast.Expr]bool),
	}
}

// run walks the function body.  ast.Inspect's pre-order traversal
// visits statements in source order, which is what the flow-sensitive
// sanitized set needs; branch joins are handled optimistically (a clamp
// on either path counts), trading soundness for near-zero false
// positives.
func (t *taintTracker) run() {
	if t.decl.Body == nil {
		return
	}
	ast.Inspect(t.decl.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ForStmt:
			if be, ok := x.Cond.(*ast.BinaryExpr); ok && isComparison(be.Op) {
				t.loopConds[x.Cond] = true
				t.checkLoopBound(be)
			}
		case *ast.BinaryExpr:
			if isOrdering(x.Op) && !t.loopConds[x] {
				t.sanitizeExpr(x.X)
				t.sanitizeExpr(x.Y)
			}
		case *ast.AssignStmt:
			t.assign(x)
		case *ast.CallExpr:
			t.callSinks(x)
		}
		return true
	})
}

func isComparison(op token.Token) bool {
	switch op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
		return true
	}
	return false
}

// isOrdering reports the clamp-shaped comparison operators.  ==/!= test
// identity, not magnitude, and do not bound anything.
func isOrdering(op token.Token) bool {
	switch op {
	case token.LSS, token.GTR, token.LEQ, token.GEQ:
		return true
	}
	return false
}

// checkLoopBound flags tainted operands of a for-condition comparison.
func (t *taintTracker) checkLoopBound(be *ast.BinaryExpr) {
	for _, side := range []ast.Expr{be.X, be.Y} {
		if o := t.intTaintOf(side); o != nil {
			t.hit(sizeSinkHit{origin: o, sink: "loop bound", pos: side.Pos()})
		}
	}
}

func (t *taintTracker) hit(h sizeSinkHit) {
	if t.onSink != nil {
		t.onSink(h)
	}
}

// sanitizeExpr marks the objects an ordering comparison proves bounded:
// identifiers, flag derefs, json fields (by field object, so every
// later use of the field in this function is clean) and len()/cap() of
// any of those.
func (t *taintTracker) sanitizeExpr(e ast.Expr) {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		if obj := t.p.Info.Uses[x]; obj != nil {
			t.sanitized[obj] = true
		}
	case *ast.SelectorExpr:
		if fv, _ := jsonFieldOf(t.p, x); fv != nil {
			t.sanitized[fv] = true
		}
	case *ast.StarExpr:
		t.sanitizeExpr(x.X)
	case *ast.CallExpr:
		if isLenOrCap(t.p, x) {
			t.sanitizeExpr(x.Args[0])
		}
	case *ast.BinaryExpr:
		t.sanitizeExpr(x.X)
		t.sanitizeExpr(x.Y)
	}
}

// assign propagates taint from RHS to LHS with strong updates: an
// untainted right-hand side kills any previous taint on the target.
func (t *taintTracker) assign(as *ast.AssignStmt) {
	if len(as.Lhs) == len(as.Rhs) {
		for i := range as.Lhs {
			t.assignOne(as.Lhs[i], as.Rhs[i])
		}
		return
	}
	// Multi-value assignment from one call: call results are trusted
	// (taint does not cross call returns), so clear the targets.
	for _, l := range as.Lhs {
		if obj := lhsObject(t.p, l); obj != nil {
			t.clearTaint(obj)
		}
	}
}

func (t *taintTracker) assignOne(l, r ast.Expr) {
	obj := lhsObject(t.p, l)
	if obj == nil {
		return
	}
	if call, ok := unparen(r).(*ast.CallExpr); ok {
		if name := flagIntCall(t.p, call); name != "" {
			t.flagPtr[obj] = name
			return
		}
	}
	if o := t.intTaintOf(r); o != nil {
		t.intTaint[obj] = o
		delete(t.sliceTaint, obj)
		delete(t.sanitized, obj) // re-tainted after a clamp
		return
	}
	if o := t.sliceTaintOf(r); o != nil {
		t.sliceTaint[obj] = o
		delete(t.intTaint, obj)
		delete(t.sanitized, obj)
		return
	}
	t.clearTaint(obj)
}

func (t *taintTracker) clearTaint(obj types.Object) {
	delete(t.intTaint, obj)
	delete(t.sliceTaint, obj)
}

// lhsObject resolves an assignment target to its object; nil for
// blanks, selectors, and index expressions (field/element stores are
// not tracked).
func lhsObject(p *Package, l ast.Expr) types.Object {
	id, ok := unparen(l).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := p.Info.Defs[id]; obj != nil {
		return obj
	}
	return p.Info.Uses[id]
}

// intTaintOf reports the taint origin of an integer-valued expression,
// nil when clean.
func (t *taintTracker) intTaintOf(e ast.Expr) *taintOrigin {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		obj := t.p.Info.Uses[x]
		if obj == nil || t.sanitized[obj] {
			return nil
		}
		return t.intTaint[obj]
	case *ast.SelectorExpr:
		return t.fieldTaint(x, false)
	case *ast.StarExpr:
		return t.flagDerefTaint(x)
	case *ast.BinaryExpr:
		switch x.Op {
		case token.ADD, token.SUB, token.MUL, token.SHL:
			if o := t.intTaintOf(x.X); o != nil {
				return o
			}
			return t.intTaintOf(x.Y)
		}
		return nil // %, /, &, shifts right: bounded by the operands
	case *ast.CallExpr:
		return t.callTaint(x)
	}
	return nil
}

// flagDerefTaint reports taint for *p where p is a flag.Int-family
// pointer (a tracked local or a package-level flag var fact).
func (t *taintTracker) flagDerefTaint(star *ast.StarExpr) *taintOrigin {
	id, ok := unparen(star.X).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := t.p.Info.Uses[id]
	if obj == nil || t.sanitized[obj] {
		return nil
	}
	if name, ok := t.flagPtr[obj]; ok {
		return &taintOrigin{desc: "flag -" + name, param: -1}
	}
	if name := t.p.Facts.FlagVar(obj); name != "" {
		return &taintOrigin{desc: "flag -" + name, param: -1}
	}
	return nil
}

// sliceTaintOf reports the taint origin of a slice/map-valued
// expression — its *length* is what taints downstream len() calls.
func (t *taintTracker) sliceTaintOf(e ast.Expr) *taintOrigin {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		obj := t.p.Info.Uses[x]
		if obj == nil || t.sanitized[obj] {
			return nil
		}
		return t.sliceTaint[obj]
	case *ast.SelectorExpr:
		return t.fieldTaint(x, true)
	case *ast.SliceExpr:
		return t.sliceTaintOf(x.X)
	}
	return nil
}

// fieldTaint decides whether a selector denotes a taint source: a
// json-tagged field (int-ish or slice-like, per wantSlice) of a struct
// declared in a wire package, not clamped anywhere in its declaring
// package and not sanitized earlier in this function.
func (t *taintTracker) fieldTaint(sel *ast.SelectorExpr, wantSlice bool) *taintOrigin {
	if !t.wireSource {
		return nil
	}
	fv, tag := jsonFieldOf(t.p, sel)
	if fv == nil || t.sanitized[fv] {
		return nil
	}
	name := jsonTagName(tag)
	if name == "" {
		return nil
	}
	if wantSlice {
		if !isSliceLike(fv.Type()) {
			return nil
		}
	} else if !isIntish(fv.Type()) {
		return nil
	}
	if !wirePackage(fv.Pkg()) || t.p.Facts.FieldClamped(fv) {
		return nil
	}
	return &taintOrigin{desc: "request field " + strconv.Quote(name), param: -1}
}

// callTaint handles the few calls taint crosses: len/cap of a tainted
// slice, min/max with every argument tainted, and conversions.
func (t *taintTracker) callTaint(call *ast.CallExpr) *taintOrigin {
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := t.p.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "len", "cap":
				if len(call.Args) == 1 {
					return t.sliceTaintOf(call.Args[0])
				}
			case "min", "max":
				var origin *taintOrigin
				for _, a := range call.Args {
					o := t.intTaintOf(a)
					if o == nil {
						return nil // an untainted bound clamps the result
					}
					origin = o
				}
				return origin
			}
			return nil
		}
	}
	if tv, ok := t.p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return t.intTaintOf(call.Args[0]) // conversion preserves the value
	}
	return nil // other call results are trusted
}

// callSinks checks one call expression for size sinks: make() sizes
// and — interprocedurally — arguments flowing into a callee whose
// summary says the parameter sizes an allocation.
func (t *taintTracker) callSinks(call *ast.CallExpr) {
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := t.p.Info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "make" && len(call.Args) > 1 {
				for _, a := range call.Args[1:] {
					if o := t.intTaintOf(a); o != nil {
						t.hit(sizeSinkHit{origin: o, sink: "make size", pos: a.Pos()})
					}
				}
			}
			return
		}
	}
	fn := calleeFunc(t.p, call)
	if fn == nil || t.s == nil {
		return
	}
	cn := t.s.nodes[fn]
	if cn == nil {
		return
	}
	facts := t.s.sizeFacts(cn)
	if len(facts) == 0 {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	for i, a := range call.Args {
		if sig != nil && sig.Variadic() && i >= sig.Params().Len()-1 {
			break // variadic tail: element, not size, semantics
		}
		o := t.intTaintOf(a)
		if o == nil {
			o = t.sliceTaintOf(a)
		}
		if o == nil {
			continue
		}
		for _, sf := range facts {
			if sf.Param != i {
				continue
			}
			t.hit(sizeSinkHit{
				origin: o, sink: sf.Sink, pos: a.Pos(),
				target: sf.Pos, chain: prependChain(shortFuncName(fn), sf.Chain),
			})
		}
	}
}

// ---------------------------------------------------------------------
// Type and tag helpers.

// isIntish reports integer-kinded types (sizes, counts, worker knobs).
func isIntish(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// isSliceLike reports slices and maps — the types whose len() a wire
// payload controls.
func isSliceLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

func isLenOrCap(p *Package, call *ast.CallExpr) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || len(call.Args) != 1 {
		return false
	}
	b, ok := p.Info.Uses[id].(*types.Builtin)
	return ok && (b.Name() == "len" || b.Name() == "cap")
}

// jsonFieldOf resolves a selector to a struct-field variable and its
// raw struct tag; (nil, "") for non-field selectors.
func jsonFieldOf(p *Package, sel *ast.SelectorExpr) (*types.Var, string) {
	selInfo := p.Info.Selections[sel]
	if selInfo == nil || selInfo.Kind() != types.FieldVal {
		return nil, ""
	}
	fv, ok := selInfo.Obj().(*types.Var)
	if !ok {
		return nil, ""
	}
	// Walk the index path to the field's declaring struct for the tag.
	typ := selInfo.Recv()
	var tag string
	for _, idx := range selInfo.Index() {
		if ptr, ok := typ.Underlying().(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		st, ok := typ.Underlying().(*types.Struct)
		if !ok || idx >= st.NumFields() {
			return nil, ""
		}
		tag = st.Tag(idx)
		typ = st.Field(idx).Type()
	}
	return fv, tag
}

// jsonTagName extracts the wire name from a `json:"..."` tag; "" when
// the field has no json tag or is explicitly skipped.
func jsonTagName(tag string) string {
	v, ok := reflect.StructTag(tag).Lookup("json")
	if !ok {
		return ""
	}
	name, _, _ := strings.Cut(v, ",")
	if name == "-" {
		return ""
	}
	return name
}

// wirePackage reports whether pkg speaks HTTP (imports net/http
// directly) — the heuristic for "this package's json-tagged structs
// are wire payloads", which keeps trusted local JSON (benchmark files,
// reports) out of scope.
func wirePackage(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	for _, im := range pkg.Imports() {
		if im.Path() == "net/http" {
			return true
		}
	}
	return false
}

// flagIntCall matches flag.Int/Int64/Uint/Uint64(...) and returns the
// flag name, "" otherwise.
func flagIntCall(p *Package, call *ast.CallExpr) string {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) < 1 {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "flag" {
		return ""
	}
	switch sel.Sel.Name {
	case "Int", "Int64", "Uint", "Uint64":
	default:
		return ""
	}
	lit, ok := unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return ""
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil {
		return ""
	}
	return name
}

// ---------------------------------------------------------------------
// Size-flow summaries (taintsize).

// sizeFacts reports which parameters of n flow, unclamped, into a size
// sink.  A cycle resolves to "no flow" (anything only reachable through
// the back edge is unproven).
func (s *summaries) sizeFacts(n *funcNode) []SizeFact {
	switch n.sizeState {
	case stInProgress:
		return nil
	case stDone:
		return n.sizes
	}
	n.sizeState = stInProgress
	n.sizes = s.sizeScan(n)
	n.sizeState = stDone
	return n.sizes
}

func (s *summaries) sizeScan(n *funcNode) []SizeFact {
	if n.decl.Type.Params == nil || n.decl.Body == nil {
		return nil
	}
	p := n.pkg
	t := newTaintTracker(p, s, n.decl, false)
	idx := 0
	for _, field := range n.decl.Type.Params.List {
		if len(field.Names) == 0 {
			idx++ // unnamed parameter: the body cannot use it
			continue
		}
		for _, name := range field.Names {
			if obj := p.Info.Defs[name]; obj != nil {
				origin := &taintOrigin{desc: "parameter " + name.Name, param: idx}
				switch {
				case isIntish(obj.Type()):
					t.intTaint[obj] = origin
				case isSliceLike(obj.Type()):
					t.sliceTaint[obj] = origin
				}
			}
			idx++
		}
	}
	if len(t.intTaint)+len(t.sliceTaint) == 0 {
		return nil
	}
	var out []SizeFact
	seen := make(map[string]bool)
	t.onSink = func(h sizeSinkHit) {
		if h.origin.param < 0 || len(out) >= maxSizeFacts {
			return
		}
		pos := h.target
		if !pos.IsValid() {
			pos = p.Fset.Position(h.pos)
		}
		key := strconv.Itoa(h.origin.param) + "|" + h.sink + "|" + pos.String()
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, SizeFact{Param: h.origin.param, Sink: h.sink, Pos: pos, Chain: h.chain})
	}
	t.run()
	return out
}

// ---------------------------------------------------------------------
// Lock-acquisition summaries (lockorder).

// lockFacts lists the mutexes n (transitively) acquires.  Function
// literals, go statements and defers are skipped: they run outside the
// caller's current acquisition order.
func (s *summaries) lockFacts(n *funcNode) []LockFact {
	switch n.lockState {
	case stInProgress:
		return nil
	case stDone:
		return n.locks
	}
	n.lockState = stInProgress
	n.locks = s.lockScan(n)
	n.lockState = stDone
	return n.locks
}

func (s *summaries) lockScan(n *funcNode) []LockFact {
	p := n.pkg
	var out []LockFact
	seen := make(map[types.Object]bool)
	add := func(lf LockFact) {
		if len(out) < maxLockFacts && !seen[lf.Obj] {
			seen[lf.Obj] = true
			out = append(out, lf)
		}
	}
	ast.Inspect(n.decl.Body, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if obj, name, ok := mutexAcquire(p, x); ok {
				add(LockFact{Obj: obj, Name: name, Pos: p.Fset.Position(x.Pos())})
				return true
			}
			fn := calleeFunc(p, x)
			if fn == nil || fn == n.fn {
				return true
			}
			if cn := s.nodes[fn]; cn != nil {
				for _, lf := range s.lockFacts(cn) {
					add(LockFact{Obj: lf.Obj, Name: lf.Name, Pos: lf.Pos, Chain: prependChain(shortFuncName(fn), lf.Chain)})
				}
			}
		}
		return true
	})
	return out
}

// mutexAcquire matches x.Lock() / x.RLock() on a sync.Mutex/RWMutex and
// resolves the mutex's identity object (the field or variable).
func mutexAcquire(p *Package, call *ast.CallExpr) (types.Object, string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
		return nil, "", false
	}
	tv, ok := p.Info.Types[sel.X]
	if !ok || tv.Type == nil || !isSyncMutex(tv.Type) {
		return nil, "", false
	}
	obj := mutexObject(p, sel.X)
	if obj == nil {
		return nil, "", false
	}
	return obj, types.ExprString(sel.X), true
}

// mutexObject resolves the mutex expression to the variable or field
// object that identifies it module-wide.
func mutexObject(p *Package, e ast.Expr) types.Object {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		return p.Info.Uses[x]
	case *ast.SelectorExpr:
		return p.Info.Uses[x.Sel]
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return mutexObject(p, x.X)
		}
	}
	return nil
}

// importClosure returns the import paths visible to p: itself plus its
// transitive imports.  Facts originating outside this set must not be
// consumed while linting p (the content-hash cache key only covers the
// closure).
func importClosure(p *Package) map[string]bool {
	seen := map[string]bool{p.ImportPath: true}
	if p.Pkg == nil {
		return seen
	}
	var walk func(tp *types.Package)
	walk = func(tp *types.Package) {
		for _, im := range tp.Imports() {
			if !seen[im.Path()] {
				seen[im.Path()] = true
				walk(im)
			}
		}
	}
	walk(p.Pkg)
	return seen
}
