// Cross-package facts.  A Fact is a statement about a types.Object that
// one package proves and another package's rule consumes — the mechanism
// that lets rules see through exported boundaries the way go/analysis
// facts do, without leaving the stdlib.
//
// Two fact kinds exist today:
//
//   - wrapped sentinel: a package-level error variable is wrapped with
//     fmt.Errorf("... %w ...", ..., Sentinel) somewhere in the module.
//     Once wrapped, `err == Sentinel` can never match the wrapped chain,
//     so the errdrop rule upgrades such comparisons from a convention
//     violation to a proven bug.
//   - magic constant: an exported constant whose value equals one of the
//     unitsafety conversion factors.  The defining package is flagged by
//     the literal scan; the fact lets unitsafety also flag *uses* of the
//     constant from other packages, which contain no literal at all.
//
// Facts are gathered in a pass over every loaded package (including
// packages loaded only as dependencies) before any rule runs, so checks
// observe a complete store.  Fact flow follows the import graph: a fact
// about an object in package P can only be consumed by packages that
// (transitively) import P, which keeps the content-hash cache sound —
// a package's cache key already covers its transitive in-module deps.
package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// Facts is the cross-package fact store shared by one lint run.
type Facts struct {
	// wrappedSentinel maps a package-level error variable to the import
	// path of one package that wraps it with fmt.Errorf("%w").
	wrappedSentinel map[types.Object]string
	// wrappedSentinelAt records the wrap site itself, for related
	// locations in exported findings.
	wrappedSentinelAt map[types.Object]token.Position
	// magicConst maps an exported constant object to the units hint for
	// the conversion factor its value equals.
	magicConst map[types.Object]string
	// flagVar maps a package-level variable bound to flag.Int-family
	// results to the flag's name (taintsize source).
	flagVar map[types.Object]string
	// clampedField marks json-tagged fields that are ordering-compared
	// somewhere in their declaring package — the validate()-caps idiom
	// that sanitizes the field module-wide (taintsize).
	clampedField map[types.Object]bool
	// atomicAccess maps a variable or field object to the sync/atomic
	// call that touches it (atomicmix).
	atomicAccess map[types.Object]AtomicFact
	// lockEdges is the module-wide lock-order graph: every observed
	// "acquire B while holding A" pair, tagged with the package that
	// proves it (lockorder).
	lockEdges    []LockEdge
	lockEdgeSeen map[lockEdgeKey]bool
	// sums is the call-graph summary store (interprocedural fact kind).
	sums *summaries
}

// AtomicFact records one sync/atomic access to a variable or field.
type AtomicFact struct {
	// Fn names the atomic operation, e.g. "atomic.AddInt64".
	Fn string
	// Pos is the atomic call site.
	Pos token.Position
	// Pkg is the import path of the package performing the access; the
	// fact is only visible to packages whose import closure contains it.
	Pkg string
}

// LockEdge is one observed ordered pair of mutex acquisitions: To was
// acquired (directly or through a callee) while From was held.
type LockEdge struct {
	From, To types.Object
	// FromName/ToName are the receivers' printed forms at the sites.
	FromName, ToName string
	// FromPos is where the held lock was taken.
	FromPos token.Position
	// Pos is the second acquisition site, inside Pkg.
	Pos token.Position
	// AcqPos is the underlying Lock() site when the acquisition happens
	// in a callee (zero for a direct acquisition).
	AcqPos token.Position
	// Chain lists the callees between Pos and AcqPos.
	Chain []string
	// Pkg is the import path of the package the edge was observed in.
	Pkg string
}

type lockEdgeKey struct {
	from, to types.Object
	pkg      string
}

// NewFacts returns an empty store.
func NewFacts() *Facts {
	return &Facts{
		wrappedSentinel:   make(map[types.Object]string),
		wrappedSentinelAt: make(map[types.Object]token.Position),
		magicConst:        make(map[types.Object]string),
		flagVar:           make(map[types.Object]string),
		clampedField:      make(map[types.Object]bool),
		atomicAccess:      make(map[types.Object]AtomicFact),
		lockEdgeSeen:      make(map[lockEdgeKey]bool),
		sums:              newSummaries(),
	}
}

// WrappedIn returns the import path of a package that wraps the
// sentinel object with %w, or "" when none is known.
func (fs *Facts) WrappedIn(obj types.Object) string {
	if fs == nil || obj == nil {
		return ""
	}
	return fs.wrappedSentinel[obj]
}

// WrappedAt returns the recorded %w wrap site for the sentinel object.
func (fs *Facts) WrappedAt(obj types.Object) (token.Position, bool) {
	if fs == nil || obj == nil {
		return token.Position{}, false
	}
	pos, ok := fs.wrappedSentinelAt[obj]
	return pos, ok
}

// summaries exposes the call-graph store to rules; nil-safe.
func (fs *Facts) summaries() *summaries {
	if fs == nil {
		return nil
	}
	return fs.sums
}

// CallBlocks reports whether the statically-resolved callee of call
// (transitively) blocks, with the callee's name prepended to the chain.
func (fs *Facts) CallBlocks(p *Package, call *ast.CallExpr) *BlockFact {
	s := fs.summaries()
	if s == nil {
		return nil
	}
	fn := calleeFunc(p, call)
	if fn == nil {
		return nil
	}
	cn := s.nodes[fn]
	if cn == nil {
		return nil
	}
	bf := s.blocking(cn)
	if bf == nil {
		return nil
	}
	return &BlockFact{What: bf.What, Pos: bf.Pos, Chain: prependChain(shortFuncName(fn), bf.Chain)}
}

// ErrOriginOf reports where the error returned by fn (a pass-through
// wrapper) originates, nil when unknown or fn produces its own errors.
func (fs *Facts) ErrOriginOf(fn *types.Func) *ErrOrigin {
	s := fs.summaries()
	if s == nil || fn == nil {
		return nil
	}
	cn := s.nodes[fn]
	if cn == nil {
		return nil
	}
	return s.errOriginOf(cn)
}

// GoroSignals reports whether fn marks a WaitGroup done or carries a
// cancellation path (used by goroleak for `go worker()` launches).
func (fs *Facts) GoroSignals(fn *types.Func) (done, cancel, known bool) {
	s := fs.summaries()
	if s == nil || fn == nil {
		return false, false, false
	}
	cn := s.nodes[fn]
	if cn == nil {
		return false, false, false
	}
	done, cancel = s.goroSignals(cn)
	return done, cancel, true
}

// MagicHint returns the units hint for an exported constant equal to a
// unit-conversion factor, or "" when the object carries no such fact.
func (fs *Facts) MagicHint(obj types.Object) string {
	if fs == nil || obj == nil {
		return ""
	}
	return fs.magicConst[obj]
}

// FlagVar returns the flag name a package-level variable was bound to
// via flag.Int and friends, or "".
func (fs *Facts) FlagVar(obj types.Object) string {
	if fs == nil || obj == nil {
		return ""
	}
	return fs.flagVar[obj]
}

// FieldClamped reports whether the json-tagged field is ordering-
// compared in its declaring package (a module-wide clamp).
func (fs *Facts) FieldClamped(obj types.Object) bool {
	return fs != nil && obj != nil && fs.clampedField[obj]
}

// AtomicAccess returns the sync/atomic access fact for a variable or
// field object.
func (fs *Facts) AtomicAccess(obj types.Object) (AtomicFact, bool) {
	if fs == nil || obj == nil {
		return AtomicFact{}, false
	}
	af, ok := fs.atomicAccess[obj]
	return af, ok
}

// LockEdges returns the module-wide lock-order graph.  Consumers must
// filter by their import closure (LockEdge.Pkg) to stay cache-sound.
func (fs *Facts) LockEdges() []LockEdge {
	if fs == nil {
		return nil
	}
	return fs.lockEdges
}

// SizeFactsOf lists fn's parameters that size an allocation or bound a
// loop without a clamp.
func (fs *Facts) SizeFactsOf(fn *types.Func) []SizeFact {
	s := fs.summaries()
	if s == nil || fn == nil {
		return nil
	}
	cn := s.nodes[fn]
	if cn == nil {
		return nil
	}
	return s.sizeFacts(cn)
}

// Gather scans pkgs and records every fact they prove.  Call it with
// every loaded package (the Loader's Loaded() slice) before running
// rules, so consumers in importing packages see a complete store.  The
// call-graph summaries are indexed and forced here too, eagerly, so the
// rule phase can run concurrently against a read-only store.
func (fs *Facts) Gather(pkgs []*Package) {
	for _, p := range pkgs {
		fs.gatherWrappedSentinels(p)
		fs.gatherMagicConsts(p)
		fs.gatherFlagVars(p)
		fs.gatherClampedFields(p)
		fs.gatherAtomicAccess(p)
	}
	if fs.sums != nil {
		for _, p := range pkgs {
			fs.sums.index(p)
		}
		fs.sums.forceAll()
		fs.gatherLockEdges()
	}
}

// gatherWrappedSentinels records package-level error variables that are
// wrapped with fmt.Errorf("... %w ...", ..., sentinel) in p.
func (fs *Facts) gatherWrappedSentinels(p *Package) {
	if p.Info == nil {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 2 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Errorf" {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "fmt" {
				return true
			}
			format, ok := call.Args[0].(*ast.BasicLit)
			if !ok || format.Kind != token.STRING || !strings.Contains(format.Value, "%w") {
				return true
			}
			for _, arg := range call.Args[1:] {
				obj := fs.sentinelObject(p, arg)
				if obj == nil {
					continue
				}
				if _, seen := fs.wrappedSentinel[obj]; !seen {
					fs.wrappedSentinel[obj] = p.ImportPath
					fs.wrappedSentinelAt[obj] = p.Fset.Position(call.Pos())
				}
			}
			return true
		})
	}
}

// sentinelObject resolves e to a package-level variable of type error,
// or nil.
func (fs *Facts) sentinelObject(p *Package, e ast.Expr) types.Object {
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
	if obj == nil {
		return nil
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Parent() == nil || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return nil
	}
	if !types.Identical(v.Type(), types.Universe.Lookup("error").Type()) {
		return nil
	}
	return obj
}

// gatherMagicConsts records exported package-level constants whose value
// equals a unitsafety conversion factor.  internal/units (the canonical
// home of those constants) and internal/lint (the table itself) are
// exempt, mirroring the literal scan.
func (fs *Facts) gatherMagicConsts(p *Package) {
	if p.Info == nil ||
		strings.HasSuffix(p.ImportPath, "/internal/units") ||
		strings.HasSuffix(p.ImportPath, "/internal/lint") {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if !name.IsExported() {
						continue
					}
					obj := p.Info.Defs[name]
					c, ok := obj.(*types.Const)
					if !ok || c.Val() == nil {
						continue
					}
					if c.Val().Kind() != constant.Float && c.Val().Kind() != constant.Int {
						continue
					}
					v, _ := constant.Float64Val(constant.ToFloat(c.Val()))
					for _, m := range unitMagic {
						if v == m.val { //lint:allow floatcmp exact table lookup by value
							fs.magicConst[obj] = m.hint
							break
						}
					}
				}
			}
		}
	}
}

// gatherFlagVars records package-level variables bound to flag.Int-
// family results; derefs of such vars are taintsize sources everywhere
// the variable is visible.
func (fs *Facts) gatherFlagVars(p *Package) {
	if p.Info == nil {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != len(vs.Names) {
					continue
				}
				for i, name := range vs.Names {
					call, ok := unparen(vs.Values[i]).(*ast.CallExpr)
					if !ok {
						continue
					}
					flagName := flagIntCall(p, call)
					if flagName == "" {
						continue
					}
					if obj := p.Info.Defs[name]; obj != nil {
						fs.flagVar[obj] = flagName
					}
				}
			}
		}
	}
}

// gatherClampedFields records json-tagged fields that are ordering-
// compared (directly or via len()) in their own declaring package —
// the validate()-caps idiom.  Restricting the record to the declaring
// package keeps fact flow aligned with the import graph: every
// consumer of the field necessarily imports its declaring package.
func (fs *Facts) gatherClampedFields(p *Package) {
	if p.Info == nil || p.Pkg == nil {
		return
	}
	record := func(e ast.Expr) {
		sel, ok := unparen(e).(*ast.SelectorExpr)
		if !ok {
			return
		}
		fv, tag := jsonFieldOf(p, sel)
		if fv == nil || jsonTagName(tag) == "" || fv.Pkg() != p.Pkg {
			return
		}
		fs.clampedField[fv] = true
	}
	for _, f := range p.Files {
		// A for-condition comparison is a sink (the field *drives* the
		// iteration count), not a clamp; exclude it from the record.
		loopConds := make(map[ast.Expr]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			if fo, ok := n.(*ast.ForStmt); ok && fo.Cond != nil {
				loopConds[fo.Cond] = true
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || !isOrdering(be.Op) || loopConds[be] {
				return true
			}
			for _, side := range []ast.Expr{be.X, be.Y} {
				record(side)
				if call, ok := unparen(side).(*ast.CallExpr); ok && isLenOrCap(p, call) {
					record(call.Args[0])
				}
			}
			return true
		})
	}
}

// gatherAtomicAccess records variables and fields passed by address to
// sync/atomic operations.  The smallest position wins so concurrent
// load orders cannot change which site a finding cites.
func (fs *Facts) gatherAtomicAccess(p *Package) {
	if p.Info == nil {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, target := atomicCallTarget(p, call)
			if target == nil {
				return true
			}
			af := AtomicFact{Fn: "atomic." + name, Pos: p.Fset.Position(call.Pos()), Pkg: p.ImportPath}
			if old, seen := fs.atomicAccess[target]; !seen || posLess(af.Pos, old.Pos) {
				fs.atomicAccess[target] = af
			}
			return true
		})
	}
}

// atomicCallTarget matches atomic.LoadInt64(&x.f) and friends and
// resolves the target object.
func atomicCallTarget(p *Package, call *ast.CallExpr) (string, types.Object) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return "", nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", nil
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "sync/atomic" {
		return "", nil
	}
	name := sel.Sel.Name
	prefixed := false
	for _, prefix := range []string{"Load", "Store", "Add", "Swap", "CompareAndSwap"} {
		if strings.HasPrefix(name, prefix) {
			prefixed = true
			break
		}
	}
	if !prefixed {
		return "", nil
	}
	amp, ok := unparen(call.Args[0]).(*ast.UnaryExpr)
	if !ok || amp.Op != token.AND {
		return "", nil
	}
	switch x := unparen(amp.X).(type) {
	case *ast.Ident:
		return name, p.Info.Uses[x]
	case *ast.SelectorExpr:
		return name, p.Info.Uses[x.Sel]
	}
	return "", nil
}

// posLess orders positions by (filename, offset) — the forceAll order.
func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	return a.Offset < b.Offset
}

// ---------------------------------------------------------------------
// Lock-order edges.

// heldLock is one mutex in the lexical held set.
type heldLock struct {
	obj  types.Object
	name string
	pos  token.Position
}

// gatherLockEdges walks every function with the lexical held-set
// discipline of lockheld and records an edge each time a second mutex
// is acquired — directly, or transitively through a callee's lock
// summary — while another is held.  Runs after forceAll, in the same
// deterministic node order.
func (fs *Facts) gatherLockEdges() {
	for _, n := range fs.sums.orderedNodes() {
		fs.lockEdgeBlock(n, n.decl.Body, nil)
	}
}

func (fs *Facts) lockEdgeBlock(n *funcNode, block *ast.BlockStmt, held []heldLock) {
	p := n.pkg
	cur := append([]heldLock(nil), held...)
	for _, stmt := range block.List {
		if obj, name, method, isDefer, pos := lockStmt(p, stmt); method != "" {
			switch method {
			case "Lock", "RLock":
				for _, h := range cur {
					fs.addLockEdge(n, h, obj, name, pos, token.Position{}, nil)
				}
				if !isDefer {
					cur = append(cur, heldLock{obj: obj, name: name, pos: pos})
				}
			case "Unlock", "RUnlock":
				// A plain Unlock releases; `defer Unlock` keeps the
				// region open to the end of the function.
				if !isDefer {
					for i := len(cur) - 1; i >= 0; i-- {
						if cur[i].name == name {
							cur = append(cur[:i], cur[i+1:]...)
							break
						}
					}
				}
			}
			continue
		}
		if len(cur) > 0 {
			fs.lockEdgeShallow(n, stmt, cur)
		}
		fs.lockEdgeNested(n, stmt, cur)
	}
}

// lockStmt classifies a statement as a Lock-family call on a sync
// mutex, resolving the mutex's identity object.
func lockStmt(p *Package, stmt ast.Stmt) (obj types.Object, name, method string, isDefer bool, pos token.Position) {
	var call *ast.CallExpr
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		call, _ = s.X.(*ast.CallExpr)
	case *ast.DeferStmt:
		call, isDefer = s.Call, true
	}
	if call == nil {
		return nil, "", "", false, token.Position{}
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, "", "", false, token.Position{}
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return nil, "", "", false, token.Position{}
	}
	tv, ok := p.Info.Types[sel.X]
	if !ok || tv.Type == nil || !isSyncMutex(tv.Type) {
		return nil, "", "", false, token.Position{}
	}
	obj = mutexObject(p, sel.X)
	if obj == nil {
		return nil, "", "", false, token.Position{}
	}
	return obj, types.ExprString(sel.X), sel.Sel.Name, isDefer, p.Fset.Position(call.Pos())
}

// lockEdgeShallow inspects one statement (not descending into nested
// blocks — the recursion handles those — nor into literals, go or defer
// statements, which run outside the current acquisition order) for
// acquisitions while held.
func (fs *Facts) lockEdgeShallow(n *funcNode, stmt ast.Stmt, held []heldLock) {
	p := n.pkg
	ast.Inspect(stmt, func(m ast.Node) bool {
		switch x := m.(type) {
		case *ast.BlockStmt, *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.CallExpr:
			if obj, name, ok := mutexAcquire(p, x); ok {
				for _, h := range held {
					fs.addLockEdge(n, h, obj, name, p.Fset.Position(x.Pos()), token.Position{}, nil)
				}
				return true
			}
			fn := calleeFunc(p, x)
			if fn == nil {
				return true
			}
			if cn := fs.sums.nodes[fn]; cn != nil {
				for _, lf := range fs.sums.lockFacts(cn) {
					for _, h := range held {
						fs.addLockEdge(n, h, lf.Obj, lf.Name, p.Fset.Position(x.Pos()), lf.Pos,
							prependChain(shortFuncName(fn), lf.Chain))
					}
				}
			}
		}
		return true
	})
}

// lockEdgeNested recurses into the block children of stmt with the
// current held set.
func (fs *Facts) lockEdgeNested(n *funcNode, stmt ast.Stmt, held []heldLock) {
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		fs.lockEdgeBlock(n, s, held)
	case *ast.IfStmt:
		fs.lockEdgeBlock(n, s.Body, held)
		if s.Else != nil {
			fs.lockEdgeNested(n, s.Else, held)
		}
	case *ast.ForStmt:
		fs.lockEdgeBlock(n, s.Body, held)
	case *ast.RangeStmt:
		fs.lockEdgeBlock(n, s.Body, held)
	case *ast.SwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				fs.lockEdgeBlock(n, &ast.BlockStmt{List: cc.Body}, held)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				fs.lockEdgeBlock(n, &ast.BlockStmt{List: cc.Body}, held)
			}
		}
	}
}

// addLockEdge records one ordered acquisition pair, deduplicated per
// (from, to, package).  Re-acquiring the same mutex object under a
// different receiver expression (a.mu then b.mu) is two instances, not
// an ordering edge; the same printed form is a genuine self-deadlock.
func (fs *Facts) addLockEdge(n *funcNode, h heldLock, to types.Object, toName string, pos, acqPos token.Position, chain []string) {
	if to == nil || h.obj == nil {
		return
	}
	if h.obj == to && h.name != toName {
		return
	}
	key := lockEdgeKey{from: h.obj, to: to, pkg: n.pkg.ImportPath}
	if fs.lockEdgeSeen[key] {
		return
	}
	fs.lockEdgeSeen[key] = true
	fs.lockEdges = append(fs.lockEdges, LockEdge{
		From: h.obj, To: to,
		FromName: h.name, ToName: toName,
		FromPos: h.pos, Pos: pos, AcqPos: acqPos,
		Chain: chain, Pkg: n.pkg.ImportPath,
	})
}
