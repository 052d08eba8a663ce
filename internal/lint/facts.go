// Cross-package facts.  A fact is a statement about a types.Object that
// one package proves and another package's rule consumes — the mechanism
// that lets rules see through exported boundaries the way go/analysis
// facts do, without leaving the stdlib.
//
// Gather walks every loaded package once (including packages loaded
// only as dependencies) before any rule runs, so checks observe a
// complete store.  One walk per file records four object fact kinds:
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
//   - flag variable: a package-level variable bound to a flag.Int-family
//     result (a taintsize source).
//   - clamped field: a json-tagged field ordering-compared in its
//     declaring package (a taintsize sanitizer).
//
// The same pass indexes every function declaration for the call-graph
// summaries (summary.go), forces them, and derives the module-wide
// lock-order graph from them.
//
// Fact flow follows the import graph: a fact about an object in package
// P can only be consumed by packages that (transitively) import P, which
// keeps the content-hash cache sound — a package's cache key already
// covers its transitive in-module deps.
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
	// wrapped maps a package-level error variable to one fmt.Errorf
	// call that wraps it with %w.
	wrapped map[types.Object]wrapSite
	// magicConst maps an exported constant object to the units hint for
	// the conversion factor its value equals.
	magicConst map[types.Object]string
	// flagVar maps a package-level variable bound to flag.Int-family
	// results to the flag's name.
	flagVar map[types.Object]string
	// clampedField marks json-tagged fields that are ordering-compared
	// somewhere in their declaring package — the validate()-caps idiom
	// that sanitizes the field module-wide.
	clampedField map[types.Object]bool
	// funcs holds one call-graph summary per function declaration.
	funcs map[*types.Func]*funcSummary
	// lockEdges is the module-wide lock-order graph: every observed
	// "acquire B while holding A" pair, tagged with the package that
	// proves it (lockorder).
	lockEdges    []LockEdge
	lockEdgeSeen map[lockEdgeKey]bool
}

// wrapSite is where a sentinel is wrapped with %w.
type wrapSite struct {
	pkg string // import path of the wrapping package
	pos token.Position
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
		wrapped:      make(map[types.Object]wrapSite),
		magicConst:   make(map[types.Object]string),
		flagVar:      make(map[types.Object]string),
		clampedField: make(map[types.Object]bool),
		funcs:        make(map[*types.Func]*funcSummary),
		lockEdgeSeen: make(map[lockEdgeKey]bool),
	}
}

// wrappedAt returns a %w wrap site of the sentinel object.
func (fs *Facts) wrappedAt(obj types.Object) (wrapSite, bool) {
	if fs == nil || obj == nil {
		return wrapSite{}, false
	}
	w, ok := fs.wrapped[obj]
	return w, ok
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

// LockEdges returns the module-wide lock-order graph.  Consumers must
// filter by their import closure (LockEdge.Pkg) to stay cache-sound.
func (fs *Facts) LockEdges() []LockEdge {
	if fs == nil {
		return nil
	}
	return fs.lockEdges
}

// Gather scans pkgs and records every fact they prove.  Call it with
// every loaded package (the Loader's Loaded() slice) before running
// rules, so consumers in importing packages see a complete store.  The
// call-graph summaries are forced here too, eagerly, so the rule phase
// can run concurrently against a read-only store.
func (fs *Facts) Gather(pkgs []*Package) {
	for _, p := range pkgs {
		if p.Info != nil {
			fs.gatherPackage(p)
		}
	}
	ordered := fs.forceAll()
	for _, n := range ordered {
		fs.gatherLockEdges(n)
	}
}

// gatherPackage records p's object facts and indexes its functions, in
// one walk per file.
func (fs *Facts) gatherPackage(p *Package) {
	// internal/units is the canonical home of the conversion constants
	// and internal/lint holds the table itself, mirroring the literal
	// scan.
	magicExempt := strings.HasSuffix(p.ImportPath, "/internal/units") ||
		strings.HasSuffix(p.ImportPath, "/internal/lint")
	for _, f := range p.Files {
		// A for-condition comparison is a sink (the field *drives* the
		// iteration count), not a clamp; pre-order visits the ForStmt
		// before its condition.
		loopConds := make(map[ast.Expr]bool)
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				fs.index(p, d)
			case *ast.GenDecl:
				fs.gatherPackageLevel(p, d, magicExempt)
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.CallExpr:
					fs.gatherWrap(p, x)
				case *ast.ForStmt:
					if x.Cond != nil {
						loopConds[x.Cond] = true
					}
				case *ast.BinaryExpr:
					if isOrdering(x.Op) && !loopConds[x] && p.Pkg != nil {
						fs.gatherClamp(p, x.X)
						fs.gatherClamp(p, x.Y)
					}
				}
				return true
			})
		}
	}
}

// gatherWrap records package-level error variables wrapped by a
// fmt.Errorf("... %w ...", ..., sentinel) call; the first wrap site
// seen wins.
func (fs *Facts) gatherWrap(p *Package, call *ast.CallExpr) {
	if len(call.Args) < 2 {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Errorf" {
		return
	}
	if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "fmt" {
		return
	}
	format, ok := call.Args[0].(*ast.BasicLit)
	if !ok || format.Kind != token.STRING || !strings.Contains(format.Value, "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		obj := p.packageLevelErrorVar(arg)
		if obj == nil {
			continue
		}
		if _, seen := fs.wrapped[obj]; !seen {
			fs.wrapped[obj] = wrapSite{pkg: p.ImportPath, pos: p.Fset.Position(call.Pos())}
		}
	}
}

// gatherPackageLevel records the package-level facts of one top-level
// declaration: exported constants equal to a unitsafety conversion
// factor, and variables bound to flag.Int-family results.
func (fs *Facts) gatherPackageLevel(p *Package, gd *ast.GenDecl, magicExempt bool) {
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			switch gd.Tok {
			case token.CONST:
				c, ok := p.Info.Defs[name].(*types.Const)
				if magicExempt || !name.IsExported() || !ok || c.Val() == nil ||
					(c.Val().Kind() != constant.Float && c.Val().Kind() != constant.Int) {
					continue
				}
				v, _ := constant.Float64Val(constant.ToFloat(c.Val()))
				if hint := unitHint(v); hint != "" {
					fs.magicConst[c] = hint
				}
			case token.VAR:
				if len(vs.Values) != len(vs.Names) {
					continue
				}
				call, ok := unparen(vs.Values[i]).(*ast.CallExpr)
				if !ok {
					continue
				}
				if flagName := flagIntCall(p, call); flagName != "" {
					if obj := p.Info.Defs[name]; obj != nil {
						fs.flagVar[obj] = flagName
					}
				}
			}
		}
	}
}

// gatherClamp records a json-tagged field ordering-compared (directly
// or via len()) in its own declaring package — the validate()-caps
// idiom.  Restricting the record to the declaring package keeps fact
// flow aligned with the import graph: every consumer of the field
// necessarily imports its declaring package.
func (fs *Facts) gatherClamp(p *Package, side ast.Expr) {
	if call, ok := unparen(side).(*ast.CallExpr); ok && isLenOrCap(p, call) {
		side = call.Args[0]
	}
	sel, ok := unparen(side).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fv, tag := jsonFieldOf(p, sel)
	if fv != nil && jsonTagName(tag) != "" && fv.Pkg() == p.Pkg {
		fs.clampedField[fv] = true
	}
}

// gatherLockEdges walks n's body with the lexical held-lock discipline
// lockheld uses and records an edge each time a second mutex is
// acquired — directly, or transitively through a callee's lock summary
// — while another is held.
func (fs *Facts) gatherLockEdges(n *funcSummary) {
	p := n.pkg
	w := heldWalker{p: p}
	w.acquire = func(l heldLock, held []heldLock) {
		for _, h := range held {
			fs.addLockEdge(p, h, l, token.Position{}, nil)
		}
	}
	// Shallow inspection skips nested blocks (the walker recurses into
	// those) and literals, go and defer statements, which run outside
	// the current acquisition order.
	w.stmt = func(stmt ast.Stmt, held []heldLock) {
		ast.Inspect(stmt, func(m ast.Node) bool {
			switch x := m.(type) {
			case *ast.BlockStmt, *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
				return false
			case *ast.CallExpr:
				if method, l := mutexCall(p, x); isAcquire(method) && l.obj != nil {
					w.acquire(l, held)
					return true
				}
				fn := calleeFunc(p, x)
				for _, lf := range fs.summary(fn).lockFacts() {
					acq := heldLock{obj: lf.Obj, name: lf.Name, pos: p.Fset.Position(x.Pos())}
					for _, h := range held {
						fs.addLockEdge(p, h, acq, lf.Pos, prependChain(shortFuncName(fn), lf.Chain))
					}
				}
			}
			return true
		})
	}
	w.block(n.decl.Body, nil)
}

// addLockEdge records one ordered acquisition pair, deduplicated per
// (from, to, package).  Re-acquiring the same mutex object under a
// different receiver expression (a.mu then b.mu) is two instances, not
// an ordering edge; the same printed form is a genuine self-deadlock.
func (fs *Facts) addLockEdge(p *Package, h, to heldLock, acqPos token.Position, chain []string) {
	if to.obj == nil || h.obj == nil {
		return
	}
	if h.obj == to.obj && h.name != to.name {
		return
	}
	key := lockEdgeKey{from: h.obj, to: to.obj, pkg: p.ImportPath}
	if fs.lockEdgeSeen[key] {
		return
	}
	fs.lockEdgeSeen[key] = true
	fs.lockEdges = append(fs.lockEdges, LockEdge{
		From: h.obj, To: to.obj,
		FromName: h.name, ToName: to.name,
		FromPos: h.pos, Pos: to.pos, AcqPos: acqPos,
		Chain: chain, Pkg: p.ImportPath,
	})
}
