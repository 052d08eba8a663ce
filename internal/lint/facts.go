// Cross-package facts.  A fact is a statement about a types.Object that
// one package proves and another package's rule consumes — the mechanism
// that lets rules see through exported boundaries the way go/analysis
// facts do, without leaving the stdlib.
//
// Gather walks every loaded package once (including packages loaded
// only as dependencies) before any rule runs, so checks observe a
// complete store.  It records two object fact kinds, neither of which
// needs a call graph:
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
}

// wrapSite is where a sentinel is wrapped with %w.
type wrapSite struct {
	pkg string // import path of the wrapping package
	pos token.Position
}

// NewFacts returns an empty store.
func NewFacts() *Facts {
	return &Facts{
		wrapped:    make(map[types.Object]wrapSite),
		magicConst: make(map[types.Object]string),
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

// Gather scans pkgs and records every fact they prove.  Call it with
// every loaded package (the Loader's Loaded() slice) before running
// rules, so consumers in importing packages see a complete store; the
// store is read-only afterwards, so the rule phase can run concurrently.
func (fs *Facts) Gather(pkgs []*Package) {
	for _, p := range pkgs {
		if p.Info == nil {
			continue
		}
		// internal/units is the canonical home of the conversion
		// constants and internal/lint holds the table itself, mirroring
		// the literal scan.
		magicExempt := strings.HasSuffix(p.ImportPath, "/internal/units") ||
			strings.HasSuffix(p.ImportPath, "/internal/lint")
		for _, f := range p.Files {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.CONST && !magicExempt {
					fs.gatherMagic(p, gd)
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if call, ok := n.(*ast.CallExpr); ok {
						fs.gatherWrap(p, call)
					}
					return true
				})
			}
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

// gatherMagic records the exported constants of one const declaration
// whose value equals a unitsafety conversion factor.
func (fs *Facts) gatherMagic(p *Package, gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, name := range vs.Names {
			c, ok := p.Info.Defs[name].(*types.Const)
			if !name.IsExported() || !ok || c.Val() == nil ||
				(c.Val().Kind() != constant.Float && c.Val().Kind() != constant.Int) {
				continue
			}
			v, _ := constant.Float64Val(constant.ToFloat(c.Val()))
			if hint := unitHint(v); hint != "" {
				fs.magicConst[c] = hint
			}
		}
	}
}
