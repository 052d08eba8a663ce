// The taintsize rule: a request- or flag-derived integer must not size
// an allocation or bound a loop without passing through a proven
// clamp.  aeropackd turns wire payloads into solver
// work; an unclamped `make([]float64, req.N)` is a one-request
// denial-of-service.
//
// Sources: json-tagged fields (integers, and the lengths of slices and
// maps) of structs declared in packages that import net/http, plus
// dereferences of flag.Int-family variables.  Sinks: make() sizes,
// for-loop bound comparisons, and — through the value-flow summaries —
// any callee parameter that reaches one of those, reported at the
// caller with the full chain.  Clamps are
// ordering comparisons, min/max with a constant bound, %-arithmetic,
// and the module-wide clamped-field fact (the field is ordering-
// compared in its declaring package, the validate()-caps idiom).
package lint

import (
	"go/ast"
	"strings"
)

type taintsizeRule struct{}

func init() { Register(taintsizeRule{}) }

func (taintsizeRule) Name() string { return "taintsize" }

func (taintsizeRule) Doc() string {
	return "request- or flag-derived sizes must be clamped before reaching make or loop bounds"
}

func (taintsizeRule) Check(p *Package) []Finding {
	if p.Info == nil {
		return nil
	}
	var out []Finding
	seen := make(map[string]bool)
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			t := newTaintTracker(p, p.Facts, fd, true)
			t.onSink = func(h sizeSinkHit) {
				pos := p.Fset.Position(h.pos)
				key := pos.String() + "|" + h.origin.desc
				if seen[key] {
					return
				}
				seen[key] = true
				msg := h.origin.desc + " reaches " + h.sink + " without a clamp"
				fd := Finding{
					Pos:  pos,
					Rule: "taintsize",
					Msg:  msg,
					Hint: "bound the value first (validate() cap, if-clamp, or min with a constant)",
				}
				if len(h.chain) > 0 {
					fd.Msg += " via " + strings.Join(h.chain, " → ")
					if h.target.IsValid() {
						fd.Related = []Related{{Pos: h.target, Msg: "the unclamped " + h.sink + " sink is here"}}
					}
				}
				out = append(out, fd)
			}
			t.run()
		}
	}
	return out
}
