// The unitsafety rule: inline unit-conversion arithmetic is forbidden
// outside internal/units.
package lint

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// magicConstant is one literal value that encodes a unit conversion or a
// physical constant already provided by internal/units.
type magicConstant struct {
	val  float64
	hint string
}

// unitMagic lists the conversion factors and physical constants that must
// come from internal/units.  Matching is by numeric value, so 273.15,
// 2.7315e2 and 27315e-2 all hit the same entry.
var unitMagic = []magicConstant{
	{273.15, "use units.CToK/units.KToC (or units.ZeroCelsius for the constant itself)"},
	{3600, "use units.Hour/units.ToHour (or units.KgPerHour for mass flow)"},
	{25.4e-6, "use units.Mil"},
	{9.80665, "use units.Gravity or units.GLevel"},
	{101325, "use units.AtmPressure"},
	{8.314462618, "use units.GasConstant"},
	{5.670374419e-8, "use units.StefanBoltzmann"},
	{1.380649e-23, "use units.Boltzmann"},
	{4.719474432e-4, "use units.CFM"},
	{60000, "use units.LPerMin"},
	{1e4, "use units.WPerCm2"},
}

// unitHint returns the units hint for a value equal to one of the
// unitMagic entries, or "".
func unitHint(v float64) string {
	for _, m := range unitMagic {
		if v == m.val { //lint:allow floatcmp exact table lookup by value
			return m.hint
		}
	}
	return ""
}

type unitsafetyRule struct{}

func init() { Register(unitsafetyRule{}) }

func (unitsafetyRule) Name() string { return "unitsafety" }

func (unitsafetyRule) Doc() string {
	return "forbid inline unit-conversion literals (273.15, 3600, 9.80665, ...) outside internal/units"
}

// checkFactUses flags uses of exported constants from *other* packages
// whose value equals a conversion factor — sites that contain no
// literal at all, so the textual scan below cannot see them.  The facts
// store carries the constant's value across the package boundary.
func checkFactUses(p *Package, f *ast.File) []Finding {
	if p.Info == nil || p.Facts == nil {
		return nil
	}
	var out []Finding
	ast.Inspect(f, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.Info.Uses[id]
		if obj == nil || obj.Pkg() == nil || obj.Pkg() == p.Pkg {
			return true
		}
		hint := p.Facts.MagicHint(obj)
		if hint == "" {
			return true
		}
		out = append(out, Finding{
			Pos:  p.Fset.Position(id.Pos()),
			Rule: "unitsafety",
			Msg:  "use of unit-conversion constant " + obj.Pkg().Name() + "." + obj.Name(),
			Hint: hint,
		})
		return true
	})
	return out
}

func (unitsafetyRule) Check(p *Package) []Finding {
	// internal/units is where conversions live; internal/lint holds the
	// magic-number table itself.
	if strings.HasSuffix(p.ImportPath, "/internal/units") ||
		strings.HasSuffix(p.ImportPath, "/internal/lint") {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		out = append(out, checkFactUses(p, f)...)
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || (lit.Kind != token.FLOAT && lit.Kind != token.INT) {
				return true
			}
			v, err := strconv.ParseFloat(lit.Value, 64)
			if err != nil {
				return true
			}
			if hint := unitHint(v); hint != "" {
				out = append(out, Finding{
					Pos:  p.Fset.Position(lit.Pos()),
					Rule: "unitsafety",
					Msg:  "inline unit-conversion literal " + lit.Value,
					Hint: hint,
				})
			}
			return true
		})
	}
	return out
}
