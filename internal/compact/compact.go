// Package compact implements component-level compact thermal models — the
// paper's "level 3" (Fig. 4), where every dissipative component is modelled
// with its packaging technology so the junction temperature can feed the
// safety and reliability calculations.
//
// Models follow the JESD15 family: a two-resistor model (θ_j-case-top,
// θ_j-board) for network use, an optional θ_ja still-air estimate, and a
// DELPHI-like multi-node variant with a lead path.  The built-in package
// library carries handbook-class resistances for the package families
// common on avionics boards, including the "low-cost plastic / COTS"
// components the paper is pushing to qualify for severe environments.
package compact

import (
	"fmt"
	"sort"

	"aeropack/internal/thermal"
)

// Package describes a component package's compact thermal model.
type Package struct {
	Name string
	// Two-resistor model (JESD15-3), K/W.
	ThetaJCTop float64 // junction → top of case
	ThetaJB    float64 // junction → board (pins/balls/pad)
	// ThetaJA is the JEDEC still-air junction-to-ambient value, K/W, used
	// only for level-1 sanity screens.
	ThetaJA float64
	// ThetaJL is an optional junction→lead resistance for the DELPHI-like
	// three-path variant (0 = no distinct lead path).
	ThetaJL float64
	// Body dimensions (m) for board-footprint heat spreading.
	Length, Width float64
	// MaxTj is the maximum allowed junction temperature, K.
	MaxTj float64
	// COTS marks commercial plastic parts (the paper's cost drivers) whose
	// MaxTj is the commercial 125 °C/85 °C-ambient limit rather than a
	// mil-grade rating.
	COTS bool
}

// Canonical built-in package models.  The instances are exported so
// known packages are referenced by identifier (compile-checked) instead
// of through a panicking MustGet; Get remains for dynamic string-keyed
// lookup.
var (
	QFP100 = Package{Name: "QFP100", ThetaJCTop: 8, ThetaJB: 22, ThetaJA: 42, ThetaJL: 30, Length: 14e-3, Width: 14e-3, MaxTj: 398.15, COTS: true}
	QFP208 = Package{Name: "QFP208", ThetaJCTop: 6, ThetaJB: 16, ThetaJA: 33, ThetaJL: 24, Length: 28e-3, Width: 28e-3, MaxTj: 398.15, COTS: true}
	BGA256 = Package{Name: "BGA256", ThetaJCTop: 4.5, ThetaJB: 11, ThetaJA: 28, Length: 17e-3, Width: 17e-3, MaxTj: 398.15, COTS: true}
	BGA676 = Package{Name: "BGA676", ThetaJCTop: 3.0, ThetaJB: 7.5, ThetaJA: 19, Length: 27e-3, Width: 27e-3, MaxTj: 398.15, COTS: true}
	SOIC8  = Package{Name: "SOIC8", ThetaJCTop: 28, ThetaJB: 46, ThetaJA: 120, ThetaJL: 60, Length: 5e-3, Width: 4e-3, MaxTj: 398.15, COTS: true}
	TO220  = Package{Name: "TO220", ThetaJCTop: 1.8, ThetaJB: 35, ThetaJA: 62, Length: 10e-3, Width: 9e-3, MaxTj: 423.15}
	TO263  = Package{Name: "TO263", ThetaJCTop: 1.5, ThetaJB: 18, ThetaJA: 55, Length: 10e-3, Width: 9e-3, MaxTj: 423.15}
	DPAK   = Package{Name: "DPAK", ThetaJCTop: 3.0, ThetaJB: 20, ThetaJA: 70, Length: 6.5e-3, Width: 6e-3, MaxTj: 423.15}
	// CQFP172 is the hermetic ceramic option for the harshest bays.
	CQFP172 = Package{Name: "CQFP172", ThetaJCTop: 4.0, ThetaJB: 12, ThetaJA: 30, ThetaJL: 18, Length: 25e-3, Width: 25e-3, MaxTj: 448.15}
	// FCBGACPU is the bare-die / flip-chip microprocessor class: the
	// 10→30/50 W parts in the paper's introduction.
	FCBGACPU = Package{Name: "FCBGA-CPU", ThetaJCTop: 0.35, ThetaJB: 6, ThetaJA: 14, Length: 35e-3, Width: 35e-3, MaxTj: 398.15}
)

// library is the name-keyed index over the canonical instances above.
var library = byName(
	QFP100, QFP208, BGA256, BGA676, SOIC8, TO220, TO263, DPAK, CQFP172,
	FCBGACPU,
)

func byName(ps ...Package) map[string]Package {
	out := make(map[string]Package, len(ps))
	for _, p := range ps {
		out[p.Name] = p
	}
	return out
}

// Get returns the named package model.
func Get(name string) (Package, error) {
	p, ok := library[name]
	if !ok {
		return Package{}, fmt.Errorf("compact: unknown package %q", name)
	}
	return p, nil
}

// Names lists the built-in package names sorted.
func Names() []string {
	out := make([]string, 0, len(library))
	for n := range library {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns the library package models sorted by name.
func All() []Package {
	out := make([]Package, 0, len(library))
	for _, n := range Names() {
		out = append(out, library[n])
	}
	return out
}

// Register adds or replaces a package model.
func Register(p Package) error {
	if p.Name == "" {
		return fmt.Errorf("compact: package needs a name")
	}
	if p.ThetaJCTop <= 0 || p.ThetaJB <= 0 {
		return fmt.Errorf("compact: %q needs positive two-resistor values", p.Name)
	}
	library[p.Name] = p
	return nil
}

// Component is one placed, dissipating part.
type Component struct {
	RefDes string
	Pkg    Package
	Power  float64 // W
	X, Y   float64 // board coordinates of the body centre, m
	// MassKg is the body mass for detailed structural models; 0 derives a
	// default from the footprint (moulded-package density × 3 mm height).
	MassKg float64
}

// Mass returns the body mass, deriving a footprint-based default when the
// field is unset.
func (c *Component) Mass() float64 {
	if c.MassKg > 0 {
		return c.MassKg
	}
	const density, height = 2000.0, 3e-3 // moulded package class
	return c.Pkg.Length * c.Pkg.Width * height * density
}

// Footprint returns the body's bounding box on the board.
func (c *Component) Footprint() (x0, x1, y0, y1 float64) {
	return c.X - c.Pkg.Length/2, c.X + c.Pkg.Length/2,
		c.Y - c.Pkg.Width/2, c.Y + c.Pkg.Width/2
}

// nodeNames derives the network node labels for this component.
func (c *Component) nodeNames() (junction, caseTop, lead string) {
	return c.RefDes + ".j", c.RefDes + ".c", c.RefDes + ".l"
}

// JunctionNode returns the network node name carrying the junction.
func (c *Component) JunctionNode() string { j, _, _ := c.nodeNames(); return j }

// CaseNode returns the network node name of the case top.
func (c *Component) CaseNode() string { _, cs, _ := c.nodeNames(); return cs }

// Attach wires the component's compact model into a thermal network:
// the junction node receives the power; θ_jb couples to boardNode; the
// case-top couples to airNode through θ_jc-top plus a film resistance
// 1/(h·A_top).  If the package has a lead path, θ_jl also couples to
// boardNode.  hTop ≤ 0 leaves the top path open (conduction-only designs).
func (c *Component) Attach(n *thermal.Network, boardNode, airNode string, hTop float64) error {
	if c.Power < 0 {
		return fmt.Errorf("compact: %s has negative power", c.RefDes)
	}
	j, cs, l := c.nodeNames()
	if err := n.AddResistor(j, boardNode, c.Pkg.ThetaJB); err != nil {
		return err
	}
	if c.Pkg.ThetaJL > 0 {
		if err := n.AddResistor(j, boardNode, c.Pkg.ThetaJL); err != nil {
			return err
		}
		_ = l
	}
	if hTop > 0 {
		area := c.Pkg.Length * c.Pkg.Width
		if area <= 0 {
			return fmt.Errorf("compact: %s has no body area for a top path", c.RefDes)
		}
		if err := n.AddResistor(j, cs, c.Pkg.ThetaJCTop); err != nil {
			return err
		}
		if err := n.AddResistor(cs, airNode, 1/(hTop*area)); err != nil {
			return err
		}
	}
	n.AddSource(j, c.Power)
	return nil
}

// JunctionRise returns the steady junction temperature rise above an
// isothermal reference (board and air tied together at the reference) —
// the parallel two-resistor estimate  P·(θjb ∥ θjl ∥ (θjc+1/hA)).
func (c *Component) JunctionRise(hTop float64) float64 {
	g := 1 / c.Pkg.ThetaJB
	if c.Pkg.ThetaJL > 0 {
		g += 1 / c.Pkg.ThetaJL
	}
	if hTop > 0 {
		area := c.Pkg.Length * c.Pkg.Width
		if area > 0 {
			g += 1 / (c.Pkg.ThetaJCTop + 1/(hTop*area))
		}
	}
	return c.Power / g
}

// StillAirJunction estimates Tj in still air at ambient Ta from θ_ja —
// the level-1 screening number.
func (c *Component) StillAirJunction(Ta float64) float64 {
	return Ta + c.Power*c.Pkg.ThetaJA
}

// MarginReport summarises a component's junction temperature margin.
type MarginReport struct {
	RefDes string
	Tj     float64 // K
	MaxTj  float64 // K
	Margin float64 // K, positive = safe
	Pass   bool
}

// CheckMargins evaluates junction temperatures from a solved network and
// returns per-component margins sorted by ascending margin (worst first).
func CheckMargins(res *thermal.SteadyResult, comps []*Component) []MarginReport {
	out := make([]MarginReport, 0, len(comps))
	for _, c := range comps {
		tj, ok := res.At(c.JunctionNode())
		if !ok {
			continue
		}
		m := MarginReport{
			RefDes: c.RefDes,
			Tj:     tj,
			MaxTj:  c.Pkg.MaxTj,
			Margin: c.Pkg.MaxTj - tj,
		}
		m.Pass = m.Margin >= 0
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Margin < out[j].Margin })
	return out
}
