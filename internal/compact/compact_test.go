package compact

import (
	"context"
	"testing"

	"aeropack/internal/thermal"
	"aeropack/internal/units"
)

func TestLibraryIntegrity(t *testing.T) {
	for _, p := range All() {
		name := p.Name
		if p.Name != name {
			t.Errorf("%s: name mismatch", name)
		}
		if p.ThetaJCTop <= 0 || p.ThetaJB <= 0 || p.ThetaJA <= 0 {
			t.Errorf("%s: non-positive resistances", name)
		}
		// θja must exceed both internal resistances (it includes them plus
		// a film path).
		if p.ThetaJA <= p.ThetaJCTop {
			t.Errorf("%s: θja %v should exceed θjc-top %v", name, p.ThetaJA, p.ThetaJCTop)
		}
		if p.Length <= 0 || p.Width <= 0 {
			t.Errorf("%s: missing body dims", name)
		}
		if p.MaxTj < 390 {
			t.Errorf("%s: implausible MaxTj %v", name, p.MaxTj)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("DIP999"); err == nil {
		t.Error("unknown package should error")
	}
	if _, err := Get("QFP100"); err != nil {
		t.Errorf("known package should resolve: %v", err)
	}
}

func TestRegister(t *testing.T) {
	if err := Register(Package{Name: "X1", ThetaJCTop: 2, ThetaJB: 5, ThetaJA: 20, Length: 0.01, Width: 0.01, MaxTj: 400}); err != nil {
		t.Fatal(err)
	}
	if _, err := Get("X1"); err != nil {
		t.Error("registered package not found")
	}
	if err := Register(Package{}); err == nil {
		t.Error("unnamed package should error")
	}
	if err := Register(Package{Name: "bad"}); err == nil {
		t.Error("zero-resistance package should error")
	}
}

func TestFootprint(t *testing.T) {
	c := &Component{RefDes: "U1", Pkg: QFP100, Power: 2, X: 0.05, Y: 0.03}
	x0, x1, y0, y1 := c.Footprint()
	if !units.ApproxEqual(x1-x0, 14e-3, 1e-9) || !units.ApproxEqual(y1-y0, 14e-3, 1e-9) {
		t.Errorf("footprint dims wrong: %v %v", x1-x0, y1-y0)
	}
	if !units.ApproxEqual((x0+x1)/2, 0.05, 1e-9) {
		t.Error("footprint not centred")
	}
}

func TestAttachAndSolve(t *testing.T) {
	// A 3 W BGA on a board held at 70 °C with 20 W/m²K top-side air at
	// 50 °C: junction must sit above the board, below board+P·θjb.
	n := thermal.NewNetwork()
	n.FixT("board", units.CToK(70))
	n.FixT("air", units.CToK(50))
	c := &Component{RefDes: "U1", Pkg: BGA256, Power: 3}
	if err := c.Attach(n, "board", "air", 20); err != nil {
		t.Fatal(err)
	}
	res, err := n.SolveSteady(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tj := res.T[c.JunctionNode()]
	if tj <= units.CToK(70) {
		t.Errorf("junction %v should be above board", units.KToC(tj))
	}
	if tj >= units.CToK(70)+3*c.Pkg.ThetaJB {
		t.Errorf("junction %v should be below single-path bound", units.KToC(tj))
	}
	// Case top must sit between junction and air.
	tc := res.T[c.CaseNode()]
	if !(tc < tj && tc > units.CToK(50)) {
		t.Errorf("case temperature %v out of order", units.KToC(tc))
	}
}

func TestAttachConductionOnly(t *testing.T) {
	// hTop ≤ 0: all heat via the board; junction = board + P·(θjb ∥ θjl).
	n := thermal.NewNetwork()
	n.FixT("board", 350)
	c := &Component{RefDes: "U2", Pkg: QFP100, Power: 2}
	if err := c.Attach(n, "board", "air-unused", 0); err != nil {
		t.Fatal(err)
	}
	// The air node is never created; add a resistor-free solve must work
	// because no reference to it was added.
	res, err := n.SolveSteady(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p := c.Pkg
	gEff := 1/p.ThetaJB + 1/p.ThetaJL
	want := 350 + 2/gEff
	if !units.ApproxEqual(res.T[c.JunctionNode()], want, 1e-9) {
		t.Errorf("Tj = %v, want %v", res.T[c.JunctionNode()], want)
	}
}

func TestAttachErrors(t *testing.T) {
	n := thermal.NewNetwork()
	n.FixT("board", 350)
	c := &Component{RefDes: "U3", Pkg: SOIC8, Power: -1}
	if err := c.Attach(n, "board", "air", 10); err == nil {
		t.Error("negative power should error")
	}
	bad := &Component{RefDes: "U4", Pkg: Package{Name: "nobody", ThetaJCTop: 1, ThetaJB: 1}, Power: 1}
	if err := bad.Attach(n, "board", "air", 10); err == nil {
		t.Error("zero-area top path should error")
	}
}

func TestJunctionRiseMatchesNetwork(t *testing.T) {
	// With board and air at the same temperature, the closed-form
	// JunctionRise must match the network solution.
	const Tref = 330.0
	c := &Component{RefDes: "U5", Pkg: QFP208, Power: 4}
	n := thermal.NewNetwork()
	n.FixT("board", Tref)
	n.FixT("air", Tref)
	if err := c.Attach(n, "board", "air", 15); err != nil {
		t.Fatal(err)
	}
	res, err := n.SolveSteady(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := Tref + c.JunctionRise(15)
	if !units.ApproxEqual(res.T[c.JunctionNode()], want, 1e-6) {
		t.Errorf("network Tj %v vs closed form %v", res.T[c.JunctionNode()], want)
	}
}

func TestStillAirJunction(t *testing.T) {
	c := &Component{RefDes: "U6", Pkg: SOIC8, Power: 0.5}
	tj := c.StillAirJunction(units.CToK(85))
	want := units.CToK(85) + 0.5*120
	if !units.ApproxEqual(tj, want, 1e-12) {
		t.Errorf("still-air Tj = %v, want %v", tj, want)
	}
}

func TestCheckMargins(t *testing.T) {
	n := thermal.NewNetwork()
	n.FixT("board", units.CToK(95))
	n.FixT("air", units.CToK(70))
	hot := &Component{RefDes: "HOT", Pkg: SOIC8, Power: 1.2}
	cool := &Component{RefDes: "COOL", Pkg: TO263, Power: 0.5}
	for _, c := range []*Component{hot, cool} {
		if err := c.Attach(n, "board", "air", 10); err != nil {
			t.Fatal(err)
		}
	}
	res, err := n.SolveSteady(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	reports := CheckMargins(res, []*Component{cool, hot})
	if len(reports) != 2 {
		t.Fatalf("got %d reports", len(reports))
	}
	// Sorted worst-first: the hot SOIC8 must come first.
	if reports[0].RefDes != "HOT" {
		t.Errorf("worst-first ordering broken: %+v", reports)
	}
	if reports[0].Margin > reports[1].Margin {
		t.Error("margins not ascending")
	}
	for _, r := range reports {
		if r.Pass != (r.Margin >= 0) {
			t.Error("pass flag inconsistent")
		}
	}
}

func TestCOTSFlag(t *testing.T) {
	// The paper's COTS concern: plastic parts exist in the library and are
	// marked as such.
	cots := 0
	for _, p := range All() {
		if p.COTS {
			cots++
		}
	}
	if cots < 3 {
		t.Errorf("library should carry several COTS packages, got %d", cots)
	}
}

func TestComponentMass(t *testing.T) {
	// Explicit mass wins.
	c := &Component{RefDes: "T1", Pkg: TO220, MassKg: 0.25}
	if c.Mass() != 0.25 {
		t.Errorf("explicit mass = %v", c.Mass())
	}
	// Default derives from the footprint: a QFP100 body (14×14 mm) at
	// moulded density ≈ 1.2 g.
	q := &Component{RefDes: "U1", Pkg: QFP100}
	m := q.Mass()
	if m < 0.5e-3 || m > 3e-3 {
		t.Errorf("derived mass = %v kg, want ≈1 g", m)
	}
	// Bigger packages weigh more.
	b := &Component{RefDes: "U2", Pkg: BGA676}
	if b.Mass() <= m {
		t.Error("larger package should weigh more")
	}
}
