package aeropack_test

import (
	"context"
	"math"
	"testing"

	"aeropack/internal/compact"
	"aeropack/internal/convection"
	"aeropack/internal/core"
	"aeropack/internal/cosee"
	"aeropack/internal/envtest"
	"aeropack/internal/materials"
	"aeropack/internal/mesh"
	"aeropack/internal/thermal"
	"aeropack/internal/units"
)

// TestMaximumPrinciple: a source-free steady conduction field attains its
// extrema on the boundary — the discrete maximum principle the FV scheme
// must satisfy (no spurious interior hot spots).
func TestMaximumPrinciple(t *testing.T) {
	g, err := mesh.Uniform(10, 8, 4, 0.1, 0.08, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	m, err := thermal.NewModel(g, []materials.Material{materials.Al6061})
	if err != nil {
		t.Fatal(err)
	}
	m.SetFaceBC(mesh.XMin, thermal.BC{Kind: thermal.FixedT, T: 360})
	m.SetFaceBC(mesh.XMax, thermal.BC{Kind: thermal.FixedT, T: 310})
	m.SetFaceBC(mesh.YMin, thermal.BC{Kind: thermal.Convection, T: 295, H: 15})
	res, err := m.SolveSteady(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Max() > 360+1e-6 {
		t.Errorf("interior exceeds the hottest boundary: %v", res.Max())
	}
	if res.Min() < 295-1e-6 {
		t.Errorf("interior falls below the coldest sink: %v", res.Min())
	}
}

// TestNetworkVsFiniteVolume: the level-1 lumped estimate of a simple
// conduction problem must agree with the level-2 FV solution — the
// internal consistency the paper's multi-level methodology relies on.
func TestNetworkVsFiniteVolume(t *testing.T) {
	// A 100×100×5 mm aluminium plate heated uniformly (10 W), one face
	// convecting (h=50) to 300 K.  The lumped model: R = 1/(hA) plus half
	// the through-thickness conduction.
	const (
		side, thk = 0.1, 0.005
		power     = 10.0
		h, Tamb   = 50.0, 300.0
	)
	g, _ := mesh.Uniform(10, 10, 4, side, side, thk)
	al := materials.Al6061
	m, _ := thermal.NewModel(g, []materials.Material{al})
	m.SetFaceBC(mesh.ZMin, thermal.BC{Kind: thermal.Convection, T: Tamb, H: h})
	m.AddVolumeSource(0, side, 0, side, 0, thk, power)
	fv, err := m.SolveSteady(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	n := thermal.NewNetwork()
	n.FixT("amb", Tamb)
	n.AddSource("plate", power)
	area := side * side
	rCond := (thk / 2) / (al.K * area)
	n.AddResistor("plate", "amb", rCond+1/(h*area))
	lump, err := n.SolveSteady(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if plate, _ := lump.At("plate"); !units.ApproxEqual(fv.Mean(), plate, 0.002) {
		t.Errorf("FV mean %v vs lumped %v", fv.Mean(), plate)
	}
}

// TestCompactVsDetailedJunction: the two-resistor junction estimate must
// bracket a detailed FV model of the same package mounted on a cold plate.
func TestCompactVsDetailedJunction(t *testing.T) {
	// Package: 17×17 mm BGA body, 1.2 mm thick, die region dissipating
	// 3 W, bottom on a 70 °C board (modelled as fixed T).
	pkg := compact.BGA256
	const power = 3.0
	boardT := units.CToK(70)

	// Compact: conduction-only path through θjb.
	tjCompact := boardT + power*pkg.ThetaJB

	// Detailed: mold compound body with a silicon die inside, bottom face
	// at board temperature through a solder-ball layer.
	g, _ := mesh.Uniform(17, 17, 6, 17e-3, 17e-3, 1.8e-3)
	mold := materials.MoldCompound
	si := materials.Silicon
	balls := materials.Material{Name: "ballfield", K: 2.2, Rho: 3000, Cp: 600}
	m, _ := thermal.NewModel(g, []materials.Material{mold, si, balls})
	// Ball field: bottom 0.4 mm.
	if _, err := m.PaintRegion(0, 17e-3, 0, 17e-3, 0, 0.4e-3, 2); err != nil {
		t.Fatal(err)
	}
	// Die: central 9×9 mm at mid-height.
	if _, err := m.PaintRegion(4e-3, 13e-3, 4e-3, 13e-3, 0.7e-3, 1.1e-3, 1); err != nil {
		t.Fatal(err)
	}
	m.SetFaceBC(mesh.ZMin, thermal.BC{Kind: thermal.FixedT, T: boardT})
	if n := m.AddVolumeSource(4e-3, 13e-3, 4e-3, 13e-3, 0.7e-3, 1.1e-3, power); n == 0 {
		t.Fatal("die source missed")
	}
	res, err := m.SolveSteady(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tjDetailed := res.Max()
	// The compact θjb is a JEDEC-conditions abstraction; agreement within
	// ~40% is the expected class, and both must sit above the board.
	if tjDetailed <= boardT || tjCompact <= boardT {
		t.Fatal("junction must exceed board")
	}
	ratio := (tjDetailed - boardT) / (tjCompact - boardT)
	if ratio < 0.4 || ratio > 1.8 {
		t.Errorf("detailed/compact junction-rise ratio %v outside plausibility band", ratio)
	}
}

// TestCoseeFeedsQualification: the climatic result in the campaign equals
// ambient + the cosee model's ΔT — the cross-package contract envtest
// relies on.
func TestCoseeFeedsQualification(t *testing.T) {
	cfg := cosee.Config{UseLHP: true}
	a := &envtest.Article{
		Name: "link-check", MassKg: 3, MountFnHz: 150, DampingZeta: 0.05,
		MountArea: 1e-4, MountYield: 80e6,
		BoardSpan: 0.25, BoardThk: 2e-3, CompLen: 0.02,
		CompConst: 1, PosFactor: 1, FatigueExpB: 6.4,
		PowerW: 60,
		DeltaTAt: func(p float64) (float64, error) {
			pt, err := cfg.Solve(p)
			if err != nil {
				return 0, err
			}
			return pt.DeltaTK, nil
		},
		MaxPointC: 105, MinStartC: -40,
		ShockCyclesRequired: 100, JointDTFactor: 0.5,
	}
	camp := envtest.DefaultCampaign()
	r, err := camp.RunClimatic(a)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := cfg.Solve(60)
	if err != nil {
		t.Fatal(err)
	}
	want := camp.ClimaticHighC + pt.DeltaTK
	if math.Abs(r.Metric-want) > 1e-9 {
		t.Errorf("climatic metric %v vs cosee-derived %v", r.Metric, want)
	}
}

// TestLevel1EnvelopesLevel2: for a feasible design, the level-1 capacity
// must comfortably exceed the board's power, and the level-2 board
// temperature must stay below the level-3 worst junction — the nesting
// Fig. 4 promises.
func TestLevel1EnvelopesLevel2(t *testing.T) {
	board := &core.BoardDesign{
		Name: "nesting", LengthM: 0.16, WidthM: 0.23, ThicknessM: 2.4e-3,
		CopperLayers: 12, CopperOz: 2, CopperCover: 0.7,
		EdgeCooling: core.ConductionCooled, RailTempC: 30,
		MassLoadKgM2: 3,
		Components: []*compact.Component{
			{RefDes: "U1", Pkg: compact.FCBGACPU, Power: 6, X: 0.08, Y: 0.115},
			{RefDes: "U2", Pkg: compact.BGA256, Power: 2, X: 0.04, Y: 0.06},
		},
	}
	rep, err := core.Study(board, core.DefaultScreen(core.Envelope{L: 0.5, W: 0.3, H: 0.26}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Level1.MaxPowerW <= board.TotalPower() {
		t.Error("level-1 capacity must envelope the board power")
	}
	if rep.Level3.WorstC <= rep.Level2.MaxBoardC {
		t.Error("junction must exceed the board hot spot")
	}
	if rep.Level2.MaxBoardC <= board.RailTempC {
		t.Error("board must run above its rail")
	}
}

// TestARINCSelfConsistency: the air rise under the ARINC allocation is
// power-independent (≈16 K) — the property that makes 220 kg/h/kW a
// usable flat rule.
func TestARINCSelfConsistency(t *testing.T) {
	var rises []float64
	for _, p := range []float64{50, 200, 1000, 5000} {
		mdot := convection.ARINCMassFlow(p)
		rises = append(rises, convection.AirTempRise(p, mdot, units.CToK(40)))
	}
	for i := 1; i < len(rises); i++ {
		if !units.ApproxEqual(rises[i], rises[0], 1e-9) {
			t.Errorf("ARINC rise not flat: %v", rises)
		}
	}
	if rises[0] < 14 || rises[0] > 18 {
		t.Errorf("ARINC rise = %v K, want ≈16", rises[0])
	}
}
