package thermal

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"aeropack/internal/linalg"
	"aeropack/internal/materials"
	"aeropack/internal/mesh"
	"aeropack/internal/units"
)

func almost(t *testing.T, got, want, rel float64, msg string) {
	t.Helper()
	if !units.ApproxEqual(got, want, rel) {
		t.Errorf("%s: got %v, want %v (rel %v)", msg, got, want, rel)
	}
}

// slabModel builds a 1-D slab along x with fixed temperatures on both ends.
func slabModel(t *testing.T, nx int, k float64, T1, T2 float64) (*Model, *mesh.Grid) {
	t.Helper()
	g, err := mesh.Uniform(nx, 1, 1, 0.1, 0.05, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	mat := materials.Material{Name: "slab", K: k, Rho: 1000, Cp: 1000}
	m, err := NewModel(g, []materials.Material{mat})
	if err != nil {
		t.Fatal(err)
	}
	m.SetFaceBC(mesh.XMin, BC{Kind: FixedT, T: T1})
	m.SetFaceBC(mesh.XMax, BC{Kind: FixedT, T: T2})
	return m, g
}

func TestSlabLinearProfile(t *testing.T) {
	// Steady 1-D conduction between fixed temperatures: linear profile,
	// flux q = k·ΔT/L.
	m, g := slabModel(t, 20, 10, 350, 300)
	res, err := m.SolveSteady(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Check linearity at the quarter points.
	for i := 0; i < g.Nx; i++ {
		x, _, _ := g.CellCenter(i, 0, 0)
		want := 350 - (350-300)*x/0.1
		almost(t, res.At(i, 0, 0), want, 1e-6, "slab profile")
	}
	// Boundary heat flow: q = kAΔT/L = 10·(0.05·0.02)·50/0.1 = 5 W.
	// BoundaryHeatFlow is positive out of the domain: heat leaves through
	// the cold face and enters (negative) through the hot face.
	qOut := m.BoundaryHeatFlow(res, mesh.XMax)
	almost(t, qOut, 5, 1e-6, "heat flow out of cold face")
	qIn := m.BoundaryHeatFlow(res, mesh.XMin)
	almost(t, qIn, -5, 1e-6, "heat flow into hot face")
}

func TestSlabConvectionBC(t *testing.T) {
	// Slab heated by a fixed-T face, cooled by convection: the series
	// resistance formula gives the surface temperature exactly.
	g, _ := mesh.Uniform(30, 1, 1, 0.01, 0.1, 0.1)
	mat := materials.Material{Name: "al", K: 167, Rho: 2700, Cp: 896}
	m, _ := NewModel(g, []materials.Material{mat})
	const Thot, Tamb, h = 373.15, 293.15, 50.0
	m.SetFaceBC(mesh.XMin, BC{Kind: FixedT, T: Thot})
	m.SetFaceBC(mesh.XMax, BC{Kind: Convection, T: Tamb, H: h})
	res, err := m.SolveSteady(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	area := 0.1 * 0.1
	rTot := 0.01/(167*area) + 1/(h*area)
	qWant := (Thot - Tamb) / rTot
	q := m.BoundaryHeatFlow(res, mesh.XMax)
	almost(t, q, qWant, 1e-6, "convective heat flow")
}

func TestVolumeSourceEnergyBalance(t *testing.T) {
	// All injected power must leave through the boundaries.
	g, _ := mesh.Uniform(8, 8, 4, 0.1, 0.1, 0.01)
	mat := materials.Al6061
	m, _ := NewModel(g, []materials.Material{mat})
	m.SetFaceBC(mesh.ZMin, BC{Kind: Convection, T: 300, H: 20})
	m.SetFaceBC(mesh.ZMax, BC{Kind: Convection, T: 300, H: 20})
	if n := m.AddVolumeSource(0.02, 0.05, 0.02, 0.05, 0, 0.01, 7.5); n == 0 {
		t.Fatal("source missed mesh")
	}
	res, err := m.SolveSteady(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	out := 0.0
	for f := mesh.XMin; f < mesh.NumFaces; f++ {
		out += m.BoundaryHeatFlow(res, f)
	}
	almost(t, out, 7.5, 1e-6, "energy balance")
	if res.Max() <= 300 {
		t.Error("heated plate should be above ambient")
	}
}

func TestEnergyBalanceProperty(t *testing.T) {
	// Randomized sources and BCs: conservation must hold regardless.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		g, _ := mesh.Uniform(4+rng.Intn(5), 4+rng.Intn(5), 2+rng.Intn(3), 0.1, 0.08, 0.02)
		mat := materials.Copper
		m, _ := NewModel(g, []materials.Material{mat})
		m.SetFaceBC(mesh.XMin, BC{Kind: Convection, T: 280 + 40*rng.Float64(), H: 5 + 100*rng.Float64()})
		m.SetFaceBC(mesh.YMax, BC{Kind: FixedT, T: 280 + 40*rng.Float64()})
		total := 0.0
		for s := 0; s < 3; s++ {
			p := rng.Float64() * 20
			if m.AddVolumeSource(0, 0.1*rng.Float64()+0.01, 0, 0.08, 0, 0.02, p) > 0 {
				total += p
			}
		}
		res, err := m.SolveSteady(context.Background(), &SolveOptions{Tol: 1e-11})
		if err != nil {
			t.Fatal(err)
		}
		out := 0.0
		for f := mesh.XMin; f < mesh.NumFaces; f++ {
			out += m.BoundaryHeatFlow(res, f)
		}
		if !units.ApproxEqual(out, total, 1e-5) && math.Abs(out-total) > 1e-7 {
			t.Fatalf("trial %d: out %v vs injected %v", trial, out, total)
		}
	}
}

func TestOrthotropicPCB(t *testing.T) {
	// A PCB slab conducts far better in-plane than through-plane: compare
	// two slabs with the same geometry, one heated along x, one along z.
	pcb := materials.PCB(8, 1, 0.5, 1.6e-3)
	gx, _ := mesh.Uniform(20, 4, 4, 0.1, 0.05, 1.6e-3)
	mx, _ := NewModel(gx, []materials.Material{pcb})
	mx.SetFaceBC(mesh.XMin, BC{Kind: FixedT, T: 350})
	mx.SetFaceBC(mesh.XMax, BC{Kind: FixedT, T: 300})
	rx, err := mx.SolveSteady(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	qx := mx.BoundaryHeatFlow(rx, mesh.XMin)

	gz, _ := mesh.Uniform(4, 4, 20, 1.6e-3, 0.05, 0.1)
	mz, _ := NewModel(gz, []materials.Material{pcb})
	mz.SetFaceBC(mesh.ZMin, BC{Kind: FixedT, T: 350})
	mz.SetFaceBC(mesh.ZMax, BC{Kind: FixedT, T: 300})
	rz, err := mz.SolveSteady(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	qz := mz.BoundaryHeatFlow(rz, mesh.ZMin)
	// Same geometry (area/length swapped consistently); ratio of flows is
	// the anisotropy ratio kx/kz.
	almost(t, qx/qz, pcb.Kx()/pcb.Kz(), 1e-6, "anisotropy ratio")
}

func TestTwoMaterialSeriesSlab(t *testing.T) {
	// Half aluminium, half FR4 in series along x — interface temperature
	// from series resistance.
	g, _ := mesh.Uniform(40, 1, 1, 0.02, 0.1, 0.1)
	al := materials.Al6061
	fr4 := materials.Material{Name: "fr4iso", K: 0.3, Rho: 1850, Cp: 1100}
	m, _ := NewModel(g, []materials.Material{al, fr4})
	g.PaintRegion(0.01, 0.02, 0, 0.1, 0, 0.1, 1)
	m.SetFaceBC(mesh.XMin, BC{Kind: FixedT, T: 400})
	m.SetFaceBC(mesh.XMax, BC{Kind: FixedT, T: 300})
	res, err := m.SolveSteady(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	area := 0.01
	rAl := 0.01 / (al.K * area)
	rFr := 0.01 / (0.3 * area)
	qWant := 100 / (rAl + rFr)
	q := m.BoundaryHeatFlow(res, mesh.XMax) // positive out through cold face
	almost(t, q, qWant, 1e-4, "series two-material flux")
}

func TestRadiationBoundary(t *testing.T) {
	// A hot plate cooled only by radiation: verify Stefan–Boltzmann
	// balance  P = εσA(Ts⁴ − Ta⁴).
	g, _ := mesh.Uniform(4, 4, 1, 0.1, 0.1, 0.005)
	mat := materials.Material{Name: "blk", K: 200, Rho: 2700, Cp: 900, Emiss: 0.9}
	m, _ := NewModel(g, []materials.Material{mat})
	m.SetFaceBC(mesh.ZMax, BC{Kind: ConvectionRadiation, T: 300, H: 0})
	const P = 10.0
	m.AddVolumeSource(0, 0.1, 0, 0.1, 0, 0.005, P)
	res, err := m.SolveSteady(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	Ts := res.Mean() // high conductivity → nearly isothermal
	lhs := 0.9 * units.StefanBoltzmann * 0.01 * (math.Pow(Ts, 4) - math.Pow(300, 4))
	almost(t, lhs, P, 0.02, "radiative balance")
	if res.OuterIterations < 2 {
		t.Error("radiation should take >1 outer pass")
	}
}

func TestPatchBCOverride(t *testing.T) {
	// Cold plate on part of the bottom face only: patch must dominate the
	// default adiabatic face.
	g, _ := mesh.Uniform(10, 10, 2, 0.1, 0.1, 0.004)
	m, _ := NewModel(g, []materials.Material{materials.Al6061})
	if n := m.AddPatchBC(mesh.ZMin, 0, 0.05, 0, 0.1, 0, 0.004, BC{Kind: FixedT, T: 290}); n == 0 {
		t.Fatal("patch missed")
	}
	m.AddVolumeSource(0, 0.1, 0, 0.1, 0, 0.004, 5)
	res, err := m.SolveSteady(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	out := m.BoundaryHeatFlow(res, mesh.ZMin)
	almost(t, out, 5, 1e-6, "all power exits through patch")
	// The cooled half must be colder than the free half.
	coldSide := res.MeanInBox(0, 0.05, 0, 0.1, 0, 0.004)
	hotSide := res.MeanInBox(0.05, 0.1, 0, 0.1, 0, 0.004)
	if coldSide >= hotSide {
		t.Errorf("cooled side %v should be colder than free side %v", coldSide, hotSide)
	}
}

func TestSolverVariantsAgree(t *testing.T) {
	build := func() *Model {
		g, _ := mesh.Uniform(6, 6, 3, 0.06, 0.06, 0.01)
		m, _ := NewModel(g, []materials.Material{materials.Al6061})
		m.SetFaceBC(mesh.ZMin, BC{Kind: Convection, T: 300, H: 30})
		m.AddVolumeSource(0.02, 0.04, 0.02, 0.04, 0, 0.01, 3)
		return m
	}
	ref, err := build().SolveSteady(context.Background(), &SolveOptions{Solver: "cg"})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"cg-jacobi", "cg-ssor", "bicgstab"} {
		res, err := build().SolveSteady(context.Background(), &SolveOptions{Solver: s})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		almost(t, res.Max(), ref.Max(), 1e-6, "solver "+s)
	}
	if _, err := build().SolveSteady(context.Background(), &SolveOptions{Solver: "gauss"}); err == nil {
		t.Error("unknown solver should error")
	}
}

func TestTransientApproachesSteady(t *testing.T) {
	g, _ := mesh.Uniform(6, 6, 2, 0.05, 0.05, 0.003)
	m, _ := NewModel(g, []materials.Material{materials.Al6061})
	m.SetFaceBC(mesh.ZMin, BC{Kind: Convection, T: 300, H: 40})
	m.AddVolumeSource(0, 0.05, 0, 0.05, 0, 0.003, 4)
	steady, err := m.SolveSteady(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var times []float64
	tr, err := m.SolveTransient(context.Background(), 300, &TransientOptions{
		Dt: 20, Steps: 400,
		Snapshot: func(tm float64, T []float64) { times = append(times, tm) },
	})
	if err != nil {
		t.Fatal(err)
	}
	almost(t, tr.Max(), steady.Max(), 0.01, "transient → steady limit")
	if len(times) != 400 || !units.ApproxEqual(times[len(times)-1], 8000, 1e-9) {
		t.Error("snapshot callback wrong")
	}
}

func TestTransientMonotoneHeating(t *testing.T) {
	g, _ := mesh.Uniform(4, 4, 1, 0.02, 0.02, 0.002)
	m, _ := NewModel(g, []materials.Material{materials.Copper})
	m.SetFaceBC(mesh.XMin, BC{Kind: Convection, T: 300, H: 10})
	m.AddVolumeSource(0, 0.02, 0, 0.02, 0, 0.002, 1)
	var maxes []float64
	_, err := m.SolveTransient(context.Background(), 300, &TransientOptions{
		Dt: 5, Steps: 50,
		Snapshot: func(tm float64, T []float64) {
			mx := T[0]
			for _, v := range T {
				if v > mx {
					mx = v
				}
			}
			maxes = append(maxes, mx)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(maxes); i++ {
		if maxes[i] < maxes[i-1]-1e-9 {
			t.Fatal("heating transient must be monotone")
		}
	}
}

func TestTransientBadOptions(t *testing.T) {
	g, _ := mesh.Uniform(2, 2, 1, 0.01, 0.01, 0.001)
	m, _ := NewModel(g, []materials.Material{materials.Al6061})
	if _, err := m.SolveTransient(context.Background(), 300, nil); err == nil {
		t.Error("nil options should error")
	}
	if _, err := m.SolveTransient(context.Background(), 300, &TransientOptions{Dt: -1, Steps: 5}); err == nil {
		t.Error("negative dt should error")
	}
}

func TestNewModelValidation(t *testing.T) {
	g, _ := mesh.Uniform(2, 2, 1, 1, 1, 1)
	if _, err := NewModel(nil, []materials.Material{{}}); err == nil {
		t.Error("nil grid should error")
	}
	if _, err := NewModel(g, nil); err == nil {
		t.Error("empty material table should error")
	}
	g.MatIdx[0] = 5
	if _, err := NewModel(g, []materials.Material{materials.Al6061}); err == nil {
		t.Error("out-of-range material index should error")
	}
	g.MatIdx[0] = 0
	for _, bad := range []materials.Material{
		{Name: "zero", K: 0},
		{Name: "negative", K: -1},
		{Name: "nan", K: math.NaN()},
		{Name: "inf", K: math.Inf(1)},
		{Name: "zero-thru", K: 10, KThru: -2},
		{Name: "inf-inplane", K: 10, KInPlane: math.Inf(1)},
	} {
		if _, err := NewModel(g, []materials.Material{materials.Al6061, bad}); err == nil {
			t.Errorf("material %q: non-positive or non-finite conductivity should error", bad.Name)
		}
	}
}

// picardTestModel builds a multi-slab heated plate with mixed BCs,
// including radiation so the Picard outer loop runs more than once.
func picardTestModel(t *testing.T) *Model {
	t.Helper()
	g, err := mesh.Uniform(12, 10, 6, 0.12, 0.1, 0.012)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(g, []materials.Material{materials.Al6061})
	if err != nil {
		t.Fatal(err)
	}
	m.SetFaceBC(mesh.ZMin, BC{Kind: Convection, T: 300, H: 25})
	m.SetFaceBC(mesh.ZMax, BC{Kind: ConvectionRadiation, T: 290, H: 8, Emiss: 0.8})
	m.SetFaceBC(mesh.XMin, BC{Kind: FixedT, T: 310})
	if m.AddVolumeSource(0.03, 0.08, 0.02, 0.07, 0, 0.012, 18) == 0 {
		t.Fatal("source missed mesh")
	}
	return m
}

// TestSolveSteadyPollsStopBetweenPasses checks the budget reaches the
// Picard loop: a context canceled once the first pass has converged
// stops the solve at the pass boundary.
func TestSolveSteadyPollsStopBetweenPasses(t *testing.T) {
	m := picardTestModel(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := m.SolveSteady(ctx, &SolveOptions{
		OnIteration: func(_ int, r float64) {
			if r < 1e-9 { // the default tolerance: this pass converged
				cancel()
			}
		},
	})
	if !errors.Is(err, linalg.ErrStopped) || !strings.Contains(err.Error(), "after 1 Picard passes") {
		t.Errorf("err = %v, want a stop after 1 Picard pass", err)
	}
}

func TestResultProbes(t *testing.T) {
	m, _ := slabModel(t, 10, 10, 350, 300)
	res, err := m.SolveSteady(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Max() <= res.Min() {
		t.Error("Max should exceed Min for a gradient field")
	}
	mean := res.Mean()
	if mean <= res.Min() || mean >= res.Max() {
		t.Error("Mean must be interior")
	}
	hot := res.MaxInBox(0, 0.02, 0, 1, 0, 1)
	cold := res.MaxInBox(0.08, 0.1, 0, 1, 0, 1)
	if hot <= cold {
		t.Error("hot-end probe should exceed cold-end probe")
	}
	if !math.IsNaN(res.MeanInBox(5, 6, 5, 6, 5, 6)) {
		t.Error("empty box mean should be NaN")
	}
}

func TestMissedSourceReturnsZero(t *testing.T) {
	g, _ := mesh.Uniform(2, 2, 1, 0.01, 0.01, 0.001)
	m, _ := NewModel(g, []materials.Material{materials.Al6061})
	if n := m.AddVolumeSource(1, 2, 1, 2, 1, 2, 10); n != 0 {
		t.Error("source outside mesh should report 0 cells")
	}
	if m.TotalSourcePower() != 0 {
		t.Error("missed source must not contribute power")
	}
}

func TestWriteCSVAndSlice(t *testing.T) {
	m, g := slabModel(t, 4, 10, 350, 300)
	res, err := m.SolveSteady(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+g.NumCells() {
		t.Errorf("CSV has %d lines, want %d", len(lines), 1+g.NumCells())
	}
	if lines[0] != "x_m,y_m,z_m,T_C" {
		t.Errorf("header = %q", lines[0])
	}
	sl, err := res.SliceZ(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sl) != g.Ny || len(sl[0]) != g.Nx {
		t.Error("slice dimensions wrong")
	}
	// Slab hot end on the left: row values decrease along x.
	if sl[0][0] <= sl[0][g.Nx-1] {
		t.Error("slice gradient direction wrong")
	}
	if _, err := res.SliceZ(99); err == nil {
		t.Error("out-of-range layer should error")
	}
	empty := &Result{}
	if err := empty.WriteCSV(&buf); err == nil {
		t.Error("empty result should error")
	}
}

func TestHotSpotLocation(t *testing.T) {
	g, _ := mesh.Uniform(10, 10, 1, 0.1, 0.1, 0.002)
	m, _ := NewModel(g, []materials.Material{materials.FR4})
	m.SetFaceBC(mesh.ZMin, BC{Kind: Convection, T: 300, H: 15})
	// Source in the upper-right quadrant.
	m.AddVolumeSource(0.07, 0.09, 0.07, 0.09, 0, 0.002, 2)
	res, err := m.SolveSteady(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	x, y, _, T := res.HotSpot()
	if x < 0.06 || y < 0.06 {
		t.Errorf("hot spot at (%v,%v), want inside the source patch", x, y)
	}
	if T != res.Max() {
		t.Error("hot-spot temperature must equal the field max")
	}
}
