package thermal

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"aeropack/internal/linalg"
	"aeropack/internal/materials"
	"aeropack/internal/mesh"
	"aeropack/internal/obs"
	"aeropack/internal/robust"
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
	res, err := m.SolveSteady(context.Background())
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
	res, err := m.SolveSteady(context.Background())
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
	res, err := m.SolveSteady(context.Background())
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
		res, err := m.SolveSteady(context.Background())
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
	rx, err := mx.SolveSteady(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	qx := mx.BoundaryHeatFlow(rx, mesh.XMin)

	gz, _ := mesh.Uniform(4, 4, 20, 1.6e-3, 0.05, 0.1)
	mz, _ := NewModel(gz, []materials.Material{pcb})
	mz.SetFaceBC(mesh.ZMin, BC{Kind: FixedT, T: 350})
	mz.SetFaceBC(mesh.ZMax, BC{Kind: FixedT, T: 300})
	rz, err := mz.SolveSteady(context.Background())
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
	if _, err := m.PaintRegion(0.01, 0.02, 0, 0.1, 0, 0.1, 1); err != nil {
		t.Fatal(err)
	}
	m.SetFaceBC(mesh.XMin, BC{Kind: FixedT, T: 400})
	m.SetFaceBC(mesh.XMax, BC{Kind: FixedT, T: 300})
	res, err := m.SolveSteady(context.Background())
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
	// balance  P = εσA(Ts⁴ − Ta⁴).  The plate is nearly isothermal, so
	// the first pass, linearized at the energy-balance temperature (the
	// Ts of that balance), already lands within picardTolK of it:
	// exactly one pass.
	g, _ := mesh.Uniform(4, 4, 1, 0.1, 0.1, 0.005)
	mat := materials.Material{Name: "blk", K: 200, Rho: 2700, Cp: 900, Emiss: 0.9}
	m, _ := NewModel(g, []materials.Material{mat})
	m.SetFaceBC(mesh.ZMax, BC{Kind: ConvectionRadiation, T: 300, H: 0})
	const P = 10.0
	m.AddVolumeSource(0, 0.1, 0, 0.1, 0, 0.005, P)
	almost(t, m.balanceT(), math.Pow(P/(0.9*units.StefanBoltzmann*0.01)+math.Pow(300, 4), 0.25), 1e-12, "energy-balance temperature")
	res, err := m.SolveSteady(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	Ts := res.Mean() // high conductivity → nearly isothermal
	lhs := 0.9 * units.StefanBoltzmann * 0.01 * (math.Pow(Ts, 4) - math.Pow(300, 4))
	almost(t, lhs, P, 0.02, "radiative balance")
	if res.OuterIterations != 1 {
		t.Errorf("radiation took %d outer passes, want 1 from the energy-balance start", res.OuterIterations)
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
	res, err := m.SolveSteady(context.Background())
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

// TestSolverVariantsAgree: plain CG and CG with Jacobi or SSOR, run
// directly on the assembled system, agree with the model's own solve.
func TestSolverVariantsAgree(t *testing.T) {
	g, _ := mesh.Uniform(6, 6, 3, 0.06, 0.06, 0.01)
	m, _ := NewModel(g, []materials.Material{materials.Al6061})
	m.SetFaceBC(mesh.ZMin, BC{Kind: Convection, T: 300, H: 30})
	m.AddVolumeSource(0.02, 0.04, 0.02, 0.04, 0, 0.01, 3)
	ref, err := m.SolveSteady(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a, b, _ := m.System()
	for _, v := range []struct {
		name string
		prec linalg.Preconditioner
	}{
		{"cg", nil},
		{"cg-jacobi", linalg.NewJacobiPrec(a)},
		{"cg-ssor", linalg.NewSSORPrec(a, 1.2)},
	} {
		x, _, err := linalg.CG(a, b, nil, v.prec, 1e-9, 2000)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		almost(t, (&Result{T: x, g: g}).Max(), ref.Max(), 1e-6, "solver "+v.name)
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

// TestPaintRegion checks the model's material map: PaintRegion paints
// the cells whose centroids lie in the box and returns their count, an
// index outside the material table is an error that paints nothing, and
// a box that misses the grid leaves the model unpainted.
func TestPaintRegion(t *testing.T) {
	g, _ := mesh.Uniform(10, 10, 1, 1, 1, 0.01)
	mats := []materials.Material{materials.Al6061, materials.FR4, materials.Copper, materials.Silicon, materials.MoldCompound}
	m, err := NewModel(g, mats)
	if err != nil {
		t.Fatal(err)
	}
	// A box that misses the grid paints nothing and allocates no map.
	if n, err := m.PaintRegion(5, 6, 5, 6, 0, 1, 4); n != 0 || err != nil || m.mat != nil {
		t.Errorf("painting outside the grid: %d cells, %v, map allocated %t", n, err, m.mat != nil)
	}
	for _, bad := range []int{5, -1} {
		if n, err := m.PaintRegion(0, 1, 0, 1, 0, 0.01, bad); err == nil || n != 0 || m.mat != nil {
			t.Errorf("material %d outside a table of 5: %d cells, %v, map allocated %t; want an error", bad, n, err, m.mat != nil)
		}
	}
	if !m.separable() {
		t.Fatal("a model no paint covered is not separable")
	}
	// A central region: centroids 0.25,0.35,…,0.75 qualify in each
	// direction (closed-interval centroid test) → 6×6 cells.
	if n, err := m.PaintRegion(0.25, 0.75, 0.25, 0.75, 0, 0.01, 3); n != 36 || err != nil {
		t.Errorf("painted %d cells (%v), want 36", n, err)
	}
	count := func(mat int) int {
		c := 0
		for _, q := range m.mat {
			if q == mat {
				c++
			}
		}
		return c
	}
	if c := count(3); c != 36 || m.separable() {
		t.Errorf("the map holds %d cells of material 3 (want 36), separable %t", c, m.separable())
	}
	if m.matAt(2, 2, 0) != &m.Mats[3] || m.matAt(1, 2, 0) != &m.Mats[0] {
		t.Error("matAt does not read the painted map")
	}
	// Half-open style selection avoiding centroid ties.
	if n, err := m.PaintRegion(0.2, 0.7, 0.2, 0.7, 0, 0.01, 4); n != 25 || err != nil {
		t.Errorf("tie-free selection painted %d cells (%v), want 25", n, err)
	}
	if c3, c4 := count(3), count(4); c3 != 11 || c4 != 25 {
		t.Errorf("after the second paint the map holds %d cells of material 3 and %d of 4, want 11 and 25", c3, c4)
	}
	// An out-of-table index on a painted model leaves its map as it was.
	if _, err := m.PaintRegion(0, 1, 0, 1, 0, 0.01, 7); err == nil || count(0) != 64 {
		t.Errorf("material 7 outside a table of 5: %v, %d cells of material 0 left (want an error and 64)", err, count(0))
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
// Picard loop: a poll budget the first pass spends exactly, one poll per
// CG iteration but the converging one, stops the solve at the pass
// boundary.  The plate's painted twin, whose first pass takes several
// CG iterations under MIC(0), leaves the budget at least 1.
func TestSolveSteadyPollsStopBetweenPasses(t *testing.T) {
	m := picardTestModel(t)
	paintAll(t, m)
	tr := obs.NewTrace()
	prev := obs.SetTracer(tr)
	_, err := m.SolveSteady(context.Background())
	obs.SetTracer(prev)
	if err != nil {
		t.Fatal(err)
	}
	passes := spanAttrs(t, tr, "thermal.linSolve")
	if len(passes) < 2 {
		t.Fatalf("%d passes, want at least 2", len(passes))
	}
	first, err := strconv.Atoi(passes[0]["iterations"])
	if err != nil || first < 2 {
		t.Fatalf("first pass took %q CG iterations, want at least 2", passes[0]["iterations"])
	}
	_, err = m.SolveSteady(robust.WithPollBudget(context.Background(), int64(first-1)))
	if !errors.Is(err, linalg.ErrStopped) || !strings.Contains(err.Error(), "after 1 Picard passes") {
		t.Errorf("err = %v, want a stop after 1 Picard pass", err)
	}
}

func TestResultProbes(t *testing.T) {
	m, _ := slabModel(t, 10, 10, 350, 300)
	res, err := m.SolveSteady(context.Background())
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

// TestMeansMatchCellVolume pins Mean and MeanInBox bit for bit to the
// per-cell formula Σ cellVolume·T / Σ cellVolume, summed with k slowest
// and i fastest, over the whole grid and random boxes (empty ones NaN)
// of random graded grids and fields.  The assembled right-hand side's
// source spread is pinned to the same formula by the triplet reference.
func TestMeansMatchCellVolume(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	ratio := func() float64 { return 0.6 + 0.8*rng.Float64() }
	for trial := 0; trial < 50; trial++ {
		g, err := mesh.FromEdges(mesh.GradedEdges(0.1, 1+rng.Intn(9), ratio()), mesh.GradedEdges(0.08, 1+rng.Intn(9), ratio()), mesh.GradedEdges(0.004, 1+rng.Intn(4), ratio()))
		if err != nil {
			t.Fatal(err)
		}
		res := &Result{T: make([]float64, g.NumCells()), g: g}
		for i := range res.T {
			res.T[i] = 280 + 100*rng.Float64()
		}
		ref := func(b mesh.Box) float64 {
			sumVT, sumV := 0.0, 0.0
			for k := b.K0; k < b.K1; k++ {
				for j := b.J0; j < b.J1; j++ {
					for i := b.I0; i < b.I1; i++ {
						v := cellVolume(g, i, j, k)
						sumVT += v * res.T[g.Index(i, j, k)]
						sumV += v
					}
				}
			}
			if sumV == 0 {
				return math.NaN()
			}
			return sumVT / sumV
		}
		same := func(what string, got, want float64) {
			t.Helper()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("trial %d, %d×%d×%d cells: %s %v, per-cell formula %v", trial, g.Nx, g.Ny, g.Nz, what, got, want)
			}
		}
		same("Mean", res.Mean(), ref(mesh.Box{I1: g.Nx, J1: g.Ny, K1: g.Nz}))
		for box := 0; box < 4; box++ {
			span := func(l float64) (float64, float64) {
				a, b := l*rng.Float64(), l*rng.Float64()
				return min(a, b), max(a, b)
			}
			x0, x1 := span(0.1)
			y0, y1 := span(0.08)
			z0, z1 := span(0.004)
			same("MeanInBox", res.MeanInBox(x0, x1, y0, y1, z0, z1), ref(g.LocateBox(x0, x1, y0, y1, z0, z1)))
		}
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
	res, err := m.SolveSteady(context.Background())
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
	res, err := m.SolveSteady(context.Background())
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
