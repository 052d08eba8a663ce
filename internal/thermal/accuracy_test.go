package thermal

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"aeropack/internal/linalg"
	"aeropack/internal/materials"
	"aeropack/internal/mesh"
	"aeropack/internal/units"
)

// radiatingPlate draws one plate 30–230 mm a side and 0.8–2.4 mm thick,
// of a PCB laminate or bare aluminium, meshed like a level-2 board (two
// layers, cells of about 5 mm).  Its top face, and half the time its
// bottom one, radiates to one ambient of 218–358 K, each face with its
// own H ∈ {0, 0.5, 4, 10} W/m²K and ε from the material (0.9 or 0.09),
// 0.05 or 0.9; the edges are adiabatic.  1–8 through-thickness sources
// of 1–60 W each heat it.
func radiatingPlate(t *testing.T, rng *rand.Rand) *Model {
	t.Helper()
	lx, ly := 0.03+0.2*rng.Float64(), 0.03+0.2*rng.Float64()
	thk := 0.8e-3 + 1.6e-3*rng.Float64()
	cells := func(l float64) int { return min(32, max(6, int(l/5e-3))) }
	g, err := mesh.Uniform(cells(lx), cells(ly), 2, lx, ly, thk)
	if err != nil {
		t.Fatal(err)
	}
	mat := materials.Al6061
	if rng.Intn(2) == 0 {
		mat = materials.PCB(2+rng.Intn(11), 1, 0.3+0.5*rng.Float64(), thk)
	}
	m, err := NewModel(g, []materials.Material{mat})
	if err != nil {
		t.Fatal(err)
	}
	ta := 218 + 140*rng.Float64()
	film := func() BC {
		return BC{
			Kind:  ConvectionRadiation,
			T:     ta,
			H:     []float64{0, 0.5, 4, 10}[rng.Intn(4)],
			Emiss: []float64{0, 0.05, 0.9}[rng.Intn(3)], // 0: the material's
		}
	}
	m.SetFaceBC(mesh.ZMax, film())
	if rng.Intn(2) == 0 {
		m.SetFaceBC(mesh.ZMin, film())
	}
	for n := 1 + rng.Intn(8); n > 0; n-- {
		w, h := lx*(0.2+0.3*rng.Float64()), ly*(0.2+0.3*rng.Float64())
		x0, y0 := (lx-w)*rng.Float64(), (ly-h)*rng.Float64()
		if m.AddVolumeSource(x0, x0+w, y0, y0+h, 0, thk, 1+59*rng.Float64()) == 0 {
			t.Fatalf("source of %v × %v m missed the %v × %v m plate", w, h, lx, ly)
		}
	}
	return m
}

// e2FreeConvectionBoard is the level-2 model core.BoardDesign.Level2
// builds for the E2 benchmark board cooled by free convection: both
// faces radiating to the 71 °C ambient with H = 4 W/m²K.
func e2FreeConvectionBoard(t *testing.T) *Model {
	return e2Board(t, BC{Kind: ConvectionRadiation, T: units.CToK(71), H: 4})
}

// e2Board is the level-2 model core.BoardDesign.Level2 builds for the E2
// benchmark board: a 160 × 230 × 2.4 mm, 12-layer 2 oz board on a
// 64 × 80 × 2 grid, film on both faces, and the footprints of its five
// parts.
func e2Board(t *testing.T, film BC) *Model {
	t.Helper()
	const thk = 2.4e-3
	g, err := mesh.Uniform(64, 80, 2, 0.16, 0.23, thk)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(g, []materials.Material{materials.PCB(12, 2, 0.7, thk)})
	if err != nil {
		t.Fatal(err)
	}
	m.SetFaceBC(mesh.ZMin, film)
	m.SetFaceBC(mesh.ZMax, film)
	for _, c := range []struct{ x, y, l, w, power float64 }{
		{0.08, 0.115, 35e-3, 35e-3, 8},  // U1, FCBGA-CPU
		{0.04, 0.06, 17e-3, 17e-3, 3},   // U2, BGA256
		{0.12, 0.17, 28e-3, 28e-3, 2.5}, // U3, QFP208
		{0.04, 0.18, 10e-3, 9e-3, 1.5},  // Q1, TO263
		{0.13, 0.05, 5e-3, 4e-3, 0.4},   // U4, SOIC8
	} {
		if m.AddVolumeSource(c.x-c.l/2, c.x+c.l/2, c.y-c.w/2, c.y+c.w/2, 0, thk, c.power) == 0 {
			t.Fatalf("footprint at (%v, %v) missed the mesh", c.x, c.y)
		}
	}
	return m
}

// referenceField continues SolveSteady's passes from the field T with
// CG at Tol 1e-13, preconditioned by MIC(0), until no cell moves more
// than 1e-9 K.
func referenceField(t *testing.T, m *Model, T []float64) []float64 {
	t.Helper()
	st := newStencil(m, nil)
	for pass := 0; pass < 20; pass++ {
		_, b := st.assemble(T)
		a := st.csr(T)
		p, err := linalg.NewMICPrec(a)
		if err != nil {
			t.Fatal(err)
		}
		x, _, err := linalg.CG(a, b, slices.Clone(T), p, 1e-13, 100000)
		if err != nil {
			t.Fatal(err)
		}
		delta := 0.0
		for i := range x {
			delta = max(delta, math.Abs(x[i]-T[i]))
		}
		T = x
		if delta < 1e-9 {
			return T
		}
	}
	t.Fatal("reference field moved more than 1e-9 K after 20 passes")
	return nil
}

// TestRadiatingBoardAccuracy measures how far a served radiating solve
// lies from the fixed point it stops short of, on 120 random radiating
// plates and the free-convection E2 board.  Every solve takes at most 15
// passes, balances its sources against the heat its faces lose
// (|P − Σ_f BoundaryHeatFlow| ≤ 1e-6·P) and lies within 1e-4 K of the
// reference field.  The worst of each is logged (-v): they are the
// baseline a change to the nonlinear solve must match or beat.
func TestRadiatingBoardAccuracy(t *testing.T) {
	const (
		maxPasses  = 15
		maxBalance = 1e-6
		maxErrK    = 1e-4
	)
	rng := rand.New(rand.NewSource(3))
	models := []*Model{e2FreeConvectionBoard(t)}
	for len(models) <= 120 {
		models = append(models, radiatingPlate(t, rng))
	}
	worstPasses, worstBalance, worstErr := 0, 0.0, 0.0
	for i, m := range models {
		res, err := m.SolveSteady(context.Background())
		if err != nil {
			t.Fatalf("model %d: %v", i, err)
		}
		p, out := m.TotalSourcePower(), 0.0
		for f := mesh.XMin; f < mesh.NumFaces; f++ {
			out += m.BoundaryHeatFlow(res, f)
		}
		balance := math.Abs(p-out) / p
		errK := 0.0
		for c, v := range referenceField(t, m, res.T) {
			errK = max(errK, math.Abs(res.T[c]-v))
		}
		if res.OuterIterations > maxPasses || !(balance <= maxBalance) || !(errK <= maxErrK) {
			t.Errorf("model %d: %d passes, energy balance %.3g, max |T − T_ref| %.3g K; want ≤ %d, ≤ %g and ≤ %g K",
				i, res.OuterIterations, balance, errK, maxPasses, maxBalance, maxErrK)
		}
		worstPasses = max(worstPasses, res.OuterIterations)
		worstBalance = max(worstBalance, balance)
		worstErr = max(worstErr, errK)
	}
	t.Logf("worst of %d radiating models: %d passes, energy balance %.3g, max |T − T_ref| %.3g K",
		len(models), worstPasses, worstBalance, worstErr)
}

// linearBoard draws one board the way the board-linear workload does: a
// 100–230 × 80–230 mm board 1.6, 2.0 or 2.4 mm thick, of 4–12 copper
// layers of 0.5, 1 or 2 oz at 40–80 % cover, meshed as
// core.BoardDesign.Level2 meshes it, and cooled either by conduction to
// wedge-lock rails of 20–55 °C on its y edges (2,500 W/m²K) or by forced
// air of 25–55 °C at 25–90 W/m²K on both faces.  2–7 parts of
// 0.5–5.5 W, 5–35 mm a side and clear of the edges, heat it.
func linearBoard(t *testing.T, rng *rand.Rand) *Model {
	t.Helper()
	lx, ly := 0.1+0.13*rng.Float64(), 0.08+0.15*rng.Float64()
	thk := []float64{1.6e-3, 2.0e-3, 2.4e-3}[rng.Intn(3)]
	cells := func(l float64, lo int) int { return min(80, max(lo, int(l/2.5e-3))) }
	g, err := mesh.Uniform(cells(lx, 16), cells(ly, 12), 2, lx, ly, thk)
	if err != nil {
		t.Fatal(err)
	}
	pcb := materials.PCB(4+rng.Intn(9), []float64{0.5, 1, 2}[rng.Intn(3)], 0.4+0.4*rng.Float64(), thk)
	m, err := NewModel(g, []materials.Material{pcb})
	if err != nil {
		t.Fatal(err)
	}
	if rng.Intn(2) == 0 {
		rail := BC{Kind: Convection, T: units.CToK(20 + 35*rng.Float64()), H: 2500}
		m.SetFaceBC(mesh.YMin, rail)
		m.SetFaceBC(mesh.YMax, rail)
	} else {
		air := BC{Kind: Convection, T: units.CToK(25 + 30*rng.Float64()), H: 25 + 65*rng.Float64()}
		m.SetFaceBC(mesh.ZMin, air)
		m.SetFaceBC(mesh.ZMax, air)
	}
	for n := 2 + rng.Intn(6); n > 0; n-- {
		side := 5e-3 + 30e-3*rng.Float64()
		x0, y0 := 1e-3+(lx-side-2e-3)*rng.Float64(), 1e-3+(ly-side-2e-3)*rng.Float64()
		if m.AddVolumeSource(x0, x0+side, y0, y0+side, 0, thk, 0.5+5*rng.Float64()) == 0 {
			t.Fatalf("part of %v m missed the %v × %v m board", side, lx, ly)
		}
	}
	return m
}

// TestLinearBoardAccuracy measures how far a served linear solve lies
// from the exact field, on the forced-air E2 board and 60 random boards
// drawn like board-linear.  Every solve takes one CG iteration and lies
// within 1e-8 K of the reference field.  The worst distance is logged
// (-v): it is the baseline a change to the linear solve must match or
// beat.
func TestLinearBoardAccuracy(t *testing.T) {
	const maxErrK = 1e-8
	rng := rand.New(rand.NewSource(5))
	models := []*Model{e2Board(t, BC{Kind: Convection, T: units.CToK(46), H: 55})}
	for len(models) <= 60 {
		models = append(models, linearBoard(t, rng))
	}
	worst := 0.0
	for i, m := range models {
		res, err := m.SolveSteady(context.Background())
		if err != nil {
			t.Fatalf("model %d: %v", i, err)
		}
		errK := 0.0
		for c, v := range referenceField(t, m, res.T) {
			errK = max(errK, math.Abs(res.T[c]-v))
		}
		if res.Iterations != 1 || !(errK <= maxErrK) {
			t.Errorf("model %d: %d CG iterations, max |T − T_ref| %.3g K; want 1 and ≤ %g K", i, res.Iterations, errK, maxErrK)
		}
		worst = max(worst, errK)
	}
	t.Logf("worst of %d linear boards: max |T − T_ref| %.3g K", len(models), worst)
}

// TestLevel2AxesSplit pins the split to the level-2 board shapes: on
// grids of nx × ny × 2 cells, every nx of 16–80 and every ny of 12–80,
// cooled by conduction rails or by forced air, the axes fdmAxes derives
// are all linalg.Axis.Mirrored, so fast diagonalization splits each
// in-plane axis it diagonalizes.  A change to mesh.Uniform or fdmAxes
// that breaks the mirror symmetry fails here instead of silently
// doubling the transform work.
func TestLevel2AxesSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 69; i++ {
		nx, ny := 16+i%65, 12+i
		lx, ly := (float64(nx)+rng.Float64())*2.5e-3, (float64(ny)+rng.Float64())*2.5e-3
		thk := 1.6e-3 + 0.8e-3*rng.Float64()
		for _, cooling := range []string{"conduction", "forced-air"} {
			g, err := mesh.Uniform(nx, ny, 2, lx, ly, thk)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewModel(g, []materials.Material{materials.PCB(4+rng.Intn(9), 1, 0.6, thk)})
			if err != nil {
				t.Fatal(err)
			}
			if cooling == "conduction" {
				rail := BC{Kind: Convection, T: units.CToK(40), H: 2500}
				m.SetFaceBC(mesh.YMin, rail)
				m.SetFaceBC(mesh.YMax, rail)
			} else {
				air := BC{Kind: Convection, T: units.CToK(40), H: 25 + 65*rng.Float64()}
				m.SetFaceBC(mesh.ZMin, air)
				m.SetFaceBC(mesh.ZMax, air)
			}
			st := newStencil(m, nil)
			st.assemble(make([]float64, g.NumCells()))
			for d, ax := range st.fdmAxes() {
				if !ax.Mirrored() {
					t.Errorf("%d × %d %s board: axis %d is not mirrored, so it would not split", nx, ny, cooling, d)
				}
			}
		}
	}
}
