package thermal_test

import (
	"context"
	"math"
	"testing"

	"aeropack/internal/compact"
	"aeropack/internal/core"
	"aeropack/internal/linalg"
	"aeropack/internal/materials"
	"aeropack/internal/mesh"
	"aeropack/internal/thermal"
	"aeropack/internal/units"
)

// e2Model rebuilds the forced-air E2 rack-module board's level-2 FV
// model the way core.BoardDesign.Level2 builds it, and checks the
// rebuild against Level2's board maximum bit for bit.
func e2Model(t *testing.T) *thermal.Model {
	t.Helper()
	board := &core.BoardDesign{
		Name: "rack-module", LengthM: 0.16, WidthM: 0.23, ThicknessM: 2.4e-3,
		CopperLayers: 12, CopperOz: 2, CopperCover: 0.7,
		EdgeCooling: core.ForcedAir, ChannelH: 55, ChannelAirC: 46,
		Components: []*compact.Component{
			{RefDes: "U1", Pkg: compact.FCBGACPU, Power: 8, X: 0.08, Y: 0.115},
			{RefDes: "U2", Pkg: compact.BGA256, Power: 3, X: 0.04, Y: 0.06},
			{RefDes: "U3", Pkg: compact.QFP208, Power: 2.5, X: 0.12, Y: 0.17},
			{RefDes: "Q1", Pkg: compact.TO263, Power: 1.5, X: 0.04, Y: 0.18},
			{RefDes: "U4", Pkg: compact.SOIC8, Power: 0.4, X: 0.13, Y: 0.05},
		},
		MassLoadKgM2: 3,
	}
	l2, err := board.Level2(core.DefaultScreen(core.Envelope{L: 0.5, W: 0.3, H: 0.26}))
	if err != nil {
		t.Fatal(err)
	}
	nx := int(math.Min(80, math.Max(16, board.LengthM/2.5e-3)))
	ny := int(math.Min(80, math.Max(12, board.WidthM/2.5e-3)))
	g, err := mesh.Uniform(nx, ny, 2, board.LengthM, board.WidthM, board.ThicknessM)
	if err != nil {
		t.Fatal(err)
	}
	pcb := materials.PCB(board.CopperLayers, board.CopperOz, board.CopperCover, board.ThicknessM)
	m, err := thermal.NewModel(g, []materials.Material{pcb})
	if err != nil {
		t.Fatal(err)
	}
	film := thermal.BC{Kind: thermal.Convection, T: units.CToK(board.ChannelAirC), H: board.ChannelH}
	m.SetFaceBC(mesh.ZMin, film)
	m.SetFaceBC(mesh.ZMax, film)
	for _, c := range board.Components {
		x0, x1, y0, y1 := c.Footprint()
		m.AddVolumeSource(x0, x1, y0, y1, 0, board.ThicknessM, c.Power)
	}
	res, err := m.SolveSteady(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := units.KToC(res.Max()); got != l2.MaxBoardC {
		t.Fatalf("rebuilt board max %v °C, Level2 %v °C: the rebuild no longer matches core's level-2 model", got, l2.MaxBoardC)
	}
	return m
}

// TestE2MIC0Iterations keeps MIC(0)'s guard on the E2 board operator,
// the preconditioner every painted model solves on: at most 0.6×
// the CG iterations of IC(0) on the assembled system.  Iteration counts
// are deterministic, so the guard is exact.
func TestE2MIC0Iterations(t *testing.T) {
	a, b, _ := e2Model(t).System()
	iters := func(build func(*linalg.CSR) (*linalg.ICPrec, error)) int {
		p, err := build(a)
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := linalg.CG(a, b, nil, p, 1e-9, 5000)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Iterations
	}
	ic, mic := iters(linalg.NewICPrec), iters(linalg.NewMICPrec)
	t.Logf("E2 board operator: IC(0) %d CG iterations, MIC(0) %d", ic, mic)
	if float64(mic) > 0.6*float64(ic) {
		t.Errorf("MIC(0) took %d CG iterations, more than 0.6× IC(0)'s %d", mic, ic)
	}
}

// solverModel is the solver ablation's plate: 24×24×4 aluminium cells,
// one convective face and a central source.
func solverModel() *thermal.Model {
	g, _ := mesh.Uniform(24, 24, 4, 0.16, 0.16, 0.006)
	m, _ := thermal.NewModel(g, []materials.Material{materials.Al6061})
	m.SetFaceBC(mesh.ZMin, thermal.BC{Kind: thermal.Convection, T: 300, H: 50})
	m.AddVolumeSource(0.06, 0.1, 0.06, 0.1, 0, 0.006, 30)
	return m
}

func BenchmarkAblation_SolverCG(b *testing.B)     { benchSolver(b, "cg") }
func BenchmarkAblation_SolverJacobi(b *testing.B) { benchSolver(b, "jacobi") }
func BenchmarkAblation_SolverSSOR(b *testing.B)   { benchSolver(b, "ssor") }
func BenchmarkAblation_SolverIC0(b *testing.B)    { benchSolver(b, "ic0") }
func BenchmarkAblation_SolverMIC0(b *testing.B)   { benchSolver(b, "mic0") }
func BenchmarkAblation_SolverFDM(b *testing.B)    { benchSolver(b, "fdm") }

// ablationPrec builds the solver ablation's preconditioner of the named
// kind on the system a, whose fast-diagonalization axes are axes: none
// for "cg".
func ablationPrec(kind string, a *linalg.CSR, axes [3]linalg.Axis) (linalg.Preconditioner, error) {
	switch kind {
	case "jacobi":
		return linalg.NewJacobiPrec(a), nil
	case "ssor":
		return linalg.NewSSORPrec(a, 1.2), nil
	case "ic0":
		return linalg.NewICPrec(a)
	case "mic0":
		return linalg.NewMICPrec(a)
	case "fdm":
		return linalg.NewFDMPrec(axes, nil)
	}
	return nil, nil
}

// TestSolverAblationIterations pins EXPERIMENTS.md's "linear solvers"
// row: the CG iterations to 1e-9 on solverModel's system, as a CSR,
// under each kind the ablation compares.  Iteration counts are
// deterministic, so the pin is exact.
func TestSolverAblationIterations(t *testing.T) {
	a, rhs, axes := solverModel().System()
	for _, c := range []struct {
		kind string
		want int
	}{{"cg", 141}, {"jacobi", 154}, {"ssor", 101}, {"ic0", 70}, {"mic0", 38}, {"fdm", 1}} {
		p, err := ablationPrec(c.kind, a, axes)
		if err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
		_, stats, err := linalg.CG(a, rhs, nil, p, 1e-9, 5000)
		if err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
		if stats.Iterations != c.want {
			t.Errorf("%s: %d CG iterations, want %d", c.kind, stats.Iterations, c.want)
		}
	}
}

// benchSolver assembles solverModel once, then times one preconditioner
// build plus one CG solve to 1e-9 per op, on no preconditioner or on
// the named one.  It reports the iterations as solver_iters/op.
func benchSolver(b *testing.B, prec string) {
	a, rhs, axes := solverModel().System()
	var iters int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := ablationPrec(prec, a, axes)
		if err != nil {
			b.Fatal(err)
		}
		_, stats, err := linalg.CG(a, rhs, nil, p, 1e-9, 5000)
		if err != nil {
			b.Fatal(err)
		}
		iters = stats.Iterations
	}
	b.ReportMetric(float64(iters), "solver_iters/op")
}
