package aeropack_test

import (
	"context"
	"math"
	"os"
	"testing"

	"aeropack/internal/core"
	"aeropack/internal/cosee"
	"aeropack/internal/materials"
	"aeropack/internal/mesh"
	"aeropack/internal/obs"
	"aeropack/internal/robust"
	"aeropack/internal/thermal"
	"aeropack/internal/units"
)

// TestSolverPerfGuard pins the headline property of the network solve
// so it cannot silently regress: a Fig. 10 run on Al6061 factors its
// networks once per Picard pass, 388 times, and runs no CG iteration.
// The budget of 425 factorizations fails a Picard regression of 10 % or
// more.  Factorization counts are deterministic, so the check is exact.
//
// It only runs when AEROPACK_SOLVER_GUARD=1 (verify.sh sets it in the
// solver-budget step).
func TestSolverPerfGuard(t *testing.T) {
	if os.Getenv("AEROPACK_SOLVER_GUARD") != "1" {
		t.Skip("set AEROPACK_SOLVER_GUARD=1 to run the solver performance guard")
	}

	t.Run("E5FactorizationBudget", func(t *testing.T) {
		reg := obs.NewRegistry()
		prev := obs.SetDefault(reg)
		defer obs.SetDefault(prev)
		if _, _, err := cosee.RunFig10(context.Background(), cosee.Config{Structure: materials.Al6061}, robust.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		f := reg.Counter("thermal_network_factorizations_total").Value()
		t.Logf("Fig. 10 run: %d network factorizations", f)
		if f > 425 {
			t.Errorf("Fig. 10 run took %d factorizations, budget 425", f)
		}
		if f == 0 {
			t.Error("no factorization recorded — is the run still solving its networks directly?")
		}
		if iters := reg.Counter("linalg_solver_iterations_total").Value(); iters != 0 {
			t.Errorf("Fig. 10 run took %d CG iterations, want 0: networks solve directly", iters)
		}
	})
}

// e2Level2Model rebuilds board's level-2 FV model the way
// core.BoardDesign.Level2 builds it, for the forced-air and
// free-convection boards the guards below solve with explicit solvers.
func e2Level2Model(t *testing.T, board *core.BoardDesign, screen core.Screen) *thermal.Model {
	t.Helper()
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
	var film thermal.BC
	switch board.EdgeCooling {
	case core.ForcedAir:
		film = thermal.BC{Kind: thermal.Convection, T: units.CToK(board.ChannelAirC), H: board.ChannelH}
	case core.FreeConvection:
		film = thermal.BC{Kind: thermal.ConvectionRadiation, T: units.CToK(screen.AmbientC), H: 4}
	default:
		t.Fatalf("no rebuild for edge cooling %v", board.EdgeCooling)
	}
	m.SetFaceBC(mesh.ZMin, film)
	m.SetFaceBC(mesh.ZMax, film)
	for _, c := range board.Components {
		x0, x1, y0, y1 := c.Footprint()
		m.AddVolumeSource(x0, x1, y0, y1, 0, board.ThicknessM, c.Power)
	}
	return m
}

// level2Iterations runs board's level 2 through core with default
// options and returns its board maximum and total CG iterations.
func level2Iterations(t *testing.T, board *core.BoardDesign, screen core.Screen) (float64, int) {
	t.Helper()
	reg := obs.NewRegistry()
	prev := obs.SetDefault(reg)
	defer obs.SetDefault(prev)
	l2, err := board.Level2(screen)
	if err != nil {
		t.Fatal(err)
	}
	return l2.MaxBoardC, int(reg.Counter("linalg_solver_iterations_total").Value())
}

// TestE2Level2MICIterations guards the level-2 board solve.  Level 2
// resolves to fast diagonalization ("cg-fdm"), the exact inverse of the
// board's Kronecker-sum operator, so the E2 board converges in exactly
// one CG iteration.  The board's model is rebuilt here the way
// core.BoardDesign.Level2 builds it, so explicit solvers can be named;
// matching Level2's field bit for bit under default options pins the
// rebuild to the real model.  Explicit names keep MIC(0)'s guard: at
// most 0.6× the CG iterations of IC(0).  Iteration counts are
// deterministic, so the guards are exact.
func TestE2Level2MICIterations(t *testing.T) {
	board := e2Board()
	screen := core.DefaultScreen(core.Envelope{L: 0.5, W: 0.3, H: 0.26})
	maxC, level2 := level2Iterations(t, board, screen)
	if level2 != 1 {
		t.Errorf("E2 level 2 took %d CG iterations, want exactly 1 under cg-fdm", level2)
	}

	m := e2Level2Model(t, board, screen)
	res, err := m.SolveSteady(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := units.KToC(res.Max()); got != maxC || res.Iterations != level2 {
		t.Fatalf("rebuilt board: max %v °C in %d iterations, Level2 %v °C in %d: the rebuild no longer matches core's level-2 model", got, res.Iterations, maxC, level2)
	}
	iters := map[string]int{}
	for _, solver := range []string{"cg-ic0", "cg-mic0"} {
		res, err := m.SolveSteady(context.Background(), &thermal.SolveOptions{Solver: solver})
		if err != nil {
			t.Fatalf("%s: %v", solver, err)
		}
		iters[solver] = res.Iterations
	}
	t.Logf("E2_Level2 board: IC(0) %d CG iterations, MIC(0) %d, FDM %d", iters["cg-ic0"], iters["cg-mic0"], level2)
	if float64(iters["cg-mic0"]) > 0.6*float64(iters["cg-ic0"]) {
		t.Errorf("MIC(0) took %d CG iterations, more than 0.6× IC(0)'s %d", iters["cg-mic0"], iters["cg-ic0"])
	}
}

// TestE2FreeConvectionFDMIterations guards fast diagonalization on a
// radiating board: a free-convection variant of the E2 board, whose
// faces carry a per-cell linearized radiative film that the
// preconditioner replaces by its face mean.  Every Picard pass must
// converge in at most 6 CG iterations, in as many passes as under
// MIC(0), and to the same field within the solve tolerance.
func TestE2FreeConvectionFDMIterations(t *testing.T) {
	board := e2Board()
	board.EdgeCooling = core.FreeConvection
	screen := core.DefaultScreen(core.Envelope{L: 0.5, W: 0.3, H: 0.26})
	maxC, _ := level2Iterations(t, board, screen)
	m := e2Level2Model(t, board, screen)

	solve := func(solver string) (*thermal.Result, []int) {
		var perPass []int
		res, err := m.SolveSteady(context.Background(), &thermal.SolveOptions{Solver: solver, OnIteration: func(it int, _ float64) {
			if it == 0 {
				perPass = append(perPass, 0)
			}
			perPass[len(perPass)-1]++
		}})
		if err != nil {
			t.Fatalf("%s: %v", solver, err)
		}
		return res, perPass
	}
	fdm, fdmPasses := solve("cg-fdm")
	mic, micPasses := solve("cg-mic0")
	if got := units.KToC(fdm.Max()); got != maxC {
		t.Fatalf("rebuilt free-convection board max %v °C, Level2 %v °C: the rebuild no longer matches core's level-2 model", got, maxC)
	}
	total := func(xs []int) (n int) {
		for _, x := range xs {
			n += x
		}
		return n
	}
	t.Logf("free-convection E2 board: FDM %d CG iterations over %d passes %v, MIC(0) %d over %d",
		total(fdmPasses), fdm.OuterIterations, fdmPasses, total(micPasses), mic.OuterIterations)
	if fdm.OuterIterations != mic.OuterIterations || len(fdmPasses) != fdm.OuterIterations {
		t.Errorf("FDM took %d Picard passes (%d solves), MIC(0) %d", fdm.OuterIterations, len(fdmPasses), mic.OuterIterations)
	}
	for pass, n := range fdmPasses {
		if n > 6 {
			t.Errorf("Picard pass %d took %d CG iterations under cg-fdm, want ≤ 6", pass+1, n)
		}
	}
	if d := math.Abs(fdm.Max() - mic.Max()); d > 1e-6 {
		t.Errorf("FDM and MIC(0) board maxima differ by %.3g K", d)
	}
}
