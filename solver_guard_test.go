package aeropack_test

import (
	"math"
	"os"
	"testing"

	"aeropack/internal/core"
	"aeropack/internal/cosee"
	"aeropack/internal/materials"
	"aeropack/internal/mesh"
	"aeropack/internal/obs"
	"aeropack/internal/parallel"
	"aeropack/internal/thermal"
	"aeropack/internal/units"
)

// TestSolverPerfGuard pins the two headline properties of the sparse
// solver overhaul so they cannot silently regress:
//
//  1. An E5 Fig. 10 sweep runs in a bounded CG iteration budget.  The
//     pre-overhaul baseline was ~11,260 iterations per sweep (unprec-
//     onditioned CG restarted cold at every Picard pass and bisection
//     probe); IC(0) + solver-setup reuse + warm starts bring it to
//     ~1,000.  The guard sits at 1,100 — a 10× improvement floor.
//     Iteration counts are deterministic, so this sub-test is exact.
//  2. The parallel steady solve is not slower than the serial one when
//     it actually fans out.  Wall-clock comparisons are only meaningful
//     with real cores, so the timing assertion tightens with the
//     resolved worker count: at workers == 1 the parallel path is the
//     serial path plus scheduling overhead and just gets a generous
//     noise bound.
//
// The test costs a few seconds of benchmarking, so it only runs when
// AEROPACK_SOLVER_GUARD=1 (verify.sh sets it in the solver smoke step).
func TestSolverPerfGuard(t *testing.T) {
	if os.Getenv("AEROPACK_SOLVER_GUARD") != "1" {
		t.Skip("set AEROPACK_SOLVER_GUARD=1 to run the solver performance guard")
	}

	t.Run("E5IterationBudget", func(t *testing.T) {
		reg := obs.NewRegistry()
		prev := obs.SetDefault(reg)
		defer obs.SetDefault(prev)
		if _, err := cosee.RunFig10(materials.Al6061); err != nil {
			t.Fatal(err)
		}
		iters := reg.Counter("linalg_solver_iterations_total").Value()
		t.Logf("Fig. 10 sweep: %d CG iterations (pre-overhaul baseline ~11260)", iters)
		if iters > 1100 {
			t.Errorf("Fig. 10 sweep took %d CG iterations, budget 1100", iters)
		}
		if iters == 0 {
			t.Error("no solver iterations recorded — is the sweep still running the iterative solver?")
		}
	})

	t.Run("ParallelNotSlower", func(t *testing.T) {
		m := bigSolverModel()
		w := parallel.Workers(0)
		serial := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.SolveSteady(nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		par := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.SolveSteady(&thermal.SolveOptions{Parallel: true, Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
		st, pt := serial.NsPerOp(), par.NsPerOp()
		t.Logf("serial %d ns/op, parallel %d ns/op at %d workers", st, pt, w)
		if w > 1 {
			if pt >= st {
				t.Errorf("parallel solve (%d ns/op) not faster than serial (%d ns/op) at %d workers", pt, st, w)
			}
		} else if float64(pt) > 1.2*float64(st) {
			// Single worker: same code path plus dispatch; anything past
			// noise means the parallel plumbing itself regressed.
			t.Errorf("parallel solve (%d ns/op) more than 1.2× serial (%d ns/op) at 1 worker", pt, st)
		}
	})
}

// TestE2Level2MICIterations guards the reason MIC(0) is the FV default:
// on the E2_Level2 board it needs at most 0.6× the CG iterations of
// IC(0).  Iteration counts are deterministic, so the guard is exact.
// The board's level-2 model is rebuilt here the way
// core.BoardDesign.Level2 builds it, so both preconditioners can be
// solved; matching the iteration count Level2 itself records pins the
// rebuild to the real model.
func TestE2Level2MICIterations(t *testing.T) {
	reg := obs.NewRegistry()
	prev := obs.SetDefault(reg)
	defer obs.SetDefault(prev)
	board := e2Board()
	if _, err := board.Level2(core.DefaultScreen(core.Envelope{L: 0.5, W: 0.3, H: 0.26})); err != nil {
		t.Fatal(err)
	}
	level2 := int(reg.Counter("linalg_solver_iterations_total").Value())

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
	air := thermal.BC{Kind: thermal.Convection, T: units.CToK(board.ChannelAirC), H: board.ChannelH}
	m.SetFaceBC(mesh.ZMin, air)
	m.SetFaceBC(mesh.ZMax, air)
	for _, c := range board.Components {
		x0, x1, y0, y1 := c.Footprint()
		m.AddVolumeSource(x0, x1, y0, y1, 0, board.ThicknessM, c.Power)
	}
	iters := map[string]int{}
	for _, solver := range []string{"cg-ic0", "cg-mic0"} {
		res, err := m.SolveSteady(&thermal.SolveOptions{Solver: solver})
		if err != nil {
			t.Fatalf("%s: %v", solver, err)
		}
		iters[solver] = res.Iterations
	}
	t.Logf("E2_Level2 board: IC(0) %d CG iterations, MIC(0) %d", iters["cg-ic0"], iters["cg-mic0"])
	if iters["cg-mic0"] != level2 {
		t.Fatalf("rebuilt board took %d MIC(0) iterations, Level2 %d: the rebuild no longer matches core's level-2 model", iters["cg-mic0"], level2)
	}
	if float64(iters["cg-mic0"]) > 0.6*float64(iters["cg-ic0"]) {
		t.Errorf("MIC(0) took %d CG iterations, more than 0.6× IC(0)'s %d", iters["cg-mic0"], iters["cg-ic0"])
	}
}
