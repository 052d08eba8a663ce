package aeropack_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
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

// TestSolverPerfGuard pins two headline properties of the solvers so
// they cannot silently regress.  A Fig. 10 run on Al6061 factors its
// networks once per Picard pass, 48 times (three pinned capability
// solves and three point solves), and runs no CG iteration; the budget
// of 53 factorizations fails a Picard regression of 10 % or more, or a
// capability that solves more than once, and factorization counts are
// deterministic, so the check is exact.  A level-2 solve of the E2
// board builds no CSR at all: CG runs on the board's Kronecker-sum
// form, and a warm solve allocates only its answer and the model:
// the boundary diagonal, the right-hand side, CG's work vectors and the
// fast diagonalization's per-cell arrays live in a stencil workspace an
// earlier solve gave back to the free list.  The byte budget fails a
// solve that lays out the CSR again or allocates any of those arrays,
// serially or with one warm solve per P running at once.
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
		if f > 53 {
			t.Errorf("Fig. 10 run took %d factorizations, budget 53", f)
		}
		if f == 0 {
			t.Error("no factorization recorded — is the run still solving its networks directly?")
		}
		if iters := reg.Counter("linalg_solver_iterations_total").Value(); iters != 0 {
			t.Errorf("Fig. 10 run took %d CG iterations, want 0: networks solve directly", iters)
		}
	})

	t.Run("E2Level2Bytes", func(t *testing.T) {
		screen := core.DefaultScreen(core.Envelope{L: 0.5, W: 0.3, H: 0.26})
		// perSolve has procs goroutines run 20 warm solves each at once,
		// after a concurrent warm-up of 3 each that leaves a workspace per
		// goroutine on the free list, and returns the bytes allocated per
		// solve.
		perSolve := func(procs int) uint64 {
			const warm, runs = 3, 20
			var before, after runtime.MemStats
			round := func(n int) {
				var wg sync.WaitGroup
				for g := 0; g < procs; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < n; i++ {
							if _, err := e2Board().Level2(screen); err != nil {
								t.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
			}
			round(warm)
			runtime.ReadMemStats(&before)
			round(runs)
			runtime.ReadMemStats(&after)
			return (after.TotalAlloc - before.TotalAlloc) / uint64(procs*runs)
		}
		for _, procs := range []int{1, startProcs} {
			b := perSolve(procs)
			t.Logf("warm E2 level 2 on %d goroutines: %d B per solve", procs, b)
			if b > e2Level2Bytes {
				t.Errorf("warm E2 level 2 on %d goroutines allocated %d B per solve, budget %d: is a solve allocating its stencil arrays again?", procs, b, e2Level2Bytes)
			}
		}
	})
}

// startProcs is GOMAXPROCS as the process started, the capacity of
// internal/thermal's workspace free list, which -cpu does not change.
var startProcs = runtime.GOMAXPROCS(0)

// e2Level2Bytes is the allocation budget of one warm level-2 solve of
// the E2 board, which measures about 91,000 B on linux/amd64 (go1.24):
// its 10,240-cell answer, 82 KB, and the interior axes.  Any n-float
// array allocated per solve adds 82 KB and fails it, as does a
// goroutine that finds no workspace on the free list, and a stencil
// that lays out the 7-point CSR again adds about 1.8 MB.
const e2Level2Bytes = 130_000

// e2Level2Model rebuilds board's level-2 FV model the way
// core.BoardDesign.Level2 builds it, for the free-convection board the
// guard below compares against its painted twin.
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
	if board.EdgeCooling != core.FreeConvection {
		t.Fatalf("no rebuild for edge cooling %v", board.EdgeCooling)
	}
	film := thermal.BC{Kind: thermal.ConvectionRadiation, T: units.CToK(screen.AmbientC), H: 4}
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
// preconditions every board by fast diagonalization, the exact inverse
// of the board's Kronecker-sum operator, so the E2 board converges in
// exactly one CG iteration.  MIC(0)'s guard on the same operator, at
// most 0.6× the CG iterations of IC(0), is internal/thermal's
// TestE2MIC0Iterations.  Iteration counts are deterministic, so the
// guards are exact.
func TestE2Level2MICIterations(t *testing.T) {
	_, level2 := level2Iterations(t, e2Board(), core.DefaultScreen(core.Envelope{L: 0.5, W: 0.3, H: 0.26}))
	if level2 != 1 {
		t.Errorf("E2 level 2 took %d CG iterations, want exactly 1 under fast diagonalization", level2)
	}
}

// TestE2FreeConvectionFDMIterations guards the Newton passes and fast
// diagonalization on a radiating board: a free-convection variant of the
// E2 board, whose faces carry a per-cell Newton-linearized radiative
// film that the preconditioner replaces by its face mean.  The solve
// takes exactly 3 passes of 1, 2 and 1 CG iterations, as many passes as
// MIC(0) takes on the board's painted twin (material 0 painted over the
// whole board), and lands on the same field within the solve tolerance.  Pass and iteration counts are deterministic, so the pin is
// exact.
func TestE2FreeConvectionFDMIterations(t *testing.T) {
	board := e2Board()
	board.EdgeCooling = core.FreeConvection
	screen := core.DefaultScreen(core.Envelope{L: 0.5, W: 0.3, H: 0.26})
	maxC, _ := level2Iterations(t, board, screen)
	m := e2Level2Model(t, board, screen)
	twin := e2Level2Model(t, board, screen)
	if n, err := twin.PaintRegion(0, board.LengthM, 0, board.WidthM, 0, board.ThicknessM, 0); n != twin.Grid.NumCells() || err != nil {
		t.Fatalf("whole-board paint covered %d of %d cells: %v", n, twin.Grid.NumCells(), err)
	}

	// solve returns m's field and the CG iterations of each pass, read
	// from the iterations attribute of its thermal.linSolve spans.
	solve := func(m *thermal.Model) (*thermal.Result, []int) {
		tr := obs.NewTrace()
		prev := obs.SetTracer(tr)
		res, err := m.SolveSteady(context.Background())
		obs.SetTracer(prev)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		var file struct {
			TraceEvents []struct {
				Name string            `json:"name"`
				Args map[string]string `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
			t.Fatal(err)
		}
		var perPass []int
		for _, ev := range file.TraceEvents {
			if ev.Name != "thermal.linSolve" {
				continue
			}
			n, err := strconv.Atoi(ev.Args["iterations"])
			if err != nil {
				t.Fatalf("thermal.linSolve iterations %q: %v", ev.Args["iterations"], err)
			}
			perPass = append(perPass, n)
		}
		return res, perPass
	}
	fdm, fdmPasses := solve(m)
	mic, micPasses := solve(twin)
	if got := units.KToC(fdm.Max()); got != maxC {
		t.Fatalf("rebuilt free-convection board max %v °C, Level2 %v °C: the rebuild no longer matches core's level-2 model", got, maxC)
	}
	total := func(xs []int) (n int) {
		for _, x := range xs {
			n += x
		}
		return n
	}
	t.Logf("free-convection E2 board: FDM %d CG iterations over %d passes %v, MIC(0) twin %d over %d",
		total(fdmPasses), fdm.OuterIterations, fdmPasses, total(micPasses), mic.OuterIterations)
	if fdm.OuterIterations != mic.OuterIterations || len(fdmPasses) != fdm.OuterIterations {
		t.Errorf("FDM took %d Picard passes (%d solves), MIC(0) %d", fdm.OuterIterations, len(fdmPasses), mic.OuterIterations)
	}
	if want := []int{1, 2, 1}; !slices.Equal(fdmPasses, want) {
		t.Errorf("FDM took CG iterations %v per Picard pass, want exactly %v (3 passes, 4 iterations)", fdmPasses, want)
	}
	if d := math.Abs(fdm.Max() - mic.Max()); d > 1e-6 {
		t.Errorf("FDM and MIC(0) board maxima differ by %.3g K", d)
	}
}
