package thermal

import (
	"context"
	"math"
	"regexp"
	"strings"
	"testing"

	"aeropack/internal/materials"
	"aeropack/internal/mesh"
	"aeropack/internal/obs"
)

func obsTestModel(t *testing.T) *Model {
	t.Helper()
	return plateModel(t, 8, 8, 2)
}

// plateModel is a convection-cooled plate of nx·ny·nz cells with a
// central heat source.
func plateModel(t *testing.T, nx, ny, nz int) *Model {
	t.Helper()
	g, err := mesh.Uniform(nx, ny, nz, 0.08, 0.08, 0.004)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(g, []materials.Material{materials.Al6061})
	if err != nil {
		t.Fatal(err)
	}
	m.SetFaceBC(mesh.ZMin, BC{Kind: Convection, T: 300, H: 50})
	m.AddVolumeSource(0.02, 0.06, 0.02, 0.06, 0, 0.004, 5)
	return m
}

// TestSolveErrorSurfacesIterStats pins the error contract added for the
// telemetry work: a failed linear solve must name the solver and carry
// the iteration count and final residual, so a failure is diagnosable
// from the message alone.  The thermal prefix must not repeat the
// figures the wrapped error already carries — the old format printed
// the residual twice, once per layer.  The model has more than 600
// cells, so no dense last resort rescues the exhausted ladder.
func TestSolveErrorSurfacesIterStats(t *testing.T) {
	m := plateModel(t, 16, 16, 3)
	const maxIter = 3
	_, err := m.SolveSteady(context.Background(), &SolveOptions{Solver: "cg", MaxIter: maxIter, Tol: 1e-14})
	if err == nil {
		t.Fatal("expected non-convergence with MaxIter=3")
	}
	msg := err.Error()
	format := regexp.MustCompile(`^thermal: cg solve failed: robust: all 3 solver attempts failed, last \(cg-jacobi-relaxed\): linalg: CG did not converge in 3 iterations \(residual [0-9.e+-]+\)$`)
	if !format.MatchString(msg) {
		t.Errorf("error %q does not match the deduped format %v", msg, format)
	}
	for _, figure := range []string{"iterations", "residual"} {
		if got := strings.Count(msg, figure); got != 1 {
			t.Errorf("error %q mentions %q %d times, want exactly 1", msg, figure, got)
		}
	}
}

// TestSolveDenseLastResort: the options that exhaust the ladder above
// on a model of at most 600 cells return the dense LU answer instead,
// equal to a converged explicit solve.
func TestSolveDenseLastResort(t *testing.T) {
	reg := obs.NewRegistry()
	prev := obs.SetDefault(reg)
	defer obs.SetDefault(prev)

	m := obsTestModel(t)
	res, err := m.SolveSteady(context.Background(), &SolveOptions{Solver: "cg", MaxIter: 3, Tol: 1e-14})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("robust_chain_exhausted_total").Value(); got != 1 {
		t.Errorf("robust_chain_exhausted_total = %d, want 1", got)
	}
	ref, err := m.SolveSteady(context.Background(), &SolveOptions{Solver: "cg-mic0", Tol: 1e-13})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.T {
		if d := math.Abs(res.T[i]-ref.T[i]) / math.Abs(ref.T[i]); !(d <= 1e-9) {
			t.Fatalf("cell %d: dense %v, explicit solve %v (relative %.3g)", i, res.T[i], ref.T[i], d)
		}
	}
}

func TestSolveUnknownSolver(t *testing.T) {
	m := obsTestModel(t)
	_, err := m.SolveSteady(context.Background(), &SolveOptions{Solver: "gmres"})
	if err == nil || !strings.Contains(err.Error(), `unknown solver "gmres"`) {
		t.Errorf("unknown-solver error = %v", err)
	}
}

// TestSolveSteadySpans checks the solver's span taxonomy: a steady solve
// under an enabled tracer records thermal.SolveSteady with one
// thermal.assemble + thermal.linSolve child pair per outer pass.
func TestSolveSteadySpans(t *testing.T) {
	tr := obs.NewTrace()
	prev := obs.SetTracer(tr)
	defer obs.SetTracer(prev)

	m := obsTestModel(t)
	if _, err := m.SolveSteady(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	want := "thermal.SolveSteady\n" +
		"  thermal.assemble\n" +
		"  thermal.linSolve\n"
	if got := tr.TreeString(); got != want {
		t.Errorf("span tree = \n%s\nwant\n%s", got, want)
	}
}

// TestSolveOnIteration checks the convergence-callback plumbing from
// SolveOptions down to the linear solver: residuals arrive in iteration
// order and the last one is at or below the solve tolerance.
func TestSolveOnIteration(t *testing.T) {
	m := obsTestModel(t)
	var its []int
	var residuals []float64
	res, err := m.SolveSteady(context.Background(), &SolveOptions{
		Tol: 1e-9,
		OnIteration: func(it int, r float64) {
			its = append(its, it)
			residuals = append(residuals, r)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(its) == 0 {
		t.Fatal("OnIteration never fired")
	}
	if len(its) < res.Iterations {
		t.Errorf("callback fired %d times for %d iterations", len(its), res.Iterations)
	}
	for i := 1; i < len(its); i++ {
		if its[i] != its[i-1]+1 {
			t.Fatalf("iteration numbers not sequential: %v", its[:i+1])
		}
	}
	if last := residuals[len(residuals)-1]; !(last <= 1e-9) {
		t.Errorf("final residual %g, want ≤ tol 1e-9", last)
	}
}

// TestSolveMetrics checks the registry side of a steady solve: matrix
// nnz gauge, assembly-, preconditioner-setup- and Krylov-time
// histograms and the linalg solve counters all land under their
// canonical names.
func TestSolveMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	prev := obs.SetDefault(reg)
	defer obs.SetDefault(prev)

	m := obsTestModel(t)
	res, err := m.SolveSteady(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if nnz := reg.Gauge("thermal_matrix_nnz").Value(); nnz <= 0 {
		t.Errorf("thermal_matrix_nnz = %g, want > 0", nnz)
	}
	if n := reg.Histogram("thermal_assembly_seconds", nil).Count(); n != 1 {
		t.Errorf("thermal_assembly_seconds count = %d, want 1", n)
	}
	if n := reg.Counter("linalg_cg_solves_total").Value(); n != 1 {
		t.Errorf("linalg_cg_solves_total = %d, want 1", n)
	}
	for _, name := range []string{"linalg_prec_setup_seconds", "linalg_krylov_seconds"} {
		if n := reg.Histogram(name, nil).Count(); n != 1 {
			t.Errorf("%s count = %d, want 1", name, n)
		}
	}
	if iters := reg.Counter("linalg_solver_iterations_total").Value(); iters != int64(res.Iterations) {
		t.Errorf("linalg_solver_iterations_total = %d, want %d", iters, res.Iterations)
	}
}
