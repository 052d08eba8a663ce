package linalg

import (
	"testing"

	"aeropack/internal/obs"
)

// spdSystem builds a small SPD tridiagonal system for solver tests.
func spdSystem(n int) (*CSR, []float64) {
	coo := NewCOO(n, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4)
		if i+1 < n {
			coo.Add(i, i+1, -1)
			coo.Add(i+1, i, -1)
		}
		b[i] = 1
	}
	return coo.ToCSR(), b
}

// TestCGOnIterationLog wires a convergence trace into a real CG solve
// and checks the recorded history: one sample per iteration, sequential
// iteration numbers, final residual at the solver's converged value.
func TestCGOnIterationLog(t *testing.T) {
	a, b := spdSystem(50)
	var its []int
	var residuals []float64
	_, stats, err := CGOpt(a, b, nil, &IterOptions{Tol: 1e-10, MaxIter: 500, OnIteration: func(it int, r float64) {
		its = append(its, it)
		residuals = append(residuals, r)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(its) != stats.Iterations {
		t.Errorf("recorded %d samples for %d iterations", len(its), stats.Iterations)
	}
	for i, it := range its {
		if it != i {
			t.Fatalf("sample %d has iteration %d", i, it)
		}
	}
	if last := residuals[len(residuals)-1]; last != stats.Residual {
		t.Errorf("last recorded residual %g != stats residual %g", last, stats.Residual)
	}
}

// TestRecordSolveMetrics checks the metric side of a solve, including
// the failure counter on a non-converged run.
func TestRecordSolveMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	prev := obs.SetDefault(reg)
	defer obs.SetDefault(prev)

	a, b := spdSystem(50)
	_, stats, err := CGOpt(a, b, nil, &IterOptions{Tol: 1e-10, MaxIter: 500})
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("linalg_cg_solves_total").Value(); n != 1 {
		t.Errorf("linalg_cg_solves_total = %d, want 1", n)
	}
	if n := reg.Counter("linalg_solver_iterations_total").Value(); n != int64(stats.Iterations) {
		t.Errorf("linalg_solver_iterations_total = %d, want %d", n, stats.Iterations)
	}
	if n := reg.Histogram("linalg_residual", nil).Count(); n != 1 {
		t.Errorf("linalg_residual count = %d, want 1", n)
	}
	if n := reg.Histogram("linalg_krylov_seconds", nil).Count(); n != 1 {
		t.Errorf("linalg_krylov_seconds count = %d, want 1", n)
	}

	// A capped solve fails and must hit the failure counter.
	if _, _, err := CGOpt(a, b, nil, &IterOptions{Tol: 1e-16, MaxIter: 2}); err == nil {
		t.Fatal("expected non-convergence with MaxIter=2")
	}
	if n := reg.Counter("linalg_solver_failures_total").Value(); n != 1 {
		t.Errorf("linalg_solver_failures_total = %d, want 1", n)
	}
	if n := reg.Counter("linalg_cg_solves_total").Value(); n != 2 {
		t.Errorf("linalg_cg_solves_total after failure = %d, want 2", n)
	}
}
