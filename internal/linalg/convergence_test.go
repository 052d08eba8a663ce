package linalg

import (
	"strings"
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

func TestConvergenceLogRing(t *testing.T) {
	l := NewConvergenceLog(3)
	for i := 1; i <= 5; i++ {
		l.Record(i, 1.0/float64(i))
	}
	if l.Total() != 5 {
		t.Errorf("Total = %d, want 5", l.Total())
	}
	pts := l.Points()
	if len(pts) != 3 {
		t.Fatalf("retained %d points, want 3", len(pts))
	}
	// Oldest two samples overwritten; chronological order preserved.
	for i, want := range []int{3, 4, 5} {
		if pts[i].Iteration != want {
			t.Errorf("pts[%d].Iteration = %d, want %d", i, pts[i].Iteration, want)
		}
	}
	s := l.String()
	if !strings.Contains(s, "# 2 earlier samples overwritten") {
		t.Errorf("String missing overwrite note:\n%s", s)
	}
	if !strings.Contains(s, "5") {
		t.Errorf("String missing last iteration:\n%s", s)
	}
}

func TestConvergenceLogCapacityFloor(t *testing.T) {
	l := NewConvergenceLog(0)
	l.Record(1, 0.5)
	l.Record(2, 0.25)
	if got := l.Points(); len(got) != 1 || got[0].Iteration != 2 {
		t.Errorf("capacity-0 log retained %v, want just iteration 2", got)
	}
}

// TestCGOnIterationLog wires a ConvergenceLog into a real CG solve and
// checks the recorded history: one sample per iteration, monotone
// iteration numbers, final residual at the solver's converged value.
func TestCGOnIterationLog(t *testing.T) {
	a, b := spdSystem(50)
	log := NewConvergenceLog(256)
	_, stats, err := CGOpt(a, b, nil, &IterOptions{Tol: 1e-10, MaxIter: 500, OnIteration: log.Record})
	if err != nil {
		t.Fatal(err)
	}
	if log.Total() != stats.Iterations {
		t.Errorf("recorded %d samples for %d iterations", log.Total(), stats.Iterations)
	}
	pts := log.Points()
	last := pts[len(pts)-1]
	if last.Residual != stats.Residual {
		t.Errorf("last recorded residual %g != stats residual %g", last.Residual, stats.Residual)
	}
}

// TestBiCGSTABOnIteration checks the other solver's callback path.
func TestBiCGSTABOnIteration(t *testing.T) {
	a, b := spdSystem(50)
	count := 0
	_, stats, err := BiCGSTABOpt(a, b, nil, &IterOptions{Tol: 1e-10, MaxIter: 500,
		OnIteration: func(int, float64) { count++ }})
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 || count < stats.Iterations {
		t.Errorf("callback fired %d times for %d iterations", count, stats.Iterations)
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
