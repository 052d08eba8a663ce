package robust_test

// These tests drive linalg.CGOpt through the run controls: the context
// a run carries must stop the solver, and an input the solver rejects
// must neither spend the run's budget nor abort a keep-going campaign.
// Their names are those of the robust.Chain and robust.Faulty* tests
// that covered the same paths before those helpers were deleted.

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"aeropack/internal/linalg"
	"aeropack/internal/obs"
	"aeropack/internal/robust"
)

// spdSystem is the n×n tridiagonal matrix tridiag(−1, 4, −1), which is
// diagonally dominant, hence SPD, with a smooth right-hand side.
func spdSystem(n int) (*linalg.CSR, []float64) {
	a := &linalg.CSR{Rows: n, Cols: n, RowPtr: make([]int, 1, n+1)}
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := max(i-1, 0); j <= min(i+1, n-1); j++ {
			v := -1.0
			if j == i {
				v = 4
			}
			a.ColIdx, a.Val = append(a.ColIdx, j), append(a.Val, v)
		}
		a.RowPtr = append(a.RowPtr, len(a.Val))
		b[i] = 1 + float64(i%7)
	}
	return a, b
}

// TestChainStopHook: canceling a run's context ends its CG solve at the
// next poll with an error wrapping linalg.ErrStopped.
func TestChainStopHook(t *testing.T) {
	a, b := spdSystem(500)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, stats, err := linalg.CGOpt(a, b, nil, &linalg.IterOptions{
		Tol: 1e-14, MaxIter: 1 << 20, Stop: robust.Stop(ctx),
		OnIteration: func(it int, _ float64) {
			if it == 1 {
				cancel()
			}
		},
	})
	if !errors.Is(err, linalg.ErrStopped) {
		t.Fatalf("err = %v, want wrapped linalg.ErrStopped", err)
	}
	if stats.Iterations != 2 || stats.Converged {
		t.Errorf("stopped after %d iterations (converged %v), want 2", stats.Iterations, stats.Converged)
	}
}

// TestFaultyStopForcesBailout: a poll budget of 2 ends CG after 3
// iterations, and a second solve on the same context finds the budget
// spent and stops after its first.
func TestFaultyStopForcesBailout(t *testing.T) {
	a, b := spdSystem(200)
	ctx := robust.WithPollBudget(context.Background(), 2)
	for k, want := range []int{3, 1} {
		_, stats, err := linalg.CGOpt(a, b, nil, &linalg.IterOptions{
			Tol: 1e-12, MaxIter: 1000, Stop: robust.Stop(ctx),
		})
		if !errors.Is(err, linalg.ErrStopped) {
			t.Fatalf("solve %d: err = %v, want wrapped linalg.ErrStopped", k, err)
		}
		if stats.Iterations != want {
			t.Errorf("solve %d: stopped after %d iterations, want %d", k, stats.Iterations, want)
		}
	}
}

// TestChainRejectsNonFinite: a NaN or Inf in b or x0 is rejected before
// the solver polls the run's budget even once.
func TestChainRejectsNonFinite(t *testing.T) {
	a, b := spdSystem(3)
	stop := robust.Stop(robust.WithPollBudget(context.Background(), 1))
	polls := 0
	counted := func() bool { polls++; return stop() }
	for _, c := range []struct {
		name  string
		b, x0 []float64
		want  string
	}{
		{"NaN b", []float64{b[0], math.NaN(), b[2]}, nil, "linalg: CG input entry 1 is NaN"},
		{"Inf x0", b, []float64{0, 0, math.Inf(-1)}, "linalg: CG input entry 2 is -Inf"},
	} {
		x, _, err := linalg.CGOpt(a, c.b, c.x0, &linalg.IterOptions{Tol: 1e-10, MaxIter: 100, Stop: counted})
		if err == nil || err.Error() != c.want || x != nil {
			t.Errorf("%s: x %v, err %v; want no solution and %q", c.name, x, err, c.want)
		}
	}
	if polls != 0 {
		t.Errorf("the budget was polled %d times, want 0: no iteration may run on a non-finite input", polls)
	}
}

// TestFaultyRHSRejectedByCheckFinite: in a keep-going campaign, a point
// whose right-hand side carries a NaN or Inf becomes a PointError that
// wraps CG's input check, and every other point keeps its solution
// bitwise.
func TestFaultyRHSRejectedByCheckFinite(t *testing.T) {
	prev := obs.SetDefault(obs.NewRegistry())
	t.Cleanup(func() { obs.SetDefault(prev) })
	a, b := spdSystem(50)
	rhs := make([][]float64, 5)
	for i := range rhs {
		rhs[i] = make([]float64, len(b))
		for j := range b {
			rhs[i][j] = float64(i+1) * b[j]
		}
	}
	rhs[1][17] = math.NaN()
	rhs[3][4], rhs[3][40] = math.Inf(1), math.NaN()
	solve := func(_ int, v []float64) ([]float64, error) {
		x, _, err := linalg.CG(a, v, nil, nil, 1e-10, 100)
		return x, err
	}
	out, errs, err := robust.Map(rhs, robust.Options{Workers: 2, KeepGoing: true}, nil, solve)
	if err != nil {
		t.Fatalf("keep-going campaign aborted: %v", err)
	}
	if len(errs) != 2 || errs[0].Index != 1 || errs[1].Index != 3 {
		t.Fatalf("errs = %v, want PointErrors at points 1 and 3", errs)
	}
	for k, wantEntry := range []string{"input entry 17 is NaN", "input entry 4 is +Inf"} {
		if !strings.Contains(errs[k].Error(), wantEntry) {
			t.Errorf("errs[%d] = %v, want the input check's %q", k, errs[k], wantEntry)
		}
	}
	for _, i := range []int{0, 2, 4} {
		want, err := solve(i, rhs[i])
		if err != nil {
			t.Fatalf("point %d alone: %v", i, err)
		}
		for j := range want {
			if math.Float64bits(out[i][j]) != math.Float64bits(want[j]) {
				t.Fatalf("point %d entry %d = %v in the campaign, %v alone", i, j, out[i][j], want[j])
			}
		}
	}
}
