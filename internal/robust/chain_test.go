package robust

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"aeropack/internal/linalg"
	"aeropack/internal/obs"
)

// tridiagSystem builds the n×n symmetric tridiagonal matrix with
// diagonal d and off-diagonals −1, with a smooth right-hand side.
func tridiagSystem(n int, d float64) (*linalg.CSR, []float64) {
	a := &linalg.CSR{Rows: n, Cols: n, RowPtr: make([]int, 1, n+1)}
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := max(i-1, 0); j <= min(i+1, n-1); j++ {
			v := -1.0
			if j == i {
				v = d
			}
			a.ColIdx, a.Val = append(a.ColIdx, j), append(a.Val, v)
		}
		a.RowPtr = append(a.RowPtr, len(a.Val))
		b[i] = 1 + float64(i%7)
	}
	return a, b
}

// spdSystem is diagonally dominant, hence SPD.
func spdSystem(n int) (*linalg.CSR, []float64) { return tridiagSystem(n, 4) }

// illConditionedSystem is a near-singular 1D Laplacian (diagonal
// 2.0001): CG needs ≈n iterations for tight tolerances, so iteration
// caps can separate a relaxed target from the full one deterministically.
func illConditionedSystem(n int) (*linalg.CSR, []float64) { return tridiagSystem(n, 2.0001) }

func residual(a *linalg.CSR, x, b []float64) float64 {
	ax := a.MulVec(x, nil)
	num, den := 0.0, 0.0
	for i := range b {
		d := b[i] - ax[i]
		num += d * d
		den += b[i] * b[i]
	}
	return math.Sqrt(num / den)
}

// defaultChain returns a chain over a private copy of the standard
// ladder, which tests may modify.
func defaultChain(tol float64, maxIter int) *Chain {
	return &Chain{Tol: tol, MaxIter: maxIter, Attempts: append([]Attempt(nil), ladder...)}
}

// withRegistry installs a fresh metrics registry for the test and
// restores the previous one afterwards.
func withRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	prev := obs.SetDefault(reg)
	t.Cleanup(func() { obs.SetDefault(prev) })
	return reg
}

func TestChainFirstRungBitwiseIdentical(t *testing.T) {
	a, b := spdSystem(200)
	const tol, maxIter = 1e-10, 1000
	want, wantStats, err := linalg.CG(a, b, nil, nil, tol, maxIter)
	if err != nil {
		t.Fatal(err)
	}
	got, out, err := defaultChain(tol, maxIter).Solve(context.Background(), a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.AttemptUsed != 0 || out.Fallbacks != 0 || out.Relaxed {
		t.Fatalf("outcome = %+v, want first-rung success", out)
	}
	if out.Stats != wantStats {
		t.Errorf("stats = %+v, want %+v", out.Stats, wantStats)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("x[%d] = %v differs from plain CG's %v", i, got[i], want[i])
		}
	}
}

func TestChainFallsBack(t *testing.T) {
	reg := withRegistry(t)
	a, b := spdSystem(300)
	c := defaultChain(1e-10, 2000)
	// Starve the first rung so the ladder must advance.
	c.Attempts[0].MaxIter = 2
	x, out, err := c.Solve(context.Background(), a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.AttemptUsed != 1 || out.Fallbacks != 1 || out.AttemptName != "bicgstab-jacobi" {
		t.Fatalf("outcome = %+v, want second rung", out)
	}
	if r := residual(a, x, b); r > 1e-9 {
		t.Errorf("fallback residual %g too large", r)
	}
	if got := reg.Counter("solver_fallbacks").Value(); got != 1 {
		t.Errorf("solver_fallbacks = %d, want 1", got)
	}
}

func TestChainFallbackSpansRecorded(t *testing.T) {
	tr := obs.NewTrace()
	prev := obs.SetTracer(tr)
	defer obs.SetTracer(prev)
	a, b := spdSystem(300)
	ctx, root := obs.StartContext(context.Background(), "test.root")
	c := defaultChain(1e-10, 2000)
	c.Attempts[0].MaxIter = 2
	if _, _, err := c.Solve(ctx, a, b, nil); err != nil {
		t.Fatal(err)
	}
	root.End()
	tree := tr.TreeString()
	if !strings.Contains(tree, "robust.fallback") {
		t.Errorf("span tree missing robust.fallback:\n%s", tree)
	}
}

func TestChainHappyPathAddsNoSpans(t *testing.T) {
	tr := obs.NewTrace()
	prev := obs.SetTracer(tr)
	defer obs.SetTracer(prev)
	a, b := spdSystem(100)
	ctx, root := obs.StartContext(context.Background(), "test.root")
	c := defaultChain(1e-10, 1000)
	if _, _, err := c.Solve(ctx, a, b, nil); err != nil {
		t.Fatal(err)
	}
	root.End()
	if tree := tr.TreeString(); strings.Contains(tree, "robust.fallback") {
		t.Errorf("first-rung success must not record fallback spans:\n%s", tree)
	}
}

func TestChainRelaxedThenRefined(t *testing.T) {
	a, b := spdSystem(200)
	c := &Chain{Tol: 1e-10, MaxIter: 2000, Attempts: []Attempt{
		{Name: "relaxed", Method: "cg", Prec: "jacobi", TolScale: 1e4, Refine: true},
	}}
	x, out, err := c.Solve(context.Background(), a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Relaxed {
		t.Fatalf("refinement had iterations to spare, outcome = %+v", out)
	}
	if r := residual(a, x, b); r > 1e-9 {
		t.Errorf("refined residual %g, want full tolerance", r)
	}
}

func TestChainRelaxedKeptWhenRefineFails(t *testing.T) {
	reg := withRegistry(t)
	a, b := illConditionedSystem(400)
	// 160 iterations reach the relaxed target (10) with room to spare
	// but stay orders of magnitude above the full 1e-12, so refinement
	// must fail and the relaxed iterate stands.
	c := &Chain{Tol: 1e-12, MaxIter: 160, Attempts: []Attempt{
		{Name: "relaxed", Method: "cg", Prec: "jacobi", TolScale: 1e13, Refine: true},
	}}
	x, out, err := c.Solve(context.Background(), a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Relaxed {
		t.Fatalf("outcome = %+v, want Relaxed", out)
	}
	if x == nil {
		t.Fatal("relaxed solution dropped")
	}
	if got := reg.Counter("robust_relaxed_total").Value(); got != 1 {
		t.Errorf("robust_relaxed_total = %d, want 1", got)
	}
}

// The chain-level tests below that expect a failed solve use systems
// above the dense last resort's 600 rows, so no LU rescue masks the
// ladder's own outcome.

func TestChainWallClockBudget(t *testing.T) {
	a, b := spdSystem(700)
	c := &Chain{Tol: 1e-14, MaxIter: 1 << 20, Attempts: []Attempt{
		{Name: "starved", Method: "cg", Budget: time.Nanosecond},
	}}
	_, _, err := c.Solve(context.Background(), a, b, nil)
	if !errors.Is(err, linalg.ErrStopped) {
		t.Fatalf("err = %v, want wrapped linalg.ErrStopped", err)
	}
}

func TestChainExhausted(t *testing.T) {
	reg := withRegistry(t)
	a, b := spdSystem(700)
	c := &Chain{Tol: 1e-14, MaxIter: 2, Attempts: []Attempt{
		{Name: "a", Method: "cg"},
		{Name: "b", Method: "bicgstab", Prec: "jacobi"},
	}}
	_, out, err := c.Solve(context.Background(), a, b, nil)
	if err == nil {
		t.Fatal("expected exhaustion")
	}
	if !strings.Contains(err.Error(), "all 2 solver attempts failed") {
		t.Errorf("error %q missing exhaustion summary", err)
	}
	if out.Fallbacks != 1 {
		t.Errorf("Fallbacks = %d, want 1", out.Fallbacks)
	}
	if got := reg.Counter("robust_chain_exhausted_total").Value(); got != 1 {
		t.Errorf("robust_chain_exhausted_total = %d, want 1", got)
	}
}

func TestChainStopHook(t *testing.T) {
	a, b := spdSystem(500)
	c := &Chain{Tol: 1e-14, MaxIter: 1 << 20,
		Attempts: []Attempt{{Name: "bailed", Method: "cg"}},
	}
	_, _, err := c.Solve(WithPollBudget(context.Background(), 3), a, b, nil)
	if !errors.Is(err, linalg.ErrStopped) {
		t.Fatalf("err = %v, want wrapped linalg.ErrStopped", err)
	}
}

// TestChainCallerStopEndsSolve: once the caller's budget fires, the chain
// returns the stopped rung's error without trying later rungs or
// counting fallbacks, while a rung's own wall-clock budget still falls
// through to the next rung.
func TestChainCallerStopEndsSolve(t *testing.T) {
	reg := withRegistry(t)
	a, b := spdSystem(500)
	c := &Chain{Tol: 1e-14, MaxIter: 1 << 20, Attempts: []Attempt{
		{Name: "first", Method: "cg"},
		{Name: "second", Method: "bicgstab", Prec: "jacobi"},
	}}
	_, out, err := c.Solve(WithPollBudget(context.Background(), 3), a, b, nil)
	if !errors.Is(err, linalg.ErrStopped) {
		t.Fatalf("err = %v, want wrapped linalg.ErrStopped", err)
	}
	if out.AttemptName != "first" || out.Fallbacks != 0 {
		t.Errorf("outcome = %+v, want the first rung and no fallbacks", out)
	}
	for _, name := range []string{"solver_fallbacks", "robust_chain_exhausted_total"} {
		if got := reg.Counter(name).Value(); got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}

	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	starved := &Chain{Tol: 1e-8, MaxIter: 1 << 20, Attempts: []Attempt{
		{Name: "starved", Method: "cg", Budget: time.Nanosecond},
		{Name: "second", Method: "cg", Prec: "jacobi"},
	}}
	if _, out, err := starved.Solve(live, a, b, nil); err != nil || out.AttemptUsed != 1 {
		t.Errorf("rung budget: outcome %+v, err %v; want the second rung to solve", out, err)
	}
}

// TestChainNoAttempts: a chain without Attempts runs the standard
// ladder, so its first rung is plain CG, bit for bit.
func TestChainNoAttempts(t *testing.T) {
	a, b := spdSystem(10)
	want, _, err := linalg.CG(a, b, nil, nil, 1e-10, 100)
	if err != nil {
		t.Fatal(err)
	}
	got, out, err := (&Chain{Tol: 1e-10, MaxIter: 100}).Solve(context.Background(), a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.AttemptName != ladder[0].Name || out.Fallbacks != 0 {
		t.Errorf("outcome = %+v, want a first-rung %s success", out, ladder[0].Name)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("x[%d] = %v differs from plain CG's %v", i, got[i], want[i])
		}
	}
}

func TestChainUnknownMethod(t *testing.T) {
	a, b := spdSystem(700)
	for _, c := range []struct {
		att  Attempt
		want string
	}{
		{Attempt{Name: "x", Method: "gmres"}, `unknown solver method "gmres"`},
		{Attempt{Name: "y", Method: "cg", Prec: "ilu"}, `unknown preconditioner "ilu"`},
	} {
		chain := &Chain{Tol: 1e-8, MaxIter: 100, Attempts: []Attempt{c.att}}
		if _, _, err := chain.Solve(context.Background(), a, b, nil); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %s", c.att.Name, err, c.want)
		}
	}
}

// TestChainStandardLadder pins the one ladder: CG on the caller's
// preconditioner, BiCGSTAB with Jacobi, then the relaxed-then-refined
// Jacobi CG, every rung under the 10 s guard.
func TestChainStandardLadder(t *testing.T) {
	want := []struct{ name, method, prec string }{
		{"cg", "cg", ""},
		{"bicgstab-jacobi", "bicgstab", "jacobi"},
		{"cg-jacobi-relaxed", "cg", "jacobi"},
	}
	if len(ladder) != len(want) {
		t.Fatalf("ladder has %d rungs, want %d", len(ladder), len(want))
	}
	for i, w := range want {
		if r := ladder[i]; r.Name != w.name || r.Method != w.method || r.Prec != w.prec || r.Budget != rungBudget {
			t.Errorf("rung %d = %+v, want %s (%s, prec %q) under the %v guard", i, r, w.name, w.method, w.prec, rungBudget)
		}
	}
	if last := ladder[len(ladder)-1]; last.TolScale != 1e3 || !last.Refine {
		t.Errorf("last rung %+v, want the relaxed-then-refined retry", last)
	}
}

// TestChainFDMFirstRung checks the prebuilt first-rung seam: rung 0
// solves with Chain.Prec (here the exact inverse, so one iteration), and
// a later rung builds its own preconditioner instead.
func TestChainFDMFirstRung(t *testing.T) {
	const n = 150
	a, b := spdSystem(n)
	x := linalg.Axis{Diag: make([]float64, n), Off: make([]float64, n-1), Mass: make([]float64, n)}
	for i := range x.Diag {
		x.Diag[i], x.Mass[i] = 4, 1
	}
	for i := range x.Off {
		x.Off[i] = -1
	}
	unit := linalg.Axis{Diag: []float64{0}, Mass: []float64{1}}
	fdm, err := linalg.NewFDMPrec([3]linalg.Axis{x, unit, unit}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := defaultChain(1e-10, 2000)
	c.Prec = fdm
	sol, out, err := c.Solve(context.Background(), a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.AttemptUsed != 0 || out.Stats.Iterations != 1 {
		t.Errorf("outcome = %+v, want the first rung in one iteration", out)
	}
	if r := residual(a, sol, b); r > 1e-10 {
		t.Errorf("residual %g too large", r)
	}

	// A failing first rung (here an unknown method) falls through to
	// BiCGSTAB, which runs on Jacobi, not on the exact inverse.
	c.Attempts[0].Method = "gmres"
	sol, out, err = c.Solve(context.Background(), a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.AttemptUsed != 1 || out.Stats.Iterations <= 1 {
		t.Errorf("outcome = %+v, want the second rung on its own preconditioner", out)
	}
	if r := residual(a, sol, b); r > 1e-9 {
		t.Errorf("fallback residual %g too large", r)
	}
}

// TestChainDenseLastResort: when every rung fails, a system of at most
// 600 rows is solved by dense LU; a larger one, or one whose caller's
// budget fired, returns the rung error.
func TestChainDenseLastResort(t *testing.T) {
	reg := withRegistry(t)
	a, b := spdSystem(600)
	ref, err := linalg.SolveDense(a.ToDense(), b)
	if err != nil {
		t.Fatal(err)
	}
	x, out, err := defaultChain(1e-14, 2).Solve(context.Background(), a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.AttemptName != "dense" || out.AttemptUsed != 3 {
		t.Errorf("outcome = %+v, want the dense last resort after 3 rungs", out)
	}
	for i := range ref {
		if math.Float64bits(x[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("x[%d] = %v, dense LU %v", i, x[i], ref[i])
		}
	}
	if got := reg.Counter("robust_chain_exhausted_total").Value(); got != 1 {
		t.Errorf("robust_chain_exhausted_total = %d, want 1", got)
	}

	big, bb := spdSystem(601)
	if _, _, err := defaultChain(1e-14, 2).Solve(context.Background(), big, bb, nil); err == nil || !strings.Contains(err.Error(), "all 3 solver attempts failed") {
		t.Errorf("601 rows: err = %v, want ladder exhaustion", err)
	}

	stopped := defaultChain(1e-14, 1<<20)
	if _, out, err := stopped.Solve(WithPollBudget(context.Background(), 3), a, b, nil); !errors.Is(err, linalg.ErrStopped) || out.AttemptName != "cg" {
		t.Errorf("stopped: outcome %+v, err %v; want the first rung's ErrStopped and no dense solve", out, err)
	}
}

// TestChainRejectsNonFinite: a NaN or Inf in b or x0 fails the solve
// before the first rung.  Each CG rung rejects a NaN right-hand side,
// and without this check the dense last resort returned NaN as a
// converged answer.
func TestChainRejectsNonFinite(t *testing.T) {
	reg := withRegistry(t)
	a, b := spdSystem(3)
	for _, c := range []struct {
		name  string
		b, x0 []float64
		want  string
	}{
		{"NaN b", []float64{b[0], math.NaN(), b[2]}, nil, "robust: non-finite input NaN at row 1"},
		{"Inf x0", b, []float64{0, 0, math.Inf(-1)}, "robust: non-finite input -Inf at row 2"},
	} {
		x, _, err := defaultChain(1e-10, 100).Solve(context.Background(), a, c.b, c.x0)
		if err == nil || err.Error() != c.want || x != nil {
			t.Errorf("%s: x %v, err %v; want no solution and %q", c.name, x, err, c.want)
		}
	}
	if got := reg.Counter("robust_chain_exhausted_total").Value(); got != 0 {
		t.Errorf("robust_chain_exhausted_total = %d, want 0: no rung may run on a non-finite input", got)
	}
}
