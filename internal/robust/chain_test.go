package robust

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"aeropack/internal/linalg"
	"aeropack/internal/obs"
)

// spdSystem builds an n×n diagonally dominant symmetric (hence SPD)
// tridiagonal system with a smooth right-hand side.
func spdSystem(n int) (*linalg.CSR, []float64) {
	coo := linalg.NewCOO(n, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 4)
		if i+1 < n {
			coo.Add(i, i+1, -1)
			coo.Add(i+1, i, -1)
		}
		b[i] = 1 + float64(i%7)
	}
	return coo.ToCSR(), b
}

// illConditionedSystem builds a near-singular 1D Laplacian (diagonal
// 2.0001): CG needs ≈n iterations for tight tolerances, so iteration
// caps can separate a relaxed target from the full one deterministically.
func illConditionedSystem(n int) (*linalg.CSR, []float64) {
	coo := linalg.NewCOO(n, n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 2.0001)
		if i+1 < n {
			coo.Add(i, i+1, -1)
			coo.Add(i+1, i, -1)
		}
		b[i] = 1 + float64(i%7)
	}
	return coo.ToCSR(), b
}

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
	got, out, err := DefaultChain(tol, maxIter).Solve(a, b, nil)
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
	c := DefaultChain(1e-10, 2000)
	// Starve the first rung so the ladder must advance.
	c.Attempts[0].MaxIter = 2
	x, out, err := c.Solve(a, b, nil)
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
	root := obs.Start(nil, "test.root")
	c := DefaultChain(1e-10, 2000)
	c.Span = root
	c.Attempts[0].MaxIter = 2
	if _, _, err := c.Solve(a, b, nil); err != nil {
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
	root := obs.Start(nil, "test.root")
	c := DefaultChain(1e-10, 1000)
	c.Span = root
	if _, _, err := c.Solve(a, b, nil); err != nil {
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
	x, out, err := c.Solve(a, b, nil)
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
	x, out, err := c.Solve(a, b, nil)
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

func TestChainWallClockBudget(t *testing.T) {
	a, b := spdSystem(500)
	c := &Chain{Tol: 1e-14, MaxIter: 1 << 20, Attempts: []Attempt{
		{Name: "starved", Method: "cg", Budget: time.Nanosecond},
	}}
	_, _, err := c.Solve(a, b, nil)
	if !errors.Is(err, linalg.ErrStopped) {
		t.Fatalf("err = %v, want wrapped linalg.ErrStopped", err)
	}
}

func TestChainExhausted(t *testing.T) {
	reg := withRegistry(t)
	a, b := spdSystem(300)
	c := &Chain{Tol: 1e-14, MaxIter: 2, Attempts: []Attempt{
		{Name: "a", Method: "cg"},
		{Name: "b", Method: "bicgstab", Prec: "jacobi"},
	}}
	_, out, err := c.Solve(a, b, nil)
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
		Stop:     FaultyStop(3),
	}
	_, _, err := c.Solve(a, b, nil)
	if !errors.Is(err, linalg.ErrStopped) {
		t.Fatalf("err = %v, want wrapped linalg.ErrStopped", err)
	}
}

// TestChainCallerStopEndsSolve: once the caller's Stop fires, the chain
// returns the stopped rung's error without trying later rungs or
// counting fallbacks, while a rung's own wall-clock budget still falls
// through to the next rung.
func TestChainCallerStopEndsSolve(t *testing.T) {
	reg := withRegistry(t)
	a, b := spdSystem(500)
	c := &Chain{Tol: 1e-14, MaxIter: 1 << 20, Stop: FaultyStop(3), Attempts: []Attempt{
		{Name: "first", Method: "cg"},
		{Name: "second", Method: "bicgstab", Prec: "jacobi"},
	}}
	_, out, err := c.Solve(a, b, nil)
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

	starved := &Chain{Tol: 1e-8, MaxIter: 1 << 20, Stop: func() bool { return false }, Attempts: []Attempt{
		{Name: "starved", Method: "cg", Budget: time.Nanosecond},
		{Name: "second", Method: "cg", Prec: "jacobi"},
	}}
	if _, out, err := starved.Solve(a, b, nil); err != nil || out.AttemptUsed != 1 {
		t.Errorf("rung budget: outcome %+v, err %v; want the second rung to solve", out, err)
	}
}

func TestChainNoAttempts(t *testing.T) {
	a, b := spdSystem(10)
	if _, _, err := (&Chain{}).Solve(a, b, nil); err == nil {
		t.Fatal("empty chain must error")
	}
}

func TestChainUnknownMethod(t *testing.T) {
	a, b := spdSystem(10)
	c := &Chain{Tol: 1e-8, MaxIter: 100, Attempts: []Attempt{{Name: "x", Method: "gmres"}}}
	_, _, err := c.Solve(a, b, nil)
	if err == nil || !strings.Contains(err.Error(), `unknown solver method "gmres"`) {
		t.Fatalf("err = %v, want unknown-method failure", err)
	}
}

func TestChainForVocabulary(t *testing.T) {
	cases := []struct {
		solver    string
		wantFirst string
		wantLen   int
	}{
		// "cg" matches the default ladder's first rung, which is skipped
		// as a duplicate.
		{"cg", "cg", 3},
		{"cg-jacobi", "cg-jacobi", 4},
		{"cg-ssor", "cg-ssor", 4},
		{"cg-ic0", "cg-ic0", 4},
		{"cg-mic0", "cg-mic0", 4},
		{"bicgstab", "bicgstab", 4},
		{"gmres", "cg", 3}, // unknown name → default ladder
	}
	for _, tc := range cases {
		c := ChainFor(tc.solver, 1.2, 1e-9, 100)
		if c.Attempts[0].Name != tc.wantFirst {
			t.Errorf("ChainFor(%q) first rung %q, want %q", tc.solver, c.Attempts[0].Name, tc.wantFirst)
		}
		if len(c.Attempts) != tc.wantLen {
			t.Errorf("ChainFor(%q) has %d rungs, want %d", tc.solver, len(c.Attempts), tc.wantLen)
		}
		last := c.Attempts[len(c.Attempts)-1]
		if last.TolScale <= 1 || !last.Refine {
			t.Errorf("ChainFor(%q) last rung %+v, want the relaxed-then-refined retry", tc.solver, last)
		}
	}
}

func TestChainForIC0Solves(t *testing.T) {
	a, b := spdSystem(150)
	x, out, err := ChainFor("cg-ic0", 0, 1e-10, 2000).Solve(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.AttemptUsed != 0 || out.AttemptName != "cg-ic0" {
		t.Errorf("outcome = %+v, want first-rung cg-ic0 success", out)
	}
	if r := residual(a, x, b); r > 1e-9 {
		t.Errorf("residual %g too large", r)
	}
}

// indefiniteSystem is a matrix IC(0) cannot factor even with the shift
// ladder (negative diagonal), paired with b = 0 so CG converges at once
// under any preconditioner — isolating the degrade path itself.
func indefiniteSystem() (*linalg.CSR, []float64) {
	coo := linalg.NewCOO(3, 3)
	coo.Add(0, 0, -2)
	coo.Add(1, 1, 1)
	coo.Add(2, 2, 1)
	return coo.ToCSR(), make([]float64, 3)
}

// MIC(0) breaks down and degrades exactly like IC(0), on the same
// counter.
func TestChainIC0DegradesToJacobi(t *testing.T) {
	reg := withRegistry(t)
	a, b := indefiniteSystem()
	var want int64
	for _, solver := range []string{"cg-ic0", "cg-mic0"} {
		// Without a Setup cache: buildPrec constructs the factor
		// directly, hits the breakdown, and falls back to Jacobi within
		// the first rung.
		_, out, err := ChainFor(solver, 0, 1e-10, 50).Solve(a, b, nil)
		if err != nil {
			t.Fatalf("%s: %v", solver, err)
		}
		if out.AttemptUsed != 0 {
			t.Errorf("%s: degrade must stay within the first rung, outcome = %+v", solver, out)
		}
		want++
		if got := reg.Counter("robust_ic0_degraded_total").Value(); got != want {
			t.Errorf("%s: robust_ic0_degraded_total = %d, want %d", solver, got, want)
		}
		// With a Setup cache: the PrecFor error path degrades the same way.
		c := ChainFor(solver, 0, 1e-10, 50)
		c.Setup = linalg.NewSolverSetup()
		if _, out, err = c.Solve(a, b, nil); err != nil {
			t.Fatalf("%s: %v", solver, err)
		}
		if out.AttemptUsed != 0 {
			t.Errorf("%s: setup-path degrade must stay within the first rung, outcome = %+v", solver, out)
		}
		want++
		if got := reg.Counter("robust_ic0_degraded_total").Value(); got != want {
			t.Errorf("%s: robust_ic0_degraded_total = %d, want %d", solver, got, want)
		}
	}
}

func TestChainSetupReusesPreconditioner(t *testing.T) {
	reg := withRegistry(t)
	a, b := spdSystem(150)
	c := ChainFor("cg-ic0", 0, 1e-10, 2000)
	c.Setup = linalg.NewSolverSetup()
	for trial := 0; trial < 3; trial++ {
		if _, _, err := c.Solve(a, b, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("linalg_setup_prec_reuse_total").Value(); got != 2 {
		t.Errorf("linalg_setup_prec_reuse_total = %d, want 2 (three solves, one build)", got)
	}
}

func TestChainForSSORSolves(t *testing.T) {
	a, b := spdSystem(150)
	x, out, err := ChainFor("cg-ssor", 1.2, 1e-10, 2000).Solve(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.AttemptUsed != 0 {
		t.Errorf("outcome = %+v, want first-rung success", out)
	}
	if r := residual(a, x, b); r > 1e-9 {
		t.Errorf("residual %g too large", r)
	}
}
