package robust

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"time"

	"aeropack/internal/linalg"
	"aeropack/internal/obs"
)

// Attempt is one rung of a fallback Chain: a solver method, an optional
// preconditioner, and the budgets bounding the try.
type Attempt struct {
	Name   string // rung identity for spans and error text, e.g. "bicgstab-jacobi"
	Method string // "cg" or "bicgstab"
	// Prec is "" (the identity) or "jacobi".  Rung 0 uses Chain.Prec
	// instead when that is set.
	Prec string

	// TolScale relaxes the chain tolerance for this rung (solve at
	// Tol*TolScale); 0 or 1 means solve at the chain tolerance.
	TolScale float64
	// Refine, with TolScale > 1, re-solves at the full chain tolerance
	// starting from the relaxed iterate.  If refinement fails, the
	// relaxed iterate is still accepted (Outcome.Relaxed reports it).
	Refine bool

	MaxIter int           // iteration cap for this rung; 0 means the chain cap
	Budget  time.Duration // wall-clock budget for this rung; 0 means unbounded
}

// Chain is the level-2 FV model's one linear-solve entry: every
// thermal.Model system, steady or transient, is solved by one
// Chain.Solve call, which owns everything between the assembled system
// and its answer: the fallback ladder and the dense last resort.  The
// caller picks the first rung's preconditioner.  (Resistive networks
// solve directly, by a sparse LDLᵀ.)
//
// Attempts is the ladder; without one a Chain runs the standard ladder:
// CG preconditioned by Prec, then BiCGSTAB with Jacobi, then CG with
// Jacobi at 10³× the tolerance, refined back to it.  Attempt 0 is the
// caller's primary configuration: a solve that succeeds on it is
// bitwise-identical to a direct linalg call with the same
// preconditioner, emits no extra spans and touches no fallback counters.
// Later rungs run only after the previous rung returned an error, each
// recorded as a "robust.fallback" span under the span of Solve's
// context and counted on solver_fallbacks.
type Chain struct {
	Tol      float64
	MaxIter  int
	Attempts []Attempt

	// OnIteration is forwarded to every attempt's IterOptions.
	OnIteration func(it int, residual float64)
	// Prec, if non-nil, is the first rung's preconditioner, built by the
	// caller.  Later rungs build their own.
	Prec linalg.Preconditioner
}

// Outcome reports which rung of a Chain produced the returned solution.
type Outcome struct {
	AttemptUsed int    // index of the successful attempt; len(Attempts) for the dense last resort
	AttemptName string // its Name, or "dense"
	Fallbacks   int    // attempts retried after the primary failed
	Stats       linalg.IterStats
	// Relaxed is true when the solution only met the rung's relaxed
	// tolerance (refinement failed or was not requested).
	Relaxed bool
}

// rungBudget is every ladder rung's wall-clock guard.
const rungBudget = 10 * time.Second

// denseMaxRows bounds the dense last resort: an LU factorization of 600
// rows costs about 70 Mflop and 2.9 MB.
const denseMaxRows = 600

// ladder is the standard ladder a Chain without Attempts runs, each rung
// under the 10 s wall-clock guard.
var ladder = []Attempt{
	{Name: "cg", Method: "cg", Budget: rungBudget},
	{Name: "bicgstab-jacobi", Method: "bicgstab", Prec: "jacobi", Budget: rungBudget},
	{Name: "cg-jacobi-relaxed", Method: "cg", Prec: "jacobi", TolScale: 1e3, Refine: true, Budget: rungBudget},
}

// guard is the IterOptions.Stop every rung of one Solve polls: the
// caller's budget first (Stop of Solve's context), then the rung's own
// wall-clock deadline.  stopped records that the caller's budget fired.
type guard struct {
	stop     func() bool
	deadline time.Time
	stopped  bool
}

func (g *guard) poll() bool {
	if g.stop != nil && g.stop() {
		g.stopped = true
		return true
	}
	return !g.deadline.IsZero() && time.Now().After(g.deadline)
}

// arm starts a rung's wall-clock budget (0 means unbounded).
func (g *guard) arm(budget time.Duration) {
	g.deadline = time.Time{}
	if budget > 0 {
		g.deadline = time.Now().Add(budget)
	}
}

// Solve runs the system A·x = b, warm-started from x0 (nil for zero),
// and returns the solution with the Outcome describing which rung
// produced it.  ctx is the caller's budget, polled once per iteration
// of every rung (see Stop), and carries the span that parents the
// fallback spans.  The first attempt never opens a span, keeping
// happy-path span trees unchanged.
//
//   - Inputs.  A non-finite entry in b or x0 is an error before the
//     first rung: every rung would reject or propagate it, and the dense
//     last resort would return NaN as a converged answer.
//   - Ladder.  A failed rung hands over to the next.  A rung stopped by
//     the caller's budget ends the solve with that rung's error: the budget
//     that tripped it would trip every later rung.  A rung's own
//     wall-clock budget is not the caller's, so it falls through.
//   - Dense last resort.  When every rung fails, the
//     robust_chain_exhausted_total counter is bumped and a system of at
//     most 600 rows is solved by dense LU; otherwise, or if LU fails, the
//     error wraps the last rung's cause.
func (c *Chain) Solve(ctx context.Context, a *linalg.CSR, b, x0 []float64) ([]float64, Outcome, error) {
	attempts := c.Attempts
	if len(attempts) == 0 {
		attempts = ladder
	}
	for _, v := range [2][]float64{b, x0} {
		for i, vi := range v {
			if math.IsNaN(vi) || math.IsInf(vi, 0) {
				return nil, Outcome{}, fmt.Errorf("robust: non-finite input %g at row %d", vi, i)
			}
		}
	}
	g := &guard{stop: Stop(ctx)}
	stop := g.poll
	var lastErr error
	for i, att := range attempts {
		var sp *obs.Span
		if i > 0 {
			sp = fallbackSpan(ctx, i, att.Name, lastErr)
		}
		g.arm(att.Budget)
		x, stats, relaxed, err := c.runAttempt(i, att, a, b, x0, stop)
		endFallbackSpan(sp, stats, err)
		if err == nil {
			if relaxed {
				obs.Default().Counter("robust_relaxed_total").Add(1)
			}
			return x, Outcome{AttemptUsed: i, AttemptName: att.Name, Fallbacks: i, Stats: stats, Relaxed: relaxed}, nil
		}
		if g.stopped {
			return nil, Outcome{AttemptUsed: i, AttemptName: att.Name, Fallbacks: i, Stats: stats}, err
		}
		lastErr = err
	}
	n := len(attempts)
	obs.Default().Counter("robust_chain_exhausted_total").Add(1)
	if rec := obs.CurrentRecorder(); rec != nil {
		rec.Record("fallback", "chain_exhausted",
			obs.Attr{Key: "attempts", Value: strconv.Itoa(n)},
			obs.Attr{Key: "cause", Value: lastErr.Error()})
	}
	err := fmt.Errorf("robust: all %d solver attempts failed, last (%s): %w", n, attempts[n-1].Name, lastErr)
	if a.Rows > denseMaxRows {
		return nil, Outcome{Fallbacks: n - 1}, err
	}
	sp := fallbackSpan(ctx, n, "dense", lastErr)
	x, derr := linalg.SolveDense(a.ToDense(), b)
	out := Outcome{AttemptUsed: n, AttemptName: "dense", Fallbacks: n, Stats: linalg.IterStats{Converged: derr == nil}}
	endFallbackSpan(sp, out.Stats, derr)
	if derr != nil {
		return nil, out, err
	}
	return x, out, nil
}

// fallbackSpan counts fallback rung i and opens its span under ctx's.
func fallbackSpan(ctx context.Context, i int, name string, cause error) *obs.Span {
	obs.Default().Counter("solver_fallbacks").Add(1)
	sp := obs.FromContext(ctx).Start("robust.fallback")
	sp.Attr("attempt", name)
	sp.AttrInt("rung", i)
	if rec := obs.CurrentRecorder(); rec != nil {
		rec.Record("fallback", name,
			obs.Attr{Key: "rung", Value: strconv.Itoa(i)},
			obs.Attr{Key: "cause", Value: cause.Error()})
	}
	return sp
}

func endFallbackSpan(sp *obs.Span, stats linalg.IterStats, err error) {
	if sp == nil {
		return
	}
	sp.AttrInt("iterations", stats.Iterations)
	sp.AttrF("residual", stats.Residual)
	if err != nil {
		sp.Attr("outcome", "failed")
	} else {
		sp.Attr("outcome", "ok")
	}
	sp.End()
}

// runAttempt executes rung i, handling relaxed-then-refined tolerance.
func (c *Chain) runAttempt(i int, att Attempt, a *linalg.CSR, b, x0 []float64, stop func() bool) ([]float64, linalg.IterStats, bool, error) {
	tol := c.Tol
	if att.TolScale > 1 {
		tol *= att.TolScale
	}
	x, stats, err := c.solveOnce(i, att, a, b, x0, tol, stop)
	if err != nil || att.TolScale <= 1 {
		return x, stats, false, err
	}
	if !att.Refine {
		return x, stats, true, nil
	}
	// Refine from the relaxed iterate back to the full tolerance; if
	// that fails, the relaxed solution still stands.
	xr, rstats, rerr := c.solveOnce(i, att, a, b, x, c.Tol, stop)
	if rerr != nil {
		return x, stats, true, nil
	}
	rstats.Iterations += stats.Iterations
	return xr, rstats, false, nil
}

func (c *Chain) solveOnce(i int, att Attempt, a *linalg.CSR, b, x0 []float64, tol float64, stop func() bool) ([]float64, linalg.IterStats, error) {
	maxIter := att.MaxIter
	if maxIter <= 0 {
		maxIter = c.MaxIter
	}
	opts := &linalg.IterOptions{
		Tol:         tol,
		MaxIter:     maxIter,
		OnIteration: c.OnIteration,
		Stop:        stop,
	}
	switch {
	case i == 0 && c.Prec != nil:
		opts.Prec = c.Prec
	case att.Prec == "jacobi":
		opts.Prec = linalg.NewJacobiPrec(a)
	case att.Prec != "":
		return nil, linalg.IterStats{}, fmt.Errorf("robust: unknown preconditioner %q", att.Prec)
	}
	switch att.Method {
	case "cg":
		return linalg.CGOpt(a, b, x0, opts)
	case "bicgstab":
		return linalg.BiCGSTABOpt(a, b, x0, opts)
	default:
		return nil, linalg.IterStats{}, fmt.Errorf("robust: unknown solver method %q", att.Method)
	}
}
