package robust

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"aeropack/internal/linalg"
	"aeropack/internal/obs"
)

// recordDegrade notes an IC(0)- or MIC(0)-to-Jacobi preconditioner
// degrade in the flight recorder, carrying the breakdown cause an
// operator needs.
func recordDegrade(rung, from string, cause error) {
	if rec := obs.CurrentRecorder(); rec != nil {
		rec.Record("degrade", rung,
			obs.Attr{Key: "from", Value: from},
			obs.Attr{Key: "to", Value: "jacobi"},
			obs.Attr{Key: "cause", Value: cause.Error()})
	}
}

// Attempt is one rung of a fallback Chain: a solver method, an optional
// preconditioner, and the budgets bounding the try.
type Attempt struct {
	Name   string  // rung identity for spans and error text, e.g. "bicgstab-jacobi"
	Method string  // "cg" or "bicgstab"
	Prec   string  // "", "jacobi", "ssor", "ic0" or "mic0"
	Omega  float64 // SSOR relaxation factor; 0 means 1.2

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

// Chain is an ordered ladder of solver attempts for one linear system.
// Attempt 0 must reproduce the caller's primary configuration exactly —
// a solve that succeeds on the first rung is bitwise-identical to one
// performed without the chain, emits no extra spans and touches no
// fallback counters.  Later rungs run only after the previous rung
// returned an error, each recorded as a "robust.fallback" span under
// Span and counted on solver_fallbacks.
type Chain struct {
	Tol      float64
	MaxIter  int
	Attempts []Attempt

	// Span, if non-nil, parents the fallback spans.  The first attempt
	// never opens a span, keeping happy-path span trees unchanged.
	Span *obs.Span
	// OnIteration is forwarded to every attempt's IterOptions.
	OnIteration func(it int, residual float64)
	// Stop, if non-nil, is polled once per iteration of every attempt
	// (composed with the attempt's wall-clock budget) — the request
	// budget seam, and the one FaultyStop uses to force early bailout.
	// Once it fires, Solve returns without trying the later rungs.
	Stop func() bool
	// Setup, if non-nil, caches preconditioner factors (and, for IC(0),
	// the symbolic pattern) across Solve calls on matrices with repeated
	// content — the reuse seam sweep loops and transient steppers thread
	// through.  Preconditioners obtained from a Setup are shared and
	// immutable; without one, each attempt builds its own.
	Setup *linalg.SolverSetup
}

// Outcome reports which rung of a Chain produced the returned solution.
type Outcome struct {
	AttemptUsed int    // index of the successful attempt
	AttemptName string // its Name
	Fallbacks   int    // attempts retried after the primary failed
	Stats       linalg.IterStats
	// Relaxed is true when the solution only met the rung's relaxed
	// tolerance (refinement failed or was not requested).
	Relaxed bool
}

// DefaultChain is the standard aeropack fallback ladder: plain CG, then
// Jacobi-preconditioned BiCGSTAB, then a Jacobi-preconditioned CG retry
// at 1000× relaxed tolerance that is refined back to the full tolerance
// when possible.  Every rung carries a 10 s wall-clock budget.
func DefaultChain(tol float64, maxIter int) *Chain {
	return &Chain{Tol: tol, MaxIter: maxIter, Attempts: defaultLadder()}
}

func defaultLadder() []Attempt {
	return []Attempt{
		{Name: "cg", Method: "cg", Budget: 10 * time.Second},
		{Name: "bicgstab-jacobi", Method: "bicgstab", Prec: "jacobi", Budget: 10 * time.Second},
		{Name: "cg-jacobi-relaxed", Method: "cg", Prec: "jacobi", TolScale: 1e3, Refine: true, Budget: 10 * time.Second},
	}
}

// ChainFor builds a chain whose first rung mirrors a configured solver
// name ("cg", "cg-jacobi", "cg-ssor", "cg-ic0", "cg-mic0" or "bicgstab"
// — the thermal SolveOptions.Solver vocabulary), followed by the rungs
// of the default ladder that differ from it.  omega is the SSOR
// relaxation factor for "cg-ssor"; unknown names fall back to the full
// default ladder.  An IC(0) or MIC(0) first rung that cannot be
// factorized (breakdown through the whole shift ladder) degrades to
// Jacobi within the rung rather than failing — see buildPrec.
func ChainFor(solver string, omega, tol float64, maxIter int) *Chain {
	var first Attempt
	switch solver {
	case "cg":
		first = Attempt{Name: "cg", Method: "cg"}
	case "cg-jacobi":
		first = Attempt{Name: "cg-jacobi", Method: "cg", Prec: "jacobi"}
	case "cg-ssor":
		first = Attempt{Name: "cg-ssor", Method: "cg", Prec: "ssor", Omega: omega}
	case "cg-ic0":
		first = Attempt{Name: "cg-ic0", Method: "cg", Prec: "ic0"}
	case "cg-mic0":
		first = Attempt{Name: "cg-mic0", Method: "cg", Prec: "mic0"}
	case "bicgstab":
		first = Attempt{Name: "bicgstab", Method: "bicgstab"}
	default:
		return DefaultChain(tol, maxIter)
	}
	first.Budget = 10 * time.Second
	attempts := []Attempt{first}
	for _, a := range defaultLadder() {
		if a.Method == first.Method && a.Prec == first.Prec && a.TolScale <= 1 {
			continue
		}
		attempts = append(attempts, a)
	}
	return &Chain{Tol: tol, MaxIter: maxIter, Attempts: attempts}
}

// Solve runs the system A·x = b down the chain and returns the first
// successful iterate with the Outcome describing which rung produced it.
// When every rung fails the error wraps the last rung's cause and the
// robust_chain_exhausted_total counter is bumped.  A rung stopped by the
// caller's Stop ends the solve with that rung's error: the budget that
// tripped it would trip every later rung.  A rung's own wall-clock
// budget is not the caller's, so it still falls through to the next.
func (c *Chain) Solve(a *linalg.CSR, b, x0 []float64) ([]float64, Outcome, error) {
	if len(c.Attempts) == 0 {
		return nil, Outcome{}, errors.New("robust: chain has no attempts")
	}
	stopped := false
	stop := c.Stop
	if stop != nil {
		stop = func() bool {
			stopped = c.Stop()
			return stopped
		}
	}
	var lastErr error
	for i, att := range c.Attempts {
		var sp *obs.Span
		if i > 0 {
			obs.Default().Counter("solver_fallbacks").Add(1)
			sp = c.Span.Start("robust.fallback")
			sp.Attr("attempt", att.Name)
			sp.AttrInt("rung", i)
			if rec := obs.CurrentRecorder(); rec != nil {
				rec.Record("fallback", att.Name,
					obs.Attr{Key: "rung", Value: strconv.Itoa(i)},
					obs.Attr{Key: "cause", Value: lastErr.Error()})
			}
		}
		x, stats, relaxed, err := c.runAttempt(att, a, b, x0, stop)
		if sp != nil {
			sp.AttrInt("iterations", stats.Iterations)
			sp.AttrF("residual", stats.Residual)
			if err != nil {
				sp.Attr("outcome", "failed")
			} else {
				sp.Attr("outcome", "ok")
			}
			sp.End()
		}
		if err == nil {
			if relaxed {
				obs.Default().Counter("robust_relaxed_total").Add(1)
			}
			return x, Outcome{AttemptUsed: i, AttemptName: att.Name, Fallbacks: i, Stats: stats, Relaxed: relaxed}, nil
		}
		if stopped {
			return nil, Outcome{AttemptUsed: i, AttemptName: att.Name, Fallbacks: i, Stats: stats}, err
		}
		lastErr = err
	}
	obs.Default().Counter("robust_chain_exhausted_total").Add(1)
	if rec := obs.CurrentRecorder(); rec != nil {
		rec.Record("fallback", "chain_exhausted",
			obs.Attr{Key: "attempts", Value: strconv.Itoa(len(c.Attempts))},
			obs.Attr{Key: "cause", Value: lastErr.Error()})
	}
	return nil, Outcome{Fallbacks: len(c.Attempts) - 1}, fmt.Errorf("robust: all %d solver attempts failed, last (%s): %w",
		len(c.Attempts), c.Attempts[len(c.Attempts)-1].Name, lastErr)
}

// runAttempt executes one rung, handling relaxed-then-refined tolerance.
// stop is the caller's Stop (nil for none).
func (c *Chain) runAttempt(att Attempt, a *linalg.CSR, b, x0 []float64, stop func() bool) ([]float64, linalg.IterStats, bool, error) {
	tol := c.Tol
	if att.TolScale > 1 {
		tol *= att.TolScale
	}
	x, stats, err := c.solveOnce(att, a, b, x0, tol, stop)
	if err != nil || att.TolScale <= 1 {
		return x, stats, false, err
	}
	if !att.Refine {
		return x, stats, true, nil
	}
	// Refine from the relaxed iterate back to the full tolerance; if
	// that fails, the relaxed solution still stands.
	xr, rstats, rerr := c.solveOnce(att, a, b, x, c.Tol, stop)
	if rerr != nil {
		return x, stats, true, nil
	}
	rstats.Iterations += stats.Iterations
	return xr, rstats, false, nil
}

func (c *Chain) solveOnce(att Attempt, a *linalg.CSR, b, x0 []float64, tol float64, stop func() bool) ([]float64, linalg.IterStats, error) {
	maxIter := att.MaxIter
	if maxIter <= 0 {
		maxIter = c.MaxIter
	}
	opts := &linalg.IterOptions{
		Tol:         tol,
		MaxIter:     maxIter,
		Prec:        c.buildPrec(att, a),
		OnIteration: c.OnIteration,
		Stop:        composeStop(stop, att.Budget),
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

// buildPrec constructs the rung's preconditioner, going through the
// chain's Setup cache when one is attached.  IC(0) and MIC(0)
// factorization can fail even on an SPD matrix (breakdown through the
// whole shift ladder); the rung then degrades to Jacobi — strictly
// weaker but never failing — instead of aborting the attempt, and
// robust_ic0_degraded_total counts the event for both.
func (c *Chain) buildPrec(att Attempt, a *linalg.CSR) linalg.Preconditioner {
	omega := att.Omega
	if omega == 0 {
		omega = 1.2
	}
	if c.Setup != nil {
		p, err := c.Setup.PrecFor(att.Prec, a, omega)
		if err == nil {
			return p
		}
		if att.Prec == "ic0" || att.Prec == "mic0" {
			obs.Default().Counter("robust_ic0_degraded_total").Add(1)
			recordDegrade(att.Name, att.Prec, err)
			if pj, jerr := c.Setup.PrecFor("jacobi", a, omega); jerr == nil {
				return pj
			}
		}
		return linalg.NewJacobiPrec(a)
	}
	switch att.Prec {
	case "jacobi":
		return linalg.NewJacobiPrec(a)
	case "ssor":
		return linalg.NewSSORPrec(a, omega)
	case "ic0", "mic0":
		newIC := linalg.NewICPrec
		if att.Prec == "mic0" {
			newIC = linalg.NewMICPrec
		}
		p, err := newIC(a)
		if err != nil {
			obs.Default().Counter("robust_ic0_degraded_total").Add(1)
			recordDegrade(att.Name, att.Prec, err)
			return linalg.NewJacobiPrec(a)
		}
		return p
	default:
		return nil
	}
}

// composeStop merges the chain-level stop hook with the attempt's
// wall-clock budget into a single IterOptions.Stop callback.
func composeStop(stop func() bool, budget time.Duration) func() bool {
	if budget <= 0 {
		return stop
	}
	deadline := time.Now().Add(budget)
	if stop == nil {
		return func() bool { return time.Now().After(deadline) }
	}
	return func() bool { return stop() || time.Now().After(deadline) }
}
