// Package robust is aeropack's stdlib-only resilience layer: the FV
// solver fallback chain, the run controls every study shares, and a
// deterministic fault-injection kit to prove both under go test -race.
//
// The paper's headline results (the Fig. 10 ΔT-versus-power sweeps, the
// NANOPACK TIM qualification) come out of campaigns with tens to
// hundreds of operating points; a single non-converged linear solve used
// to abort the entire run.  This package moves the stack to graceful
// degradation instead:
//
//   - Chain.Solve is the level-2 FV model's one linear-solve entry: it
//     retries a failed solve down a fallback ladder (the configured
//     solver → CG → BiCGSTAB → diagonally preconditioned
//     relaxed-then-refined retry), each attempt bounded by an iteration
//     cap and a wall-clock budget, and solves small systems densely as
//     the last resort, with every fallback recorded via internal/obs
//     spans and the solver_fallbacks counter.  (Resistive networks
//     factor directly and never reach the chain.)
//   - Options and Map are every study's run controls: Map runs a
//     campaign across the internal/parallel pool and, with KeepGoing,
//     converts each failed point into a typed *PointError positioned in
//     the result set, so the surviving points are exactly — bitwise —
//     what an all-success run would have produced.
//   - Stop turns a run's context.Context — its deadline, its
//     cancellation and the poll budget WithPollBudget stores in it —
//     into the one linalg.IterOptions.Stop predicate the solvers poll.
//   - The Faulty* constructors build deterministic, seed-driven faults
//     (perturbed matrices, NaN/Inf-poisoned right-hand sides, forced
//     solver bailout, stalled pool workers) so tests can exercise every
//     degraded path reproducibly.
//
// Metric names published here (see DESIGN.md "Robustness"):
//
//	solver_fallbacks              counter, fallback attempts after a failed primary solve
//	robust_chain_exhausted_total  counter, solves where every rung failed
//	robust_ic0_degraded_total     counter, IC(0) or MIC(0) → Jacobi preconditioner degrades
//	robust_relaxed_total          counter, solves accepted at relaxed tolerance only
//	robust_point_errors_total     counter, campaign points captured as PointError
package robust

import (
	"context"
	"fmt"
	"sync/atomic"

	"aeropack/internal/obs"
	"aeropack/internal/parallel"
)

// PointError is the typed per-point failure captured by the keep-going
// campaign runners: the index of the failed operating point in the
// campaign's input order, a human-readable label for reports, and the
// underlying cause (reachable through errors.Unwrap/Is/As).
type PointError struct {
	Index int    // position in the campaign's input order
	Label string // point identity for reports, e.g. "P=60.0 W" or "climatic"
	Err   error
}

// Error formats the failure with its point identity.
func (e *PointError) Error() string {
	if e.Label != "" {
		return fmt.Sprintf("point %d (%s): %v", e.Index, e.Label, e.Err)
	}
	return fmt.Sprintf("point %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *PointError) Unwrap() error { return e.Err }

// FirstError returns the lowest-index PointError, or nil when the
// campaign had no failures — the value keep-going commands surface when
// they need a single representative error.
func FirstError(errs []*PointError) *PointError {
	if len(errs) == 0 {
		return nil
	}
	first := errs[0]
	for _, e := range errs[1:] {
		if e.Index < first.Index {
			first = e
		}
	}
	return first
}

// Options are the run controls every study entry takes.
type Options struct {
	// Workers bounds the points evaluated concurrently (<= 0 means
	// GOMAXPROCS, 1 the inline serial path).  Results do not depend on
	// it.
	Workers int
	// KeepGoing captures each failed point as a *PointError and runs
	// the rest, instead of aborting the run on the first failure.
	KeepGoing bool
}

// Map evaluates fn over items across at most o.Workers goroutines and
// returns the results in input order.  Without KeepGoing it is
// parallel.Map: the lowest-index failure aborts the run and is the
// error.  With it, a failed item no longer aborts the batch: its error
// is captured as a *PointError and every other item still runs.  out[i]
// is fn(i, items[i]) when no PointError carries Index i, and the zero
// value otherwise, so successful points are bitwise-identical to an
// abort-on-error run's.  label, if non-nil, names each point for
// reports.  Worker panics (the linalg contract checks) still propagate.
// Captured failures are counted on the robust_point_errors_total
// counter.
func Map[T, R any](items []T, o Options, label func(i int, item T) string, fn func(i int, item T) (R, error)) ([]R, []*PointError, error) {
	if !o.KeepGoing {
		out, err := parallel.Map(items, o.Workers, fn)
		return out, nil, err
	}
	perPoint := make([]*PointError, len(items))
	out, _ := parallel.Map(items, o.Workers, func(i int, item T) (R, error) {
		r, err := fn(i, item)
		if err != nil {
			pe := &PointError{Index: i, Err: err}
			if label != nil {
				pe.Label = label(i, item)
			}
			perPoint[i] = pe // sole writer for index i
			var zero R
			return zero, nil
		}
		return r, nil
	})
	var errs []*PointError
	for _, pe := range perPoint {
		if pe != nil {
			errs = append(errs, pe)
		}
	}
	if len(errs) > 0 {
		obs.Default().Counter("robust_point_errors_total").Add(int64(len(errs)))
	}
	return out, errs, nil
}

// pollKey is the context key of a run's poll budget.
type pollKey struct{}

// pollBudget is one run's solver budget: every Stop predicate derived
// from the run's context counts its polls on the one counter, so all
// the run's workers share the budget.
type pollBudget struct {
	max   int64
	polls atomic.Int64
}

// WithPollBudget returns a context whose solvers may poll their Stop
// predicate n times in all; the poll after the n-th stops them.  A
// solver polls once per CG iteration, once per FV Picard pass after the
// first and once per network factorization.  n <= 0 means no budget:
// ctx comes back unchanged.
func WithPollBudget(ctx context.Context, n int64) context.Context {
	if n <= 0 {
		return ctx
	}
	return context.WithValue(ctx, pollKey{}, &pollBudget{max: n})
}

// Stop returns the linalg.IterOptions.Stop predicate for ctx: true once
// ctx's poll budget is spent or ctx is done (its deadline passed or its
// caller canceled it).  A solver that sees true ends with an error
// wrapping linalg.ErrStopped.  Stop returns nil for a context that can
// never be done and carries no poll budget, so an unbudgeted solve pays
// nothing per poll.  The predicate is safe for concurrent calls.
func Stop(ctx context.Context) func() bool {
	done := ctx.Done()
	budget, _ := ctx.Value(pollKey{}).(*pollBudget)
	switch {
	case budget == nil && done == nil:
		return nil
	case budget == nil:
		return func() bool { return isDone(done) }
	}
	return func() bool {
		return budget.polls.Add(1) > budget.max || isDone(done)
	}
}

// isDone polls a Done channel without blocking (a nil channel is never
// done); unlike ctx.Err it takes no lock.
func isDone(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}
