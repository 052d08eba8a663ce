// Package robust is aeropack's stdlib-only resilience layer: solver
// fallback chains, per-point error capture for long multi-point
// campaigns, and a deterministic fault-injection kit to prove both under
// go test -race.
//
// The paper's headline results (the Fig. 10 ΔT-versus-power sweeps, the
// NANOPACK TIM qualification) come out of campaigns with tens to
// hundreds of operating points; a single non-converged linear solve used
// to abort the entire run.  This package moves the stack to graceful
// degradation instead:
//
//   - Chain.Solve is the one linear-solve entry every thermal system
//     goes through: it serves repeats from the result cache, retries a
//     failed solve down a fallback ladder (the configured solver → CG →
//     BiCGSTAB → diagonally preconditioned relaxed-then-refined retry),
//     each attempt bounded by an iteration cap and a wall-clock budget,
//     and solves small systems densely as the last resort, with every
//     fallback recorded via internal/obs spans and the solver_fallbacks
//     counter.
//   - MapKeepGoing runs a campaign across the internal/parallel pool and
//     converts each failed point into a typed *PointError positioned in
//     the result set, so the surviving points are exactly — bitwise —
//     what an all-success run would have produced.
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
	"fmt"

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

// MapKeepGoing evaluates fn over items across at most workers goroutines
// (<= 0 means GOMAXPROCS) like parallel.Map, but a failed item no longer
// aborts the batch: its error is captured as a *PointError and every
// other item still runs.  out[i] is fn(i, items[i]) when no PointError
// carries Index i, and the zero value otherwise, so successful points
// are bitwise-identical to an abort-on-error run's.  label, if non-nil,
// names each point for reports.  Worker panics (the linalg contract
// checks) still propagate.  Captured failures are counted on the
// robust_point_errors_total counter.
func MapKeepGoing[T, R any](items []T, workers int, label func(i int, item T) string, fn func(i int, item T) (R, error)) ([]R, []*PointError) {
	perPoint := make([]*PointError, len(items))
	out, _ := parallel.Map(items, workers, func(i int, item T) (R, error) {
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
	return out, errs
}
