package linalg

import (
	"strconv"
	"time"

	"aeropack/internal/obs"
)

// residualBuckets cover the convergence range of interest: 1e-16 (beyond
// machine precision) up through 100 (a diverged solve), one decade per
// bucket.
var residualBuckets = obs.ExpBuckets(1e-16, 10, 18)

// layerBuckets span 1 µs to 1000 s, one decade per bucket.
var layerBuckets = obs.ExpBuckets(1e-6, 10, 9)

// layerTimer times one solver layer (a preconditioner build, a Krylov
// loop) into a seconds histogram of the registry installed when it
// started.  With telemetry disabled it holds no registry, so starting
// costs one atomic load and observing nothing.
type layerTimer struct {
	reg   *obs.Registry
	start time.Time
}

func startLayer() layerTimer {
	reg := obs.Default()
	if reg == nil {
		return layerTimer{}
	}
	return layerTimer{reg: reg, start: time.Now()}
}

// observe records the time since startLayer under name:
//
//	linalg_prec_setup_seconds  histogram, preconditioner builds
//	linalg_krylov_seconds      histogram, CG and BiCGSTAB loops
func (t layerTimer) observe(name string) {
	if t.reg != nil {
		t.reg.Histogram(name, layerBuckets).Observe(time.Since(t.start).Seconds())
	}
}

// recordSolve publishes the post-solve metrics of one iterative solve to
// r, the registry the solve's layerTimer captured (nil when telemetry is
// disabled, the default).  Metric names are part of the observability
// contract documented in DESIGN.md:
//
//	linalg_<method>_solves_total    counter, solves started
//	linalg_solver_iterations_total  counter, iterations across methods
//	linalg_solver_failures_total    counter, solves that returned an error
//	linalg_residual                 histogram, relative residual at exit
func recordSolve(r *obs.Registry, method string, stats IterStats, err error) {
	if r != nil {
		r.Counter("linalg_" + method + "_solves_total").Inc()
		r.Counter("linalg_solver_iterations_total").Add(int64(stats.Iterations))
		r.Histogram("linalg_residual", residualBuckets).Observe(stats.Residual)
		if err != nil {
			r.Counter("linalg_solver_failures_total").Inc()
		}
	}
	// Flight-recorder convergence summary: one event per solve with the
	// numbers an operator tails first when a run misbehaves.
	if rec := obs.CurrentRecorder(); rec != nil {
		attrs := []obs.Attr{
			{Key: "iterations", Value: strconv.Itoa(stats.Iterations)},
			{Key: "residual", Value: strconv.FormatFloat(stats.Residual, 'g', -1, 64)},
		}
		if err != nil {
			attrs = append(attrs, obs.Attr{Key: "error", Value: err.Error()})
		}
		rec.Record("solver", method, attrs...)
	}
}
