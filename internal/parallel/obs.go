package parallel

import (
	"strconv"
	"sync/atomic"
	"time"

	"aeropack/internal/obs"
)

// taskBuckets span 1 µs to 1000 s, one decade per bucket — wide enough
// for both single sweep points and whole qualification campaigns.
var taskBuckets = obs.ExpBuckets(1e-6, 10, 9)

// poolObs accumulates the telemetry of one pool invocation (one Map
// call).  A nil *poolObs — returned when metrics are disabled —
// makes every method a no-op, so the hot paths carry only nil checks.
//
// Metric names (see DESIGN.md "Observability"):
//
//	parallel_tasks_total           counter, work items completed
//	parallel_task_seconds          histogram, per-item execution time
//	parallel_queue_wait_seconds    histogram, dispatch delay per item (Map)
//	parallel_pool_workers          gauge, workers of the last pool run
//	parallel_pool_utilization      gauge, busy/(workers·wall) of last run
//	parallel_worker_busy_seconds   histogram, mean per-worker busy time
type poolObs struct {
	reg     *obs.Registry
	start   time.Time
	workers int
	busy    atomic.Int64 // summed task nanoseconds across workers
	tasks   atomic.Int64
}

// startPoolObs opens a pool-telemetry scope, or returns nil (one atomic
// load) when the metrics registry is disabled.
func startPoolObs(workers int) *poolObs {
	reg := obs.Default()
	if reg == nil {
		return nil
	}
	return &poolObs{reg: reg, start: time.Now(), workers: workers}
}

// taskStart stamps the beginning of one work item; zero time when
// disabled so taskEnd can cheaply skip.
func (p *poolObs) taskStart() time.Time {
	if p == nil {
		return time.Time{}
	}
	return time.Now()
}

// taskEnd records one finished work item.
func (p *poolObs) taskEnd(t0 time.Time) {
	if p == nil {
		return
	}
	d := time.Since(t0)
	p.busy.Add(int64(d))
	p.tasks.Add(1)
	p.reg.Histogram("parallel_task_seconds", taskBuckets).Observe(d.Seconds())
}

// queueWait records how long a work item sat between pool start and its
// dispatch to a worker.
func (p *poolObs) queueWait(dispatched time.Time) {
	if p == nil {
		return
	}
	p.reg.Histogram("parallel_queue_wait_seconds", taskBuckets).Observe(dispatched.Sub(p.start).Seconds())
}

// finish publishes the whole-pool gauges once every worker has stopped.
func (p *poolObs) finish() {
	if p == nil {
		return
	}
	wall := time.Since(p.start).Seconds()
	busy := time.Duration(p.busy.Load()).Seconds()
	p.reg.Counter("parallel_tasks_total").Add(p.tasks.Load())
	p.reg.Gauge("parallel_pool_workers").Set(float64(p.workers))
	util := 0.0
	if wall > 0 {
		util = busy / (float64(p.workers) * wall)
	}
	p.reg.Gauge("parallel_pool_utilization").Set(util)
	p.reg.Histogram("parallel_worker_busy_seconds", taskBuckets).Observe(busy / float64(p.workers))
	// Flight-recorder pool event, thresholded to substantial runs: row
	// kernels open a pool per SpMV (thousands per second inside CG), so
	// only multi-worker pools lasting ≥1 ms are worth a ring slot.
	if p.workers > 1 && wall >= 1e-3 {
		if rec := obs.CurrentRecorder(); rec != nil {
			rec.Record("pool", "parallel",
				obs.Attr{Key: "workers", Value: strconv.Itoa(p.workers)},
				obs.Attr{Key: "tasks", Value: strconv.FormatInt(p.tasks.Load(), 10)},
				obs.Attr{Key: "utilization", Value: strconv.FormatFloat(util, 'g', 3, 64)})
		}
	}
}
