package main

import (
	"strings"
)

// addCounted adds the per-layer metrics counted by aeropackd's own
// /metrics registry over the measured window.  Per-request values are
// over completed requests.
func addCounted(res *result, m *measurement) {
	done := float64(max(m.load.completed, 1))
	delta := func(name string) float64 { return m.after[name] - m.before[name] }
	// deltaMatch sums the deltas of every series named prefix…suffix.
	deltaMatch := func(prefix, suffix string) float64 {
		sum := 0.0
		for name := range m.after {
			if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
				sum += delta(name)
			}
		}
		return sum
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	res.add("serve.hit_share", delta("serve_cache_hits_total")/done, "fraction")
	res.add("serve.dedup_share", delta("serve_dedup_hits_total")/done, "fraction")
	res.add("serve.miss_share", delta("serve_cache_misses_total")/done, "fraction")
	res.add("serve.rejected_share", delta("serve_rejected_total")/done, "fraction")

	assembleS := delta("thermal_assembly_seconds_sum")
	res.add("thermal.assemblies_per_req", delta("thermal_assembly_seconds_count")/done, "count")
	res.add("thermal.assemble_ms_per_req", 1000*assembleS/done, "ms")
	res.add("thermal.assemble_cpu_share", ratio(assembleS, m.load.serverCPU), "fraction")
	res.add("thermal.matrix_nnz", m.after["thermal_matrix_nnz"], "count")

	solves := deltaMatch("linalg_", "_solves_total")
	iters := delta("linalg_solver_iterations_total")
	hits, misses := delta("linalg_setup_result_hits_total"), delta("linalg_setup_result_misses_total")
	res.add("linalg.solves_per_req", solves/done, "count")
	res.add("linalg.iters_per_req", iters/done, "count")
	res.add("linalg.iters_per_solve", ratio(iters, solves), "count")
	res.add("linalg.failures_per_req", delta("linalg_solver_failures_total")/done, "count")
	res.add("linalg.result_hit_share", ratio(hits, hits+misses), "fraction")
	res.add("linalg.prec_reuse_per_req", delta("linalg_setup_prec_reuse_total")/done, "count")

	res.add("cosee.solves_per_req", delta("cosee_solves_total")/done, "count")
	res.add("envtest.tests_per_req", delta("envtest_tests_total")/done, "count")
	res.add("parallel.tasks_per_req", delta("parallel_tasks_total")/done, "count")
	res.add("parallel.task_ms_per_req", 1000*delta("parallel_task_seconds_sum")/done, "ms")
	res.add("parallel.queue_wait_ms_per_req", 1000*delta("parallel_queue_wait_seconds_sum")/done, "ms")
	res.add("parallel.utilization", m.after["parallel_pool_utilization"], "fraction")

	res.add("robust.fallbacks_per_req", delta("solver_fallbacks")/done, "count")
	res.add("robust.exhausted_total", delta("robust_chain_exhausted_total"), "count")
	res.add("robust.ic0_degraded_total", delta("robust_ic0_degraded_total")+delta("thermal_ic0_degraded_total"), "count")

	res.add("loadgen.client_cpu_ms_per_req", 1000*m.clientCPU/done, "ms")
	res.add("loadgen.completed", float64(m.load.completed), "count")
}

// addTraced adds the per-layer timings of the traced replay: the median
// over replayed bodies of each span, and of the self times derived from
// them.  A layer no replayed body reaches reports 0.
func addTraced(res *result, st *replayStats) {
	var request, hit, self, engine []float64
	var level [3][]float64
	var other, assemble, rest []float64
	for _, b := range st.bodies {
		request = append(request, b.request)
		self = append(self, b.request-b.engine)
		engine = append(engine, b.engine)
		if b.hit >= 0 {
			hit = append(hit, b.hit)
		}
		if b.kind == "study" {
			for i := range level {
				level[i] = append(level[i], b.level[i])
			}
			other = append(other, b.engine-b.level[0]-b.level[1]-b.level[2])
			assemble = append(assemble, b.assemble)
			rest = append(rest, b.level[1]-b.assemble)
		}
	}
	res.add("serve.request_ms", median(request), "ms")
	res.add("serve.hit_ms", median(hit), "ms")
	res.add("serve.self_ms", median(self), "ms")
	res.add("core.level1_ms", median(level[0]), "ms")
	res.add("core.level2_ms", median(level[1]), "ms")
	res.add("core.level3_ms", median(level[2]), "ms")
	res.add("core.other_ms", median(other), "ms")
	res.add("thermal.assemble_ms", median(assemble), "ms")
	res.add("thermal.rest_ms", median(rest), "ms")
	res.add("engine.ms", median(engine), "ms")
	overhead := 0.0
	if st.untraced > 0 {
		overhead = 100 * (st.traced.Seconds()/st.untraced.Seconds() - 1)
	}
	res.add("trace.overhead_pct", overhead, "%")
}
