package loadgen

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"aeropack/internal/obs"
	"aeropack/internal/report"
	"aeropack/internal/serve"
)

// sweepBodies builds n distinct sweep requests (different power
// points), so a load run mixes fresh computations with dedup/cache
// traffic the way real clients would.
func sweepBodies(n int) [][]byte {
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf(
			`{"kind": "sweep", "sweep": {"use_lhp": true, "powers_w": [%d, %d]}}`,
			20+i, 60+i))
	}
	return bodies
}

// newLoadServer starts a study server on a real listener with a
// test-local registry.
func newLoadServer(t testing.TB, opts serve.Options) *httptest.Server {
	t.Helper()
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	s, err := serve.NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		if err := s.Close(); err != nil {
			t.Errorf("closing server: %v", err)
		}
	})
	return hs
}

// TestLoadGen1000Concurrent is the acceptance gate: 1,000 concurrent
// study requests against a small worker pool, zero dropped jobs.  The
// eight distinct bodies keep eight computations in play while dedup and
// the result cache absorb the rest.
func TestLoadGen1000Concurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("1,000-connection load run skipped in -short mode")
	}
	hs := newLoadServer(t, serve.Options{Workers: 1, MaxInflight: 4, MaxQueue: 64})
	res, err := Run(Options{
		BaseURL:     hs.URL,
		Bodies:      sweepBodies(8),
		Requests:    1000,
		Concurrency: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 0 {
		t.Fatalf("%d of %d requests dropped (retries: %d)", res.Dropped, res.Total, res.Retries)
	}
	if res.Completed != 1000 || len(res.DurationsNs) != 1000 {
		t.Fatalf("completed %d / durations %d, want 1000", res.Completed, len(res.DurationsNs))
	}
	// 8 bodies compute at most once each (dedup may even merge a retry
	// into an earlier leader); everything else is served for free.
	if free := res.CacheHits + res.DedupHits; free < 1000-8 {
		t.Errorf("only %d of 1000 requests served via dedup/cache, want >= 992", free)
	}
	m := res.Percentiles()
	for _, unit := range []string{"p50_ms", "p95_ms", "p99_ms"} {
		if m[unit] <= 0 {
			t.Errorf("%s = %g, want > 0", unit, m[unit])
		}
	}
	if m["p50_ms"] > m["p99_ms"] {
		t.Errorf("p50 %g > p99 %g", m["p50_ms"], m["p99_ms"])
	}
	t.Logf("p50 %.2f ms, p95 %.2f ms, p99 %.2f ms, %.0f req/s, %d dedup, %d cache hits, %d retries",
		m["p50_ms"], m["p95_ms"], m["p99_ms"], m["throughput_rps"],
		res.DedupHits, res.CacheHits, res.Retries)
}

// TestRunValidation covers the configuration errors and defaults.
func TestRunValidation(t *testing.T) {
	if _, err := Run(Options{}); err == nil {
		t.Error("Run accepted zero bodies")
	}
	hs := newLoadServer(t, serve.Options{Workers: 1})
	res, err := Run(Options{BaseURL: hs.URL, Bodies: sweepBodies(2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 2 || res.Completed != 2 {
		t.Errorf("defaulted run: total %d completed %d, want 2/2", res.Total, res.Completed)
	}
}

// TestRunCountsDrops checks a terminal client error is a drop, not a
// hang: bad request bodies complete the run with Dropped set.
func TestRunCountsDrops(t *testing.T) {
	hs := newLoadServer(t, serve.Options{Workers: 1})
	res, err := Run(Options{
		BaseURL: hs.URL,
		Bodies:  [][]byte{[]byte(`{"kind": "warp-field"}`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 1 || res.Completed != 0 {
		t.Errorf("dropped %d completed %d, want 1/0", res.Dropped, res.Completed)
	}
}

// BenchmarkServe_LoadGen measures the serving stack under concurrent
// load and reports the latency percentiles plus throughput in the
// aeropack-bench/v1 metric units, so
//
//	go test -bench Serve_LoadGen -run '^$' ./internal/serve/loadgen | benchjson -o BENCH_serve.json
//
// lands the numbers where CompareBenchSets watches them.
func BenchmarkServe_LoadGen(b *testing.B) {
	var all []float64
	var completed int
	var elapsed float64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		hs := newLoadServer(b, serve.Options{Workers: 1, MaxInflight: 4, MaxQueue: 64})
		b.StartTimer()
		res, err := Run(Options{
			BaseURL:     hs.URL,
			Bodies:      sweepBodies(8),
			Requests:    400,
			Concurrency: 100,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Dropped != 0 {
			b.Fatalf("%d requests dropped", res.Dropped)
		}
		all = append(all, res.DurationsNs...)
		completed += res.Completed
		elapsed += res.Elapsed.Seconds()
	}
	m := report.LatencyMetrics(all)
	b.ReportMetric(m["p50_ms"], "p50_ms")
	b.ReportMetric(m["p95_ms"], "p95_ms")
	b.ReportMetric(m["p99_ms"], "p99_ms")
	b.ReportMetric(float64(completed)/elapsed, "throughput_rps")
	b.ReportMetric(0, "allocs/op") // allocation noise is not this bench's signal
}

// TestRunJoinsItsClients checks Run's join: every response is held past
// a one-second window, and once Run returns and its idle connections
// close, the goroutine count is back where it started within that
// second.  A Run that returned without waiting would leave its clients
// blocked on the held responses through the whole window.
func TestRunJoinsItsClients(t *testing.T) {
	const window = time.Second
	hold := time.Now().Add(window + window/5)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		time.Sleep(time.Until(hold))
	}))
	defer ts.Close()
	tr := &http.Transport{}
	base := runtime.NumGoroutine()
	res, err := Run(Options{BaseURL: ts.URL, Bodies: [][]byte{[]byte(`{}`)}, Requests: 4, Concurrency: 4,
		Client: &http.Client{Transport: tr}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 4 {
		t.Errorf("completed %d of 4 requests", res.Completed)
	}
	tr.CloseIdleConnections()
	deadline := time.Now().Add(window)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines a second after Run returned, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
