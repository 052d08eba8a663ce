// Package loadgen drives concurrent study-request load against an
// aeropackd endpoint and reduces the observed per-request durations to
// the aeropack-bench/v1 latency percentiles.  It is the measurement
// half of the serve acceptance story: thousands of concurrent requests,
// zero dropped jobs (429s are retried honoring Retry-After, never
// counted as completions), and latency tails recorded where the perf
// watchdog can see them.
package loadgen

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"aeropack/internal/report"
)

// Options configures one load run.
type Options struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Bodies are the request documents, assigned round-robin across
	// the request sequence.  At least one is required.
	Bodies [][]byte
	// Requests is the total number of studies to complete (<= 0 means
	// len(Bodies)).
	Requests int
	// Concurrency is the number of parallel clients (<= 0 means 8).
	Concurrency int
	// Client overrides the HTTP client (nil uses a dedicated client
	// with a generous per-request timeout).
	Client *http.Client
	// MaxRetries bounds 429-retries per request (<= 0 means 50).  A
	// request that exhausts its retries counts as dropped — the number
	// the acceptance gate requires to be zero.
	MaxRetries int
}

// Result is one load run's outcome.
type Result struct {
	Total     int // requests attempted
	Completed int // 2xx responses
	Dropped   int // retries exhausted or terminal non-2xx
	Retries   int // 429 responses that were retried
	CacheHits int // responses served with X-Aeropack-Cache: hit
	DedupHits int // responses served with X-Aeropack-Cache: dedup

	// DurationsNs are per-completed-request wall times (first attempt
	// to final byte, retry waits included — the honest tail under
	// overload), in request order.
	DurationsNs []float64
	// Elapsed is the whole run's wall time.
	Elapsed time.Duration
}

// ThroughputRPS is completed requests per second of run wall time.
func (r *Result) ThroughputRPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Elapsed.Seconds()
}

// Percentiles reduces the run to the standard latency metric map
// (p50_ms/p95_ms/p99_ms) plus throughput_rps — the units the bench
// pipeline round-trips into BENCH_serve.json.
func (r *Result) Percentiles() map[string]float64 {
	m := report.LatencyMetrics(r.DurationsNs)
	if m == nil {
		m = make(map[string]float64)
	}
	m["throughput_rps"] = r.ThroughputRPS()
	return m
}

// Run executes the load: Concurrency workers pull request indices from
// a shared sequence, POST their body, retry 429s honoring Retry-After,
// and record wall time per completed request.  The only returned error
// is a configuration error; transport-level failures are counted as
// drops so an overload test can assert Dropped == 0 without the run
// aborting mid-way.
func Run(o Options) (*Result, error) {
	if len(o.Bodies) == 0 {
		return nil, fmt.Errorf("loadgen: at least one request body is required")
	}
	if o.Requests <= 0 {
		o.Requests = len(o.Bodies)
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 8
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 50
	}
	client := o.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Minute}
	}

	outcomes := make([]outcome, o.Requests)
	var wg sync.WaitGroup
	var next int64
	var nextMu sync.Mutex
	claim := func() int {
		nextMu.Lock()
		defer nextMu.Unlock()
		if next >= int64(o.Requests) {
			return -1
		}
		n := int(next)
		next++
		return n
	}
	start := time.Now()
	for w := 0; w < o.Concurrency; w++ {
		wg.Add(1)
		//lint:allow goroleak joined by wg.Wait below, before Run returns
		go func() {
			defer wg.Done()
			for {
				i := claim()
				if i < 0 {
					return
				}
				body := o.Bodies[i%len(o.Bodies)]
				outcomes[i] = post(client, o.BaseURL, body, o.MaxRetries)
			}
		}()
	}
	wg.Wait()

	res := &Result{Total: o.Requests, Elapsed: time.Since(start)}
	for _, oc := range outcomes {
		res.Retries += oc.retries
		if !oc.completed {
			res.Dropped++
			continue
		}
		res.Completed++
		res.DurationsNs = append(res.DurationsNs, oc.durationNs)
		switch oc.cacheState {
		case "hit":
			res.CacheHits++
		case "dedup":
			res.DedupHits++
		}
	}
	return res, nil
}

// outcome is one request's fate.
type outcome struct {
	completed  bool
	durationNs float64
	retries    int
	cacheState string
}

// post runs one request to completion: POST, retry on 429 after the
// server's Retry-After (capped to keep tests fast), give up after
// maxRetries or on any terminal failure.
func post(client *http.Client, baseURL string, body []byte, maxRetries int) (oc outcome) {
	start := time.Now()
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(baseURL+"/v1/studies", "application/json", bytes.NewReader(body))
		if err != nil {
			return
		}
		_, cerr := io.Copy(io.Discard, resp.Body)
		if err := resp.Body.Close(); cerr == nil {
			cerr = err
		}
		if cerr != nil {
			return
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			if attempt >= maxRetries {
				return
			}
			oc.retries++
			time.Sleep(retryAfter(resp))
			continue
		}
		if resp.StatusCode/100 != 2 {
			return
		}
		oc.completed = true
		oc.durationNs = float64(time.Since(start).Nanoseconds())
		oc.cacheState = resp.Header.Get("X-Aeropack-Cache")
		return
	}
}

// retryAfter reads the server's backoff hint, clamped to [10ms, 1s] so
// a misbehaving header can neither hot-loop nor stall the run.
func retryAfter(resp *http.Response) time.Duration {
	d := 100 * time.Millisecond
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil {
			d = time.Duration(secs) * time.Second
		}
	}
	if d < 10*time.Millisecond {
		d = 10 * time.Millisecond
	}
	if d > time.Second {
		d = time.Second
	}
	return d
}
