package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"aeropack/internal/obs"
)

// soloSolves measures the engine solve count of exactly one execution
// of body, on a private server and registry, for comparison against the
// deduplicated run.
func soloSolves(t *testing.T, body []byte) int64 {
	t.Helper()
	reg := obs.NewRegistry()
	old := obs.Default()
	obs.SetDefault(reg)
	defer obs.SetDefault(old)
	s := newTestServer(t, Options{Workers: 2, Registry: reg})
	if w := postStudy(s, body); w.Code != http.StatusOK {
		t.Fatalf("solo run status = %d", w.Code)
	}
	return reg.Counter("cosee_solves_total").Value()
}

// TestDedupConcurrentIdentical is the satellite race test: 100
// concurrent identical requests must trigger exactly one solver
// execution and return bitwise-identical bodies (run under -race in
// verify.sh).  The engines' solve counter lands on the obs default
// registry, so the test swaps in its own.
func TestDedupConcurrentIdentical(t *testing.T) {
	body := []byte(`{"kind": "sweep", "sweep": {"use_lhp": true, "tilt_deg": 22, "powers_w": [55, 85]}}`)
	want := soloSolves(t, body)
	if want == 0 {
		t.Fatal("solo run recorded no cosee solves; counter plumbing broken")
	}

	reg := obs.NewRegistry()
	old := obs.Default()
	obs.SetDefault(reg)
	defer obs.SetDefault(old)
	s := newTestServer(t, Options{Workers: 2, Registry: reg})

	const clients = 100
	start := make(chan struct{})
	var wg sync.WaitGroup
	statuses := make([]int, clients)
	bodies := make([][]byte, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			w := postStudy(s, body)
			statuses[i] = w.Code
			bodies[i] = w.Body.Bytes()
		}()
	}
	close(start)
	wg.Wait()

	for i := 0; i < clients; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("client %d: status %d", i, statuses[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("client %d: body differs from client 0", i)
		}
	}
	if got := reg.Counter("cosee_solves_total").Value(); got != want {
		t.Errorf("cosee_solves_total = %d after 100 identical requests, want %d (one execution)", got, want)
	}
	misses := reg.Counter("serve_cache_misses_total").Value()
	dedup := reg.Counter("serve_dedup_hits_total").Value()
	hits := reg.Counter("serve_cache_hits_total").Value()
	if misses != 1 {
		t.Errorf("serve_cache_misses_total = %d, want 1", misses)
	}
	if dedup+hits != clients-1 {
		t.Errorf("dedup (%d) + cache hits (%d) = %d, want %d", dedup, hits, dedup+hits, clients-1)
	}
}

// TestCacheSpeedup pins the acceptance bound: a cache hit must be at
// least 100x faster than the cold computation of the same study.  The
// board study kind computes for tens of milliseconds cold, so the bound
// has orders of magnitude of headroom over a ~microsecond map lookup.
func TestCacheSpeedup(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	body := readContract(t, "study.request.json")

	t0 := time.Now()
	w := postStudy(s, body)
	cold := time.Since(t0)
	if w.Code != http.StatusOK || w.Header().Get("X-Aeropack-Cache") != "miss" {
		t.Fatalf("cold: status %d cache %q", w.Code, w.Header().Get("X-Aeropack-Cache"))
	}

	const hits = 20
	t1 := time.Now()
	var last *bytes.Buffer
	for i := 0; i < hits; i++ {
		hw := postStudy(s, body)
		if hw.Code != http.StatusOK || hw.Header().Get("X-Aeropack-Cache") != "hit" {
			t.Fatalf("hit %d: status %d cache %q", i, hw.Code, hw.Header().Get("X-Aeropack-Cache"))
		}
		last = hw.Body
	}
	avgHit := time.Since(t1) / hits
	if !bytes.Equal(last.Bytes(), w.Body.Bytes()) {
		t.Error("cached body differs from cold body")
	}
	if avgHit > cold/100 {
		t.Errorf("cache hit %v vs cold %v: speedup %.0fx < 100x", avgHit, cold, float64(cold)/float64(avgHit))
	}
	t.Logf("cold %v, avg hit %v (%.0fx)", cold, avgHit, float64(cold)/float64(avgHit))
}

// TestCacheDiskPersistence checks -cache-dir: a second server over the
// same directory serves the first server's results without recompute,
// and an empty (torn) file falls back to recompute instead of replaying
// garbage.
func TestCacheDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	body := readContract(t, "techmap.request.json")
	key := requestKey(body)

	s1 := newTestServer(t, Options{Workers: 1, CacheDir: dir})
	w1 := postStudy(s1, body)
	if w1.Code != http.StatusOK {
		t.Fatalf("status %d", w1.Code)
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, key+".json"))
	if err != nil {
		t.Fatalf("cache entry not persisted: %v", err)
	}
	if !bytes.Equal(onDisk, w1.Body.Bytes()) {
		t.Error("persisted entry differs from served body")
	}

	s2 := newTestServer(t, Options{Workers: 1, CacheDir: dir})
	w2 := postStudy(s2, body)
	if w2.Code != http.StatusOK || w2.Header().Get("X-Aeropack-Cache") != "hit" {
		t.Fatalf("restart: status %d cache %q, want disk hit", w2.Code, w2.Header().Get("X-Aeropack-Cache"))
	}
	if !bytes.Equal(w2.Body.Bytes(), w1.Body.Bytes()) {
		t.Error("disk-cached body differs from original")
	}

	// Torn write: an empty file must recompute, not replay.
	if err := os.WriteFile(filepath.Join(dir, key+".json"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := newTestServer(t, Options{Workers: 1, CacheDir: dir})
	w3 := postStudy(s3, body)
	if w3.Code != http.StatusOK || w3.Header().Get("X-Aeropack-Cache") != "miss" {
		t.Fatalf("empty entry: status %d cache %q, want recompute", w3.Code, w3.Header().Get("X-Aeropack-Cache"))
	}
	if !bytes.Equal(w3.Body.Bytes(), w1.Body.Bytes()) {
		t.Error("recomputed body differs from original")
	}
}

// TestBudgetedNotCached checks budgeted studies bypass the result
// cache: their outcome depends on wall clock and scheduling, so every
// submission recomputes.
func TestBudgetedNotCached(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	// Generous budget: the study succeeds, but must still not be cached.
	body := []byte(`{"kind": "techmap", "budget": {"max_solver_iters": 1000000}, "techmap": {"powers_w": [20], "fluxes_w_cm2": [2]}}`)
	for i := 0; i < 2; i++ {
		w := postStudy(s, body)
		if w.Code != http.StatusOK || w.Header().Get("X-Aeropack-Cache") != "miss" {
			t.Fatalf("request %d: status %d cache %q, want recompute", i, w.Code, w.Header().Get("X-Aeropack-Cache"))
		}
	}
	if got := s.reg.Counter("serve_cache_misses_total").Value(); got != 2 {
		t.Errorf("serve_cache_misses_total = %d, want 2", got)
	}
	if s.cache.len() != 0 {
		t.Errorf("cache holds %d entries, want 0 for budgeted-only traffic", s.cache.len())
	}
}

// TestStudyBudgetStopsLevel2 checks a study's budget reaches the level-2
// FV solve through its fallback chain: with max_solver_iters 10 the
// board CG stops at the poll after its tenth iteration instead of
// converging first, and no fallback rung runs for a request already
// out of budget.
func TestStudyBudgetStopsLevel2(t *testing.T) {
	reg := obs.NewRegistry()
	old := obs.Default()
	obs.SetDefault(reg)
	defer obs.SetDefault(old)
	s := newTestServer(t, Options{Workers: 1, Registry: reg})
	w := postStudy(s, readContract(t, "study-budget-exceeded.request.json"))
	if w.Code != 422 || !bytes.Contains(w.Body.Bytes(), []byte(`"code": "budget_exceeded"`)) {
		t.Fatalf("status = %d, want 422 budget_exceeded\nbody: %s", w.Code, w.Body.Bytes())
	}
	iters := reg.Counter("linalg_solver_iterations_total").Value()
	if iters == 0 || iters > 11 {
		t.Errorf("level-2 CG ran %d iterations under a 10-iteration budget, want 1–11", iters)
	}
	for _, name := range []string{"solver_fallbacks", "robust_chain_exhausted_total"} {
		if got := reg.Counter(name).Value(); got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
}

// TestWallClockBudget checks the other budget axis: an already-expired
// wall-clock deadline trips the first poll and surfaces as 422.
func TestWallClockBudget(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	body := []byte(`{"kind": "fig10", "budget": {"max_wall_ms": 1}}`)
	time.Sleep(2 * time.Millisecond) // the deadline is taken at decode; ensure expiry
	w := postStudy(s, body)
	if w.Code != 422 {
		t.Fatalf("status = %d, want 422\nbody: %s", w.Code, w.Body.Bytes())
	}
	if !bytes.Contains(w.Body.Bytes(), []byte(`"code": "budget_exceeded"`)) {
		t.Errorf("error body misses budget_exceeded code:\n%s", w.Body.Bytes())
	}
}

// TestKeepGoingKinds drives the keep-going path of the remaining kinds
// (fig10 with a bad material cannot fail per-point, so fault injection
// is exercised at the cosee layer; here the qualification and study
// kinds run keep-going end-to-end on healthy inputs and must be
// non-partial and bitwise-stable).
func TestKeepGoingKinds(t *testing.T) {
	for _, kind := range []string{"qualification", "study", "fig10"} {
		t.Run(kind, func(t *testing.T) {
			base := readContract(t, kind+".request.json")
			var doc map[string]any
			if err := json.Unmarshal(base, &doc); err != nil {
				t.Fatal(err)
			}
			doc["keep_going"] = true
			body, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			s := newTestServer(t, Options{Workers: 2})
			w := postStudy(s, body)
			if w.Code != http.StatusOK {
				t.Fatalf("status = %d\nbody: %s", w.Code, w.Body.Bytes())
			}
			if bytes.Contains(w.Body.Bytes(), []byte(`"partial": true`)) {
				t.Errorf("healthy keep-going run reported partial:\n%s", w.Body.Bytes())
			}
			w2 := postStudy(s, body)
			if !bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()) {
				t.Error("keep-going response not bitwise-stable")
			}
		})
	}
}

// TestExtendedQualification covers the extended campaign switch.
func TestExtendedQualification(t *testing.T) {
	base := readContract(t, "qualification.request.json")
	var doc map[string]any
	if err := json.Unmarshal(base, &doc); err != nil {
		t.Fatal(err)
	}
	doc["qualification"].(map[string]any)["extended"] = true
	body, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Options{Workers: 2})
	w := postStudy(s, body)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d\nbody: %s", w.Code, w.Body.Bytes())
	}
	// The extended campaign adds tests beyond the base four.
	if n := bytes.Count(w.Body.Bytes(), []byte(`"test":`)); n <= 4 {
		t.Errorf("extended campaign returned %d tests, want > 4", n)
	}
}

// TestQueueThenAdmit checks the QUEUE state of admission control: with
// the slot held, a request waits rather than rejects while the queue
// has room, and completes once the slot frees.
func TestQueueThenAdmit(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, MaxInflight: 1, MaxQueue: 4})
	s.sem <- struct{}{} // hold the only slot
	done := make(chan *bytes.Buffer, 1)
	go func() {
		w := postStudy(s, readContract(t, "techmap.request.json"))
		done <- w.Body
	}()
	// The request must be parked in the queue, not answered.
	select {
	case <-done:
		t.Fatal("request completed while the admission slot was held")
	case <-time.After(50 * time.Millisecond):
	}
	<-s.sem // free the slot
	select {
	case b := <-done:
		if !bytes.Contains(b.Bytes(), []byte(`"kind": "techmap"`)) {
			t.Errorf("queued request returned wrong body:\n%s", b.Bytes())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued request never completed after the slot freed")
	}
}

// TestRequestTooLarge checks the request size guard.
func TestRequestTooLarge(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	big := []byte(fmt.Sprintf(`{"kind": "fig10", "fig10": {"structure": %q}}`,
		bytes.Repeat([]byte("x"), maxRequestBytes)))
	w := postStudy(s, big)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", w.Code)
	}
}
