package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"aeropack/internal/obs"
)

// The contract tests pin the wire protocol with golden request/response
// pairs under testdata/contract: every study kind, every error shape
// (bad JSON, bad kind, missing section, unknown field, budget exceeded,
// queue-full 429) and the async job flow.  Run with -update after a
// deliberate protocol change to rewrite the goldens.

var update = flag.Bool("update", false, "rewrite the contract golden files")

// newTestServer builds a server with its own registry (so counters are
// test-local) and cleans it up with the test.
func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	s, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("closing server: %v", err)
		}
	})
	return s
}

func contractPath(name string) string {
	return filepath.Join("testdata", "contract", name)
}

func readContract(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(contractPath(name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkGolden compares got against the named golden file, rewriting the
// file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := contractPath(name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run go test -run TestContract -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("response differs from golden %s\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// postStudy drives POST /v1/studies through the full handler stack.
func postStudy(s *Server, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/v1/studies", bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// getPath drives a GET route through the handler stack.
func getPath(s *Server, path string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("GET", path, nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func TestContractStudies(t *testing.T) {
	cases := []struct {
		name       string
		wantStatus int
		wantCache  string // expected X-Aeropack-Cache on a fresh server
	}{
		{"fig10", 200, "miss"},
		{"sweep", 200, "miss"},
		{"sweep-keepgoing-partial", 200, "miss"},
		{"techmap", 200, "miss"},
		{"qualification", 200, "miss"},
		{"study", 200, "miss"},
		{"bad-json", 400, ""},
		{"bad-kind", 400, ""},
		{"missing-section", 400, ""},
		{"unknown-field", 400, ""},
		// unknown-material fails inside the compute path (the material
		// lookup is part of study execution), so it carries cache state.
		{"unknown-material", 400, "miss"},
		{"budget-exceeded", 422, "miss"},
		{"study-budget-exceeded", 422, "miss"},
		{"qualification-budget-exceeded", 422, "miss"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// A fresh server per case keeps the cache state
			// deterministic ("miss" on first contact).
			s := newTestServer(t, Options{Workers: 1})
			body := readContract(t, c.name+".request.json")
			w := postStudy(s, body)
			if w.Code != c.wantStatus {
				t.Fatalf("status = %d, want %d\nbody: %s", w.Code, c.wantStatus, w.Body.Bytes())
			}
			if got := w.Header().Get("X-Aeropack-Cache"); got != c.wantCache {
				t.Errorf("X-Aeropack-Cache = %q, want %q", got, c.wantCache)
			}
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			checkGolden(t, c.name+".response.json", w.Body.Bytes())
		})
	}
}

// TestContractQueueFull pins the 429 shape deterministically: the
// admission slot and the whole queue are occupied by hand, so the next
// request must be rejected with Retry-After.
func TestContractQueueFull(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, MaxInflight: 1, MaxQueue: 2})
	s.sem <- struct{}{} // occupy the only inflight slot
	s.waiting.Add(2)    // fill the queue
	defer func() {
		<-s.sem
		s.waiting.Add(-2)
	}()
	w := postStudy(s, readContract(t, "queue-full.request.json"))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429\nbody: %s", w.Code, w.Body.Bytes())
	}
	if ra := w.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	if reg := s.reg; reg.Counter("serve_rejected_total").Value() != 1 {
		t.Errorf("serve_rejected_total = %d, want 1", reg.Counter("serve_rejected_total").Value())
	}
	checkGolden(t, "queue-full.response.json", w.Body.Bytes())
}

// waitJobDone polls the job route until the state flips to done.
func waitJobDone(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		w := getPath(s, "/v1/jobs/"+id)
		if w.Code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s = %d\nbody: %s", id, w.Code, w.Body.Bytes())
		}
		var st jobState
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "done" {
			return w.Body.Bytes()
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %q after 30s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestContractAsyncFlow pins the async ticket, the done job document,
// the replayed result and the unknown-job 404 — and checks the result
// body is bitwise-identical across two submissions of the same bytes.
func TestContractAsyncFlow(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	body := readContract(t, "async-sweep.request.json")

	// Fresh server, so the first job id is deterministically j1.
	w := postStudy(s, body)
	if w.Code != http.StatusAccepted {
		t.Fatalf("status = %d, want 202\nbody: %s", w.Code, w.Body.Bytes())
	}
	checkGolden(t, "async-ticket.response.json", w.Body.Bytes())

	done := waitJobDone(t, s, "j1")
	checkGolden(t, "job-done.response.json", done)

	res1 := getPath(s, "/v1/results/j1")
	if res1.Code != http.StatusOK {
		t.Fatalf("result status = %d\nbody: %s", res1.Code, res1.Body.Bytes())
	}
	checkGolden(t, "async-result.response.json", res1.Body.Bytes())

	// Second submission of the identical bytes: job j2, served from the
	// result cache, bitwise-identical body.
	w2 := postStudy(s, body)
	if w2.Code != http.StatusAccepted {
		t.Fatalf("second submit status = %d", w2.Code)
	}
	waitJobDone(t, s, "j2")
	res2 := getPath(s, "/v1/results/j2")
	if !bytes.Equal(res1.Body.Bytes(), res2.Body.Bytes()) {
		t.Error("async results for identical request bytes differ")
	}

	w404 := getPath(s, "/v1/jobs/nope")
	if w404.Code != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", w404.Code)
	}
	checkGolden(t, "job-not-found.response.json", w404.Body.Bytes())
}

// TestContractResultNotReady pins the 409 shape: the job's singleflight
// key is pre-registered as an in-flight call the test controls, so the
// job is deterministically still running when the result is requested.
func TestContractResultNotReady(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	body := readContract(t, "async-sweep.request.json")
	key := requestKey(body)
	c := &call{done: make(chan struct{})}
	s.mu.Lock()
	s.inflight[key] = c
	s.mu.Unlock()

	w := postStudy(s, body)
	if w.Code != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", w.Code)
	}
	// Wait until the job goroutine is parked on the fabricated call (it
	// bumps the dedup counter just before blocking), so completing the
	// call below deterministically completes the job.
	for deadline := time.Now().Add(10 * time.Second); s.reg.Counter("serve_dedup_hits_total").Value() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("job goroutine never joined the in-flight call")
		}
		time.Sleep(time.Millisecond)
	}

	running := getPath(s, "/v1/jobs/j1")
	checkGolden(t, "job-running.response.json", running.Body.Bytes())

	notReady := getPath(s, "/v1/results/j1")
	if notReady.Code != http.StatusConflict {
		t.Fatalf("status = %d, want 409\nbody: %s", notReady.Code, notReady.Body.Bytes())
	}
	checkGolden(t, "result-not-ready.response.json", notReady.Body.Bytes())

	// Complete the fabricated call; the job drains through Close.
	c.status, c.body = http.StatusOK, []byte("{}\n")
	close(c.done)
	s.mu.Lock()
	delete(s.inflight, key)
	s.mu.Unlock()
	if got := waitJobDone(t, s, "j1"); got == nil {
		t.Fatal("job never completed")
	}
	res := getPath(s, "/v1/results/j1")
	if res.Code != http.StatusOK || res.Body.String() != "{}\n" {
		t.Errorf("result = %d %q, want the injected body", res.Code, res.Body.String())
	}
}

// TestOpsRoutes checks the obshttp ops endpoint shares the mux: the
// serve counters land on /metrics and /healthz answers.
func TestOpsRoutes(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	_ = postStudy(s, readContract(t, "techmap.request.json"))
	m := getPath(s, "/metrics")
	if m.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", m.Code)
	}
	if !bytes.Contains(m.Body.Bytes(), []byte("serve_requests_total 1")) {
		t.Errorf("/metrics misses serve_requests_total:\n%s", m.Body.Bytes())
	}
	if h := getPath(s, "/healthz"); h.Code != http.StatusOK {
		t.Errorf("/healthz = %d", h.Code)
	}
	if w := getPath(s, "/v1/studies"); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/studies = %d, want 405", w.Code)
	}
}

// TestModelVersionDigest ties the disk cache's modelVersion to the
// answers it stands for: the sha256 over every contract response
// golden's name and bytes must equal goldenDigest.  A change that moves
// a golden fails here until it bumps modelVersion and records the new
// digest, so a cache directory written before the change is not
// replayed after it.
func TestModelVersionDigest(t *testing.T) {
	names, err := filepath.Glob(contractPath("*.response.json"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no response goldens found: %v", err)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", filepath.Base(name), len(b))
		h.Write(b)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenDigest {
		t.Errorf("contract response goldens digest to %s, but goldenDigest %s was recorded with modelVersion %q: bump modelVersion in cache.go and record the new digest", got, goldenDigest, modelVersion)
	}
}
