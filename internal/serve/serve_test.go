package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
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

// TestCacheSpeedup pins what a cache hit costs, in two bounds that do
// not shrink as the solvers get faster: 20 hits do no solver work at
// all — no CG solve, network factorization or FV assembly — and the
// median hit stays under a fixed 1 ms ceiling, about 20× the slowest
// hits seen on a 2-vCPU VM.
func TestCacheSpeedup(t *testing.T) {
	reg := withDefaultRegistry(t)
	s := newTestServer(t, Options{Workers: 1, Registry: reg})
	body := readContract(t, "study.request.json")

	w := postStudy(s, body)
	if w.Code != http.StatusOK || w.Header().Get("X-Aeropack-Cache") != "miss" {
		t.Fatalf("cold: status %d cache %q", w.Code, w.Header().Get("X-Aeropack-Cache"))
	}
	solverWork := func() [3]int64 {
		return [3]int64{
			reg.Counter("linalg_cg_solves_total").Value(),
			reg.Counter("thermal_network_factorizations_total").Value(),
			reg.Histogram("thermal_assembly_seconds", nil).Count(),
		}
	}
	cold := solverWork()
	if cold[0] == 0 || cold[1] == 0 || cold[2] == 0 {
		t.Fatalf("cold study recorded solver work %v, want all three nonzero: counter plumbing broken", cold)
	}

	const hits = 20
	lat := make([]time.Duration, hits)
	for i := range lat {
		t0 := time.Now()
		hw := postStudy(s, body)
		lat[i] = time.Since(t0)
		if hw.Code != http.StatusOK || hw.Header().Get("X-Aeropack-Cache") != "hit" {
			t.Fatalf("hit %d: status %d cache %q", i, hw.Code, hw.Header().Get("X-Aeropack-Cache"))
		}
		if !bytes.Equal(hw.Body.Bytes(), w.Body.Bytes()) {
			t.Fatalf("hit %d: cached body differs from cold body", i)
		}
	}
	if after := solverWork(); after != cold {
		t.Errorf("solver work (CG solves, factorizations, assemblies) went from %v to %v over %d cache hits, want no change", cold, after, hits)
	}
	slices.Sort(lat)
	if median := lat[hits/2]; median > time.Millisecond {
		t.Errorf("median cache hit %v, want under 1 ms", median)
	}
	t.Logf("cache hits: median %v, max %v", lat[hits/2], lat[hits-1])
}

// TestCacheDiskPersistence checks -cache-dir: a second server over the
// same directory serves the first server's results without recompute,
// an entry another model version wrote is never replayed, and an empty
// (torn), truncated or bit-flipped entry is counted as corrupt and
// recomputes to the original bytes instead of replaying garbage.
func TestCacheDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	body := readContract(t, "techmap.request.json")
	key := requestKey(body)
	entry := filepath.Join(dir, modelVersion, key+".json")
	// The unversioned layout an older server wrote: must not be served.
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("{\"stale\": true}\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	s1 := newTestServer(t, Options{Workers: 1, CacheDir: dir})
	w1 := postStudy(s1, body)
	if w1.Code != http.StatusOK || w1.Header().Get("X-Aeropack-Cache") != "miss" {
		t.Fatalf("status %d cache %q, want a recompute past the stale entry", w1.Code, w1.Header().Get("X-Aeropack-Cache"))
	}
	onDisk, err := os.ReadFile(entry)
	if err != nil {
		t.Fatalf("cache entry not persisted: %v", err)
	}
	payload, ok := decodeEntry(onDisk)
	if !ok || !bytes.Equal(payload, w1.Body.Bytes()) {
		t.Error("persisted entry's payload differs from served body")
	}

	s2 := newTestServer(t, Options{Workers: 1, CacheDir: dir})
	w2 := postStudy(s2, body)
	if w2.Code != http.StatusOK || w2.Header().Get("X-Aeropack-Cache") != "hit" {
		t.Fatalf("restart: status %d cache %q, want disk hit", w2.Code, w2.Header().Get("X-Aeropack-Cache"))
	}
	if !bytes.Equal(w2.Body.Bytes(), w1.Body.Bytes()) {
		t.Error("disk-cached body differs from original")
	}

	flipped := append([]byte(nil), onDisk...)
	flipped[len(flipped)-2] ^= 0x01
	for _, tc := range []struct {
		name  string
		entry []byte
	}{
		{"empty", nil},
		{"truncated", onDisk[:len(onDisk)/2]},
		{"flipped byte", flipped},
	} {
		if err := os.WriteFile(entry, tc.entry, 0o644); err != nil {
			t.Fatal(err)
		}
		s3 := newTestServer(t, Options{Workers: 1, CacheDir: dir})
		w3 := postStudy(s3, body)
		if w3.Code != http.StatusOK || w3.Header().Get("X-Aeropack-Cache") != "miss" {
			t.Fatalf("%s entry: status %d cache %q, want recompute", tc.name, w3.Code, w3.Header().Get("X-Aeropack-Cache"))
		}
		if !bytes.Equal(w3.Body.Bytes(), w1.Body.Bytes()) {
			t.Errorf("%s entry: recomputed body differs from original", tc.name)
		}
		if got := s3.reg.Counter("serve_cache_corrupt_total").Value(); got != 1 {
			t.Errorf("%s entry: serve_cache_corrupt_total = %d, want 1", tc.name, got)
		}
		// The recompute overwrote the entry with a valid one.
		if repaired, err := os.ReadFile(entry); err != nil || !bytes.Equal(repaired, onDisk) {
			t.Errorf("%s entry: not rewritten by the recompute (err %v)", tc.name, err)
		}
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
// FV solve: the free-convection board needs three Newton passes of one
// or two CG iterations each, so max_solver_iters 2 trips between passes
// before the field converges.
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
	t.Logf("level-2 CG ran %d iterations before the budget tripped", iters)
	if iters == 0 || iters > 3 {
		t.Errorf("level-2 CG ran %d iterations under a 2-iteration budget, want 1–3", iters)
	}
}

// TestStudyVanishingFilmFails pins how a study ends when its forced-air
// board has all but no heat path: under a channel film of 1e-11 or
// 0.5 W/m²K, below the 1 W/m²K floor, the board fails validation, and
// the study answers 422 study_failed naming the film rather than 200
// with a board near 1e11 °C, or the fdm build's pivot error.  The same
// board under a 55 W/m²K film still solves.
func TestStudyVanishingFilmFails(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	body := func(h string) []byte {
		return []byte(`{"kind": "study", "study": {"name": "film", "length_mm": 160, "width_mm": 230, "thickness_mm": 2.4, ` +
			`"copper": {"layers": 12, "oz": 2, "coverage": 0.7}, "cooling": "forced-air", "channel_h_w_m2k": ` + h +
			`, "channel_air_c": 46, "components": [{"refdes": "U1", "package": "FCBGA-CPU", "power_w": 8, "x_mm": 80, "y_mm": 115}]}}`)
	}
	for _, h := range []string{"1e-11", "0.5"} {
		w := postStudy(s, body(h))
		var serr StudyError
		if err := json.Unmarshal(w.Body.Bytes(), &serr); err != nil {
			t.Fatalf("%s W/m²K film: status %d, body %s: %v", h, w.Code, w.Body.Bytes(), err)
		}
		if w.Code != 422 || serr.Code != CodeStudyFailed || !strings.Contains(serr.Error, "forced-air film") {
			t.Errorf("%s W/m²K film: status %d, body %s; want 422 study_failed naming the film", h, w.Code, w.Body.Bytes())
		}
	}
	if w := postStudy(s, body("55")); w.Code != http.StatusOK {
		t.Errorf("55 W/m²K film: status %d, want 200\nbody: %s", w.Code, w.Body.Bytes())
	}
}

// TestWallClockBudget checks the other budget axis: a wall-clock
// deadline trips a poll and surfaces as 422.  The deadline is taken at
// decode, so the study must outlast it: a sweep of 2,000 points runs
// for far longer than its 1 ms.
func TestWallClockBudget(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	powers := make([]string, 2000)
	for i := range powers {
		powers[i] = strconv.Itoa(10 + i%100)
	}
	body := []byte(`{"kind": "sweep", "budget": {"max_wall_ms": 1}, "sweep": {"use_lhp": true, "powers_w": [` + strings.Join(powers, ", ") + `]}}`)
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

// TestArticleDeltaTAtConcurrent calls one served article's thermal model
// from two goroutines at once, as a campaign's climatic and
// thermal-shock tests may: the COSEE solve behind it must only read the
// configuration both share.  Run it under -race.
func TestArticleDeltaTAtConcurrent(t *testing.T) {
	var req StudyRequest
	if err := json.Unmarshal(readContract(t, "qualification.request.json"), &req); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	art, serr := req.Qualification.Article.article(ctx)
	if serr != nil {
		t.Fatal(serr)
	}
	fresh, serr := req.Qualification.Article.article(ctx)
	if serr != nil {
		t.Fatal(serr)
	}
	want, err := fresh.DeltaTAt(art.PowerW)
	if err != nil {
		t.Fatal(err)
	}
	var got [2]float64
	var errs [2]error
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = art.DeltaTAt(art.PowerW)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil || math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Errorf("goroutine %d: ΔT = %v (%v), want %v", i, got[i], errs[i], want)
		}
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

// TestCloseJoinsAsyncJobs checks Close's join: an async job held in the
// admission queue past a one-second window keeps Close waiting, and
// once Close returns the goroutine count is back where it started within
// that second.  A Close that returned without waiting would leave the
// job running through the whole window.
func TestCloseJoinsAsyncJobs(t *testing.T) {
	const window = time.Second
	s, err := NewServer(Options{Workers: 1, MaxInflight: 1, MaxQueue: 1, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	s.sem <- struct{}{} // occupy the only slot, so the job queues
	time.AfterFunc(window+window/5, s.release)
	if w := postStudy(s, []byte(`{"kind": "sweep", "async": true, "sweep": {"powers_w": [40]}}`)); w.Code != http.StatusAccepted {
		t.Fatalf("status = %d, want 202\nbody: %s", w.Code, w.Body.Bytes())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(window)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines a second after Close, %d before the job", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestJobRetention checks finished-job retention and its three answers:
// under a budget that fits two finished bodies, the third job to finish
// drops the first, whose routes then answer 410 expired (the document
// pinned here byte for byte), while the two kept jobs answer 200 and an
// id the server never issued, or a non-canonical spelling of an issued
// one, stays 404 not_found.
func TestJobRetention(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	body := readContract(t, "async-sweep.request.json")
	submit := func(id string) []byte {
		t.Helper()
		if w := postStudy(s, body); w.Code != http.StatusAccepted {
			t.Fatalf("%s: status %d, want 202", id, w.Code)
		}
		waitJobDone(t, s, id)
		res := getPath(s, "/v1/results/"+id)
		if res.Code != http.StatusOK {
			t.Fatalf("%s: result status %d, want 200", id, res.Code)
		}
		return res.Body.Bytes()
	}
	result := submit("j1")
	// Every job answers the same cached bytes, so two fit exactly.
	s.mu.Lock()
	s.jobBudget = 2 * (len("j1") + len(result))
	s.mu.Unlock()
	submit("j2")
	if got := s.reg.Counter("serve_jobs_expired_total").Value(); got != 0 {
		t.Fatalf("serve_jobs_expired_total = %d with two jobs within the budget, want 0", got)
	}
	submit("j3")
	if got := s.reg.Counter("serve_jobs_expired_total").Value(); got != 1 {
		t.Errorf("serve_jobs_expired_total = %d, want 1", got)
	}

	want := "{\n  \"schema\": \"aeropack-error/v1\",\n  \"error\": \"serve: job \\\"j1\\\" has expired\",\n  \"code\": \"expired\"\n}\n"
	for _, route := range []string{"/v1/jobs/j1", "/v1/results/j1"} {
		w := getPath(s, route)
		if w.Code != http.StatusGone || w.Body.String() != want {
			t.Errorf("GET %s = %d %q, want 410 %q", route, w.Code, w.Body.String(), want)
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s: Content-Type %q", route, ct)
		}
	}
	for _, id := range []string{"j2", "j3"} {
		if w := getPath(s, "/v1/results/"+id); w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), result) {
			t.Errorf("GET /v1/results/%s = %d, want 200 with the kept body", id, w.Code)
		}
	}
	for _, id := range []string{"j4", "j0", "j01", "nope"} {
		w := getPath(s, "/v1/jobs/"+id)
		var serr StudyError
		if err := json.Unmarshal(w.Body.Bytes(), &serr); err != nil || w.Code != http.StatusNotFound || serr.Code != CodeNotFound {
			t.Errorf("GET /v1/jobs/%s = %d %s, want 404 not_found", id, w.Code, w.Body.Bytes())
		}
	}

	// A budget smaller than any body keeps the newest job alone.
	s.mu.Lock()
	s.jobBudget = 1
	s.mu.Unlock()
	submit("j4")
	for id, code := range map[string]int{"j2": http.StatusGone, "j3": http.StatusGone, "j4": http.StatusOK} {
		if w := getPath(s, "/v1/jobs/"+id); w.Code != code {
			t.Errorf("under a 1-byte budget, GET /v1/jobs/%s = %d, want %d", id, w.Code, code)
		}
	}
}
