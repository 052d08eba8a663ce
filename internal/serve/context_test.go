package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"aeropack/internal/obs"
)

// withDefaultRegistry installs a fresh process-default registry for the
// test: the engines count their solver work there.
func withDefaultRegistry(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	prev := obs.SetDefault(reg)
	t.Cleanup(func() { obs.SetDefault(prev) })
	return reg
}

// postStudyCtx is postStudy for a client whose connection lives as long
// as ctx.
func postStudyCtx(ctx context.Context, s *Server, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest("POST", "/v1/studies", bytes.NewReader(body)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

// sweepBody is an unbudgeted LHP sweep of n points.
func sweepBody(n int, keepGoing bool) []byte {
	powers := make([]string, n)
	for i := range powers {
		powers[i] = strconv.Itoa(10 + i%100)
	}
	kg := ""
	if keepGoing {
		kg = `"keep_going": true, `
	}
	return []byte(`{"kind": "sweep", ` + kg + `"sweep": {"use_lhp": true, "powers_w": [` + strings.Join(powers, ", ") + `]}}`)
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// inflightHas reports whether key has a computation in flight.
func (s *Server) inflightHas(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight[key] != nil
}

// receive waits up to 10 s for the handler running behind done.
func receive(t *testing.T, done <-chan *httptest.ResponseRecorder) *httptest.ResponseRecorder {
	t.Helper()
	select {
	case w := <-done:
		return w
	case <-time.After(10 * time.Second):
		t.Fatal("handler still running 10 s after its client left")
		return nil
	}
}

// TestDisconnectStopsCompute: a client that leaves during a 2,000-point
// unbudgeted sweep stops its computation.  Once the call has left the
// in-flight map (its context is canceled), each worker factors at most
// the one network it was already past its poll for; the sweep never
// finishes, nothing is cached and the admission slot is free again.
func TestDisconnectStopsCompute(t *testing.T) {
	reg := withDefaultRegistry(t)
	const workers = 2
	s := newTestServer(t, Options{Workers: workers, MaxInflight: 1, Registry: reg})
	body := sweepBody(2000, false)
	key := requestKey(body)
	solves := reg.Counter("cosee_solves_total")
	factorizations := reg.Counter("thermal_network_factorizations_total")

	ctx, leave := context.WithCancel(context.Background())
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postStudyCtx(ctx, s, body) }()
	waitFor(t, "the sweep to start", func() bool { return solves.Value() >= 20 })
	leave()
	waitFor(t, "the call to leave the in-flight map", func() bool { return !s.inflightHas(key) })
	f0 := factorizations.Value()
	receive(t, done)

	if extra := factorizations.Value() - f0; extra > workers {
		t.Errorf("%d network factorizations after the cancellation, want at most one per worker (%d)", extra, workers)
	}
	if n := solves.Value(); n >= 2000 {
		t.Errorf("the sweep solved all %d points after its client left", n)
	}
	if n := s.cache.len(); n != 0 {
		t.Errorf("cache holds %d entries after a canceled computation, want 0", n)
	}
	if n := len(s.sem); n != 0 {
		t.Errorf("%d admission slots still held after the handler returned, want 0", n)
	}
}

// TestQueuedRequestLeavesOnDisconnect: a request waiting for an
// admission slot leaves the queue when its client goes, without taking
// a slot.
func TestQueuedRequestLeavesOnDisconnect(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, MaxInflight: 1, MaxQueue: 4})
	s.sem <- struct{}{} // hold the only slot
	defer func() { <-s.sem }()
	body := readContract(t, "techmap.request.json")
	ctx, leave := context.WithCancel(context.Background())
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postStudyCtx(ctx, s, body) }()
	waitFor(t, "the request to queue", func() bool { return s.waiting.Load() == 1 })
	leave()
	receive(t, done)
	if n := s.waiting.Load(); n != 0 {
		t.Errorf("%d requests still queued, want 0", n)
	}
	if s.inflightHas(requestKey(body)) {
		t.Error("the abandoned call is still in flight")
	}
	if n := len(s.sem); n != 1 {
		t.Errorf("%d admission slots held, want only the test's", n)
	}
}

// TestDedupFollowerOutlivesLeader: when the leader of a deduplicated
// computation disconnects, the computation goes on for the follower,
// which gets the complete 200 body.
func TestDedupFollowerOutlivesLeader(t *testing.T) {
	s := newTestServer(t, Options{Workers: 2, MaxInflight: 1})
	body := readContract(t, "sweep.request.json")
	key := requestKey(body)
	s.sem <- struct{}{} // park the leader in the admission queue

	ctx, leave := context.WithCancel(context.Background())
	leaderDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { leaderDone <- postStudyCtx(ctx, s, body) }()
	waitFor(t, "the leader to queue", func() bool { return s.waiting.Load() == 1 && s.inflightHas(key) })
	followerDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { followerDone <- postStudy(s, body) }()
	waitFor(t, "the follower to join", func() bool { return s.reg.Counter("serve_dedup_hits_total").Value() == 1 })
	leave()
	<-s.sem // let the computation in

	w := receive(t, followerDone)
	receive(t, leaderDone)
	if w.Code != http.StatusOK || w.Header().Get("X-Aeropack-Cache") != "dedup" {
		t.Fatalf("follower: status %d cache %q\nbody: %s", w.Code, w.Header().Get("X-Aeropack-Cache"), w.Body.Bytes())
	}
	checkGolden(t, "sweep.response.json", w.Body.Bytes())
}

// TestCanceledKeepGoingNotCached: a keep-going sweep canceled mid-way
// produces a partial 200 body that is never cached, so resending the
// same bytes recomputes the complete response.
func TestCanceledKeepGoingNotCached(t *testing.T) {
	reg := withDefaultRegistry(t)
	s := newTestServer(t, Options{Workers: 2, Registry: reg})
	body := sweepBody(2000, true)
	solves := reg.Counter("cosee_solves_total")
	ctx, leave := context.WithCancel(context.Background())
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postStudyCtx(ctx, s, body) }()
	waitFor(t, "the sweep to start", func() bool { return solves.Value() >= 20 })
	leave()
	receive(t, done)
	if n := s.cache.len(); n != 0 {
		t.Fatalf("cache holds %d entries after a canceled keep-going sweep, want 0", n)
	}

	w := postStudy(s, body)
	if w.Code != http.StatusOK || w.Header().Get("X-Aeropack-Cache") != "miss" {
		t.Fatalf("resend: status %d cache %q, want a recompute", w.Code, w.Header().Get("X-Aeropack-Cache"))
	}
	var resp StudyResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Partial || len(resp.Errors) != 0 || len(resp.Sweep) != 2000 {
		t.Fatalf("resend: partial %t, %d errors, %d points; want the complete sweep", resp.Partial, len(resp.Errors), len(resp.Sweep))
	}
	if s.cache.len() != 1 {
		t.Errorf("the complete response was not cached")
	}
}

// TestBudgetReachesEveryKind: a one-poll budget trips every study kind
// that runs a solver, whichever solver path it takes — the guarantee
// that no solve path runs outside its request's budget.  The study row
// uses the free-convection board: a linear board's level 2 converges in
// one CG iteration, before CG polls.
func TestBudgetReachesEveryKind(t *testing.T) {
	onePoll := func(t *testing.T, contract string, edit func(doc map[string]any)) []byte {
		var doc map[string]any
		if err := json.Unmarshal(readContract(t, contract), &doc); err != nil {
			t.Fatal(err)
		}
		doc["budget"] = map[string]any{"max_solver_iters": 1}
		if edit != nil {
			edit(doc)
		}
		body, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	cases := []struct {
		name     string
		contract string
		edit     func(doc map[string]any)
	}{
		{"fig10", "fig10.request.json", nil},
		{"sweep", "sweep.request.json", nil},
		{"qualification", "qualification.request.json", nil},
		{"extended-qualification", "qualification.request.json", func(doc map[string]any) {
			doc["qualification"].(map[string]any)["extended"] = true
		}},
		{"study", "study-budget-exceeded.request.json", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := newTestServer(t, Options{Workers: 2})
			w := postStudy(s, onePoll(t, c.contract, c.edit))
			if w.Code != 422 || !bytes.Contains(w.Body.Bytes(), []byte(`"code": "budget_exceeded"`)) {
				t.Errorf("status = %d, want 422 budget_exceeded\nbody: %s", w.Code, w.Body.Bytes())
			}
		})
	}
}
