package obshttp

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"aeropack/internal/obs"
)

// get fetches a path from ts and returns status, content type and body.
func get(t *testing.T, ts *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

func TestHandlerRoutes(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("cosee_solves_total").Add(7)
	reg.Gauge("runtime_goroutines").Set(12)
	reg.Histogram("linalg_residual", obs.ExpBuckets(1e-12, 10, 6)).Observe(1e-9)
	rec := obs.NewRecorder(16)
	rec.Record("solver", "cg", obs.Attr{Key: "iterations", Value: "42"})
	rec.Record("fallback", "gmres")
	board := obs.NewBoard()
	p := board.Begin("fig10", 10)
	p.Step(4)

	ts := httptest.NewServer(NewHandler(Options{Registry: reg, Recorder: rec, Board: board}))
	defer ts.Close()

	status, ctype, body := get(t, ts, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status = %d", status)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type = %q", ctype)
	}
	for _, want := range []string{
		"# TYPE cosee_solves_total counter",
		"cosee_solves_total 7",
		"# TYPE runtime_goroutines gauge",
		"# TYPE linalg_residual histogram",
		`linalg_residual_bucket{le="+Inf"} 1`,
		"linalg_residual_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	status, ctype, body = get(t, ts, "/healthz")
	if status != http.StatusOK || !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("/healthz status=%d ctype=%q", status, ctype)
	}
	var health struct {
		Status        string  `json:"status"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		Goroutines    int     `json:"goroutines"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("/healthz not JSON: %v\n%s", err, body)
	}
	if health.Status != "ok" || health.Goroutines < 1 || health.UptimeSeconds < 0 {
		t.Fatalf("/healthz payload = %+v", health)
	}

	status, _, body = get(t, ts, "/events")
	if status != http.StatusOK {
		t.Fatalf("/events status = %d", status)
	}
	var events struct {
		Schema string `json:"schema"`
		Events []struct {
			Kind string `json:"kind"`
			Name string `json:"name"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("/events not JSON: %v\n%s", err, body)
	}
	if events.Schema != "aeropack-events/v1" || len(events.Events) != 2 {
		t.Fatalf("/events payload = %+v", events)
	}
	if events.Events[0].Kind != "solver" || events.Events[1].Kind != "fallback" {
		t.Fatalf("/events order = %+v", events.Events)
	}

	// ?n= limits the tail; a bad n is a 400.
	_, _, body = get(t, ts, "/events?n=1")
	if err := json.Unmarshal([]byte(body), &events); err != nil || len(events.Events) != 1 {
		t.Fatalf("/events?n=1 = %+v (err %v)", events, err)
	}
	if status, _, _ = get(t, ts, "/events?n=bogus"); status != http.StatusBadRequest {
		t.Fatalf("/events?n=bogus status = %d, want 400", status)
	}

	status, _, body = get(t, ts, "/progress")
	if status != http.StatusOK {
		t.Fatalf("/progress status = %d", status)
	}
	var progress struct {
		Schema  string `json:"schema"`
		Studies []struct {
			Name    string  `json:"name"`
			Percent float64 `json:"percent"`
		} `json:"studies"`
	}
	if err := json.Unmarshal([]byte(body), &progress); err != nil {
		t.Fatalf("/progress not JSON: %v\n%s", err, body)
	}
	if progress.Schema != "aeropack-progress/v1" || len(progress.Studies) != 1 {
		t.Fatalf("/progress payload = %+v", progress)
	}
	if progress.Studies[0].Name != "fig10" || progress.Studies[0].Percent != 40 {
		t.Fatalf("/progress study = %+v", progress.Studies[0])
	}

	if status, _, _ = get(t, ts, "/nope"); status != http.StatusNotFound {
		t.Fatalf("/nope status = %d, want 404", status)
	}
}

func TestHandlerNilSources(t *testing.T) {
	ts := httptest.NewServer(NewHandler(Options{}))
	defer ts.Close()
	for _, path := range []string{"/metrics", "/healthz", "/events", "/progress"} {
		status, _, body := get(t, ts, path)
		if status != http.StatusOK {
			t.Fatalf("%s with nil sources: status %d body %q", path, status, body)
		}
	}
	// /events and /progress stay schema-stamped even with nothing wired.
	_, _, body := get(t, ts, "/events")
	if !strings.Contains(body, "aeropack-events/v1") {
		t.Fatalf("/events nil-source body = %s", body)
	}
	_, _, body = get(t, ts, "/progress")
	if !strings.Contains(body, `"studies": []`) {
		t.Fatalf("/progress nil-source body = %s", body)
	}
}

func TestServerStartClose(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("x_total").Inc()
	srv, err := Start("127.0.0.1:0", NewHandler(Options{Registry: reg}))
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if addr == "" || !strings.Contains(addr, ":") {
		t.Fatalf("Addr = %q", addr)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("GET live server: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "x_total 1") {
		t.Fatalf("live /metrics = %d %q", resp.StatusCode, body)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("server still answering after Close")
	}

	var nilSrv *Server
	if nilSrv.Addr() != "" || nilSrv.Close() != nil {
		t.Fatal("nil Server methods misbehaved")
	}
}

func TestStartBadAddr(t *testing.T) {
	if _, err := Start("definitely-not-an-addr", nil); err == nil {
		t.Fatal("Start on a bad address should error")
	}
}

func TestEnableOps(t *testing.T) {
	// EnableOps installs globals only where disabled; run with everything
	// disabled and restore afterwards.
	prevReg := obs.SetDefault(nil)
	prevRec := obs.SetRecorder(nil)
	prevBoard := obs.SetBoard(nil)
	t.Cleanup(func() {
		obs.SetDefault(prevReg)
		obs.SetRecorder(prevRec)
		obs.SetBoard(prevBoard)
	})

	ops, err := EnableOps("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ops.Close()
	if obs.Default() == nil || obs.CurrentRecorder() == nil || obs.CurrentBoard() == nil {
		t.Fatal("EnableOps did not install global observability state")
	}

	// The sampler's synchronous first tick means /metrics already has
	// runtime gauges.
	resp, err := http.Get("http://" + ops.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "runtime_goroutines") {
		t.Fatalf("/metrics missing runtime gauges:\n%s", body)
	}

	// Events recorded after enabling show up on /events.
	obs.CurrentRecorder().Record("degrade", "ic0", obs.Attr{Key: "to", Value: "jacobi"})
	resp, err = http.Get("http://" + ops.Addr() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"degrade"`) {
		t.Fatalf("/events missing recorded event:\n%s", body)
	}

	if err := ops.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	var nilOps *Ops
	if nilOps.Addr() != "" || nilOps.Close() != nil {
		t.Fatal("nil Ops methods misbehaved")
	}
}

func TestEnableOpsReusesExistingRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("preexisting_total").Add(3)
	prevReg := obs.SetDefault(reg)
	prevRec := obs.SetRecorder(nil)
	prevBoard := obs.SetBoard(nil)
	t.Cleanup(func() {
		obs.SetDefault(prevReg)
		obs.SetRecorder(prevRec)
		obs.SetBoard(prevBoard)
	})
	ops, err := EnableOps("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ops.Close()
	if obs.Default() != reg {
		t.Fatal("EnableOps replaced an already-installed registry")
	}
	resp, err := http.Get("http://" + ops.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "preexisting_total 3") {
		t.Fatalf("/metrics lost preexisting counter:\n%s", body)
	}
}

// TestServerCloseJoins checks Close's join: after a served request and
// Close, the goroutine count is back where it was before Start within a
// second.
func TestServerCloseJoins(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := Start("127.0.0.1:0", http.NotFoundHandler())
	if err != nil {
		t.Fatal(err)
	}
	tr := &http.Transport{}
	resp, err := (&http.Client{Transport: tr}).Get("http://" + s.Addr() + "/")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	tr.CloseIdleConnections()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines a second after Close, %d before Start", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
