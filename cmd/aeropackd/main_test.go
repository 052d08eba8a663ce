package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestAeropackdSmoke is the end-to-end gate verify.sh runs: build the
// real binary, boot it on a free port, submit a small study both sync
// and async, poll the job to completion, scrape /metrics, and check the
// process exits cleanly on SIGTERM.
func TestAeropackdSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("binary smoke test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "aeropackd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "1", "-cache-dir", t.TempDir())
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	started := false
	defer func() {
		if !started {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
	}()

	// The startup banner carries the resolved :0 address.
	sc := bufio.NewScanner(stderr)
	var base string
	for sc.Scan() {
		line := sc.Text()
		if addr, ok := strings.CutPrefix(line, "aeropackd: listening on "); ok {
			base = "http://" + strings.TrimSpace(addr)
			break
		}
	}
	if base == "" {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		t.Fatalf("no listening banner on stderr (scan err: %v)", sc.Err())
	}

	// Sync study round-trip.
	body := postJSON(t, base+"/v1/studies", `{"kind": "techmap", "techmap": {"powers_w": [10], "fluxes_w_cm2": [1]}}`, http.StatusOK)
	if !bytes.Contains(body, []byte(`"aeropack-study-response/v1"`)) {
		t.Errorf("sync response missing schema: %s", body)
	}

	// Async round-trip: submit, poll the job, fetch the result.
	ticket := postJSON(t, base+"/v1/studies", `{"kind": "techmap", "async": true, "techmap": {"powers_w": [10], "fluxes_w_cm2": [1]}}`, http.StatusAccepted)
	var tk struct {
		JobURL    string `json:"job_url"`
		ResultURL string `json:"result_url"`
	}
	if err := json.Unmarshal(ticket, &tk); err != nil {
		t.Fatalf("decoding job ticket: %v\n%s", err, ticket)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		jb := getJSON(t, base+tk.JobURL)
		if bytes.Contains(jb, []byte(`"done"`)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %s", jb)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The async request bytes differ (the "async" flag is part of the
	// document), so request_sha256 differs; everything else must match.
	if res := getJSON(t, base+tk.ResultURL); !bytes.Equal(stripSHA(res), stripSHA(body)) {
		t.Errorf("async result differs from sync body:\nsync:  %s\nasync: %s", body, res)
	}

	// Ops routes share the listener; the counters must show our traffic,
	// and the memory cache's bound is exported from start-up: two small
	// bodies held, none evicted.
	metrics := getJSON(t, base+"/metrics")
	for _, want := range []string{"serve_requests_total 2", "serve_jobs_total 1", "\nserve_cache_bytes ", "serve_cache_evictions_total 0"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	// Clean shutdown on SIGTERM.
	started = true
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	rest, _ := io.ReadAll(stderr)
	if err := cmd.Wait(); err != nil {
		t.Fatalf("aeropackd exited dirty: %v\nstderr: %s", err, rest)
	}
	if !strings.Contains(string(rest), "shutting down") {
		t.Errorf("no shutdown banner on stderr: %s", rest)
	}
}

// stripSHA drops the request_sha256 line so documents for distinct
// request bytes can be compared on their payload.
func stripSHA(body []byte) []byte {
	var out [][]byte
	for _, line := range bytes.Split(body, []byte("\n")) {
		if !bytes.Contains(line, []byte(`"request_sha256"`)) {
			out = append(out, line)
		}
	}
	return bytes.Join(out, []byte("\n"))
}

func postJSON(t *testing.T, url, body string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d\n%s", url, resp.StatusCode, wantStatus, b)
	}
	return b
}

func getJSON(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", url, resp.StatusCode, b)
	}
	return b
}
