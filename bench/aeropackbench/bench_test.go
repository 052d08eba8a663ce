package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aeropack/bench/workload"
	"aeropack/internal/obs"
)

// flipDigit changes the first digit of field's value in body.
func flipDigit(t *testing.T, body []byte, field string) []byte {
	t.Helper()
	key := []byte(`"` + field + `": `)
	i := bytes.Index(body, key)
	if i < 0 {
		t.Fatalf("no %s in %s", field, body)
	}
	out := bytes.Clone(body)
	for j := i + len(key); j < len(out); j++ {
		if c := out[j]; c >= '0' && c <= '9' {
			out[j] = '0' + (c-'0'+1)%10
			return out
		}
	}
	t.Fatalf("no digit after %s", field)
	return nil
}

// The output checks pass an untouched response and count each tampered
// one as a failure: a flipped digit, a wrong request_sha256 and a wrong
// kind, on a bitwise-compared kind and on a study, which is compared
// within studyTol.
func TestCheckerCountsTampering(t *testing.T) {
	srv, err := inProcess(obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	field := map[string]string{"techmap": "power_w", "study": "max_board_c"}
	var untouched, tampered []sample
	for _, r := range workload.Pool(1) {
		f, ok := field[r.Kind]
		if !ok {
			continue
		}
		delete(field, r.Kind)
		body := serveOnce(srv, r.Body).Body.Bytes()
		untouched = append(untouched, sample{req: &r, body: body})
		wrongSHA := bytes.Replace(body, []byte(r.SHA256), []byte(strings.Repeat("0", 64)), 1)
		wrongKind := bytes.Replace(body, []byte(`"kind": "`+r.Kind+`"`), []byte(`"kind": "sweep"`), 1)
		for _, b := range [][]byte{flipDigit(t, body, f), wrongSHA, wrongKind} {
			if bytes.Equal(b, body) {
				t.Fatalf("tampering left the %s response unchanged", r.Kind)
			}
			tampered = append(tampered, sample{req: &r, body: b})
		}
	}
	if len(untouched) != 2 {
		t.Fatalf("pool lacks a techmap or a study body")
	}
	if bad, err := recompute(untouched); err != nil || len(bad) != 0 {
		t.Errorf("untouched responses failed the checks: %v %v", bad, err)
	}
	bad, err := recompute(tampered)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != len(tampered) {
		t.Errorf("%d of %d tampered responses caught: %v", len(bad), len(tampered), bad)
	}
	for _, s := range tampered[1:3] {
		if checkEnvelope(s.req, s.body) == nil {
			t.Errorf("envelope check passed a tampered %s response", s.req.Kind)
		}
	}
}

// benchmarkMetrics reads the metric names and units BENCHMARK.json
// declares for one mode.
func benchmarkMetrics(t *testing.T, repo, key string) map[string]string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(doc[key], &ms); err != nil || len(ms) == 0 {
		t.Fatalf("BENCHMARK.json %s: %v", key, err)
	}
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

func checkEmitted(t *testing.T, name string, res *result, want map[string]string) {
	t.Helper()
	for m, unit := range want {
		got, ok := res.Metrics[m]
		if !ok || got.Unit != unit {
			t.Errorf("%s: metric %s emitted as %+v (present %t), want unit %s", name, m, got, ok, unit)
		}
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", name, len(res.Metrics), len(want))
	}
}

// TestBenchSmoke builds aeropackd, runs every workload at a tiny request
// count and one two-body traced replay, and checks that every metric
// BENCHMARK.json names is emitted with its unit.  Under -race on two
// cores it takes 10–18 s, most of it in the race-instrumented replay's
// board solves.
func TestBenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs aeropackd")
	}
	repo, err := findRepo()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	// Seed 12 draws small first boards, which keeps the race-instrumented
	// recomputation and replay short.
	cfg := config{repo: repo, daemon: filepath.Join(tmp, "aeropackd"), seed: 12, seconds: 1, count: 2, setupRuns: 1}
	if err := buildDaemon(repo, cfg.daemon); err != nil {
		t.Fatal(err)
	}
	e2e := benchmarkMetrics(t, repo, "end_to_end")
	for _, spec := range workload.Specs {
		res, err := runWorkload(cfg, spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
			t.Errorf("%s: correct %t, %d of %d failed: %v", spec.Name, res.Correct, res.Failed, res.Attempted, res.Problems)
		}
		if len(res.ResponsesSHA256) != 64 {
			t.Errorf("%s: responses digest %q", spec.Name, res.ResponsesSHA256)
		}
		checkEmitted(t, spec.Name, res, e2e)
	}

	cfg.trace, cfg.traceDir = true, tmp
	spec, _ := workload.Lookup(workload.BoardLinear)
	spec.Replay = 2
	res, err := runWorkload(cfg, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced run failed its checks: %v", res.Problems)
	}
	checkEmitted(t, "traced "+spec.Name, res, benchmarkMetrics(t, repo, "per_layer"))
	for _, m := range []string{"core.level2_ms", "thermal.assemble_ms", "engine.ms", "serve.request_ms"} {
		if res.Metrics[m].Value <= 0 {
			t.Errorf("traced %s is %v, want > 0", m, res.Metrics[m].Value)
		}
	}
	b, err := os.ReadFile(filepath.Join(tmp, "trace-"+spec.Name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &trace); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	names := map[string]bool{}
	for _, e := range trace.TraceEvents {
		names[e.Name] = true
		if e.Args["request_id"] == "" {
			t.Errorf("span %s carries no request id", e.Name)
		}
	}
	for _, n := range []string{"serve.request", "engine.study", "core.level1", "core.level2", "core.level3"} {
		if !names[n] {
			t.Errorf("trace has no %s span (has %v)", n, names)
		}
	}
}
