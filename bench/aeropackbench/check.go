package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"

	"aeropack/bench/workload"
	"aeropack/internal/obs"
	"aeropack/internal/serve"
)

// envelopePrefix is how aeropackd's indented encoder starts a response
// to r.  Matching it is the fast path of checkEnvelope; a response laid
// out differently falls back to decoding.
func envelopePrefix(r *workload.Request) []byte {
	return []byte(`{
  "schema": "` + serve.ResponseSchema + `",
  "kind": ` + strconv.Quote(r.Kind) + `,
  "request_sha256": "` + r.SHA256 + `"`)
}

// checkEnvelope checks that body is a study response to r: the response
// schema, r's kind, and the sha256 of r's body as request_sha256.
func checkEnvelope(r *workload.Request, body []byte) error {
	if bytes.HasPrefix(body, envelopePrefix(r)) {
		return nil
	}
	var env struct {
		Schema        string `json:"schema"`
		Kind          string `json:"kind"`
		RequestSHA256 string `json:"request_sha256"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("response is not JSON: %v", err)
	}
	switch {
	case env.Schema != serve.ResponseSchema:
		return fmt.Errorf("response schema %q, want %q", env.Schema, serve.ResponseSchema)
	case env.Kind != r.Kind:
		return fmt.Errorf("response kind %q, want %q", env.Kind, r.Kind)
	case env.RequestSHA256 != r.SHA256:
		return fmt.Errorf("response request_sha256 %q, want %q", env.RequestSHA256, r.SHA256)
	}
	return nil
}

// minSamples is the number of responses per run that are recomputed
// in-process and compared with the served ones.
const minSamples = 32

// inProcess returns a study server configured like the benchmarked
// aeropackd, with a private registry.
func inProcess(reg *obs.Registry) (*serve.Server, error) {
	return serve.NewServer(serve.Options{Workers: 2, MaxInflight: 2, MaxQueue: 64, Registry: reg})
}

// serveOnce sends one study body to an in-process server.
func serveOnce(srv http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/studies", bytes.NewReader(body)))
	return rec
}

// recompute sends every sample's request to a fresh in-process server,
// from clients goroutines, and returns a description of each sample
// whose envelope is wrong or whose body differs from the recomputed one.
func recompute(samples []sample) ([]string, error) {
	srv, err := inProcess(obs.NewRegistry())
	if err != nil {
		return nil, err
	}
	defer func() { _ = srv.Close() }() // waits for async jobs; none are started
	bad := make([]string, len(samples))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(samples); i += clients {
				s := samples[i]
				if err := checkEnvelope(s.req, s.body); err != nil {
					bad[i] = err.Error()
					continue
				}
				rec := serveOnce(srv, s.req.Body)
				if !sameResponse(s.req.Kind, s.body, rec.Body.Bytes()) {
					bad[i] = fmt.Sprintf("%s response (cache %q) differs from its in-process recomputation (status %d)", s.req.Kind, s.cache, rec.Code)
				}
			}
		}(c)
	}
	wg.Wait()
	var out []string
	for _, b := range bad {
		if b != "" {
			out = append(out, b)
		}
	}
	return out, nil
}

// fig10Bands are the E5 headline bands of bench_test.go: the Fig. 10
// numbers every aluminium-structure response must reproduce.
var fig10Bands = []struct {
	name   string
	lo, hi float64
	get    func(*serve.Fig10Result) *float64
}{
	{"capability_nolhp_w", 34, 47, func(f *serve.Fig10Result) *float64 { return f.CapabilityNoLHPW }},
	{"capability_lhp_w", 88, 114, func(f *serve.Fig10Result) *float64 { return f.CapabilityLHPW }},
	{"improvement_pct", 110, 190, func(f *serve.Fig10Result) *float64 { return f.ImprovementPct }},
	{"cooling_at_40w_k", 24, 40, func(f *serve.Fig10Result) *float64 { return f.CoolingAt40WK }},
	{"lhp_power_at_100w_w", 45, 70, func(f *serve.Fig10Result) *float64 { return f.LHPPowerAt100WW }},
}

// checkFig10 checks one Fig. 10 response body against the E5 bands,
// including the ≤5 % effect of the 22° tilt.
func checkFig10(body []byte) error {
	var resp serve.StudyResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding Fig. 10 response: %v", err)
	}
	f := resp.Fig10
	if f == nil {
		return fmt.Errorf("Fig. 10 response has no fig10 section")
	}
	for _, b := range fig10Bands {
		v := b.get(f)
		if v == nil || !(*v > b.lo && *v < b.hi) {
			return fmt.Errorf("Fig. 10 %s = %v, outside the E5 band (%g, %g)", b.name, deref(v), b.lo, b.hi)
		}
	}
	if f.CapabilityTiltW == nil || math.Abs(*f.CapabilityTiltW / *f.CapabilityLHPW - 1) >= 0.05 {
		return fmt.Errorf("Fig. 10 tilt capability %v is not within 5 %% of %v", deref(f.CapabilityTiltW), *f.CapabilityLHPW)
	}
	return nil
}

func deref(v *float64) any {
	if v == nil {
		return "null"
	}
	return *v
}
