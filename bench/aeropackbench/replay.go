package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"time"

	"aeropack/bench/workload"
	"aeropack/internal/core"
	"aeropack/internal/obs"
	"aeropack/internal/serve"
)

// span is one timed call of the traced replay.
type span struct {
	name       string
	req        string // request id
	id, parent int    // parent 0 is a root
	start, dur time.Duration
}

// tracer keeps the replay's spans in memory until the run ends.  A nil
// tracer records nothing, which is the untraced pass.
type tracer struct {
	t0    time.Time
	spans []span
}

// begin opens a span named name under parent and returns its id (0 on
// a nil tracer).
func (t *tracer) begin(name, req string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	if t.t0.IsZero() {
		t.t0 = now
	}
	t.spans = append(t.spans, span{name: name, req: req, id: len(t.spans) + 1, parent: parent, start: now.Sub(t.t0)})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[id-1]
	s.dur = time.Since(t.t0) - s.start
	return s.dur
}

// do runs fn in a span and returns the span's duration.
func (t *tracer) do(name, req string, parent int, fn func()) time.Duration {
	id := t.begin(name, req, parent)
	fn()
	return t.end(id)
}

// chrome renders the spans as Chrome trace-event JSON.
func (t *tracer) chrome() any {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur.Nanoseconds()) / 1e3,
			Args: map[string]string{
				"request_id": s.req,
				"span_id":    fmt.Sprint(s.id),
				"parent_id":  fmt.Sprint(s.parent),
			},
		})
	}
	return map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}
}

// bodyTimes are one replayed body's span durations in milliseconds.
type bodyTimes struct {
	kind         string
	request, hit float64 // hit < 0 when the body is budgeted, so never cached
	engine       float64
	level        [3]float64 // study bodies only
	assemble     float64    // level-2 FV assembly time, study bodies only
}

// replayStats is the outcome of a traced replay.
type replayStats struct {
	bodies           []bodyTimes
	traced, untraced time.Duration
	problems         []string
}

// replay runs the first n bodies of reqs (each distinct body once)
// serially in-process, twice: once with spans recorded by tr and once
// without, against two fresh in-process servers.  Which pass goes first,
// and the order of a body's steps, alternate from body to body.  The
// traced pass's span durations are the per-layer timings; the passes'
// total times give the tracing overhead.
func replay(reqs []workload.Request, n int, tr *tracer) (*replayStats, error) {
	var bodies []*workload.Request
	seen := map[string]bool{}
	for i := 0; i < len(reqs) && i < n; i++ {
		if !seen[reqs[i].SHA256] {
			seen[reqs[i].SHA256] = true
			bodies = append(bodies, &reqs[i])
		}
	}
	// Like aeropackd, the replay runs with a metrics registry installed,
	// which also lets it read the level-2 assembly time.
	reg := obs.NewRegistry()
	defer obs.SetDefault(obs.SetDefault(reg))
	traced, err := inProcess(reg)
	if err != nil {
		return nil, err
	}
	defer func() { _ = traced.Close() }() // waits for async jobs; none are started
	untraced, err := inProcess(reg)
	if err != nil {
		return nil, err
	}
	defer func() { _ = untraced.Close() }()

	st := &replayStats{}
	for k, r := range bodies {
		id := fmt.Sprintf("r%d", k)
		for pass := 0; pass < 2; pass++ {
			start := time.Now()
			if (pass+k)%2 == 0 {
				bt, err := replayBody(traced, reg, r, tr, id, k%2 == 1)
				st.traced += time.Since(start)
				if err != nil {
					st.problems = append(st.problems, fmt.Sprintf("%s (%s): %v", id, r.Kind, err))
					continue
				}
				st.bodies = append(st.bodies, bt)
			} else {
				_, err := replayBody(untraced, reg, r, nil, id, k%2 == 1)
				st.untraced += time.Since(start)
				if err != nil {
					st.problems = append(st.problems, fmt.Sprintf("%s (%s, untraced): %v", id, r.Kind, err))
				}
			}
		}
	}
	return st, nil
}

// replayBody replays one body: it serves r once (a miss) and, unless it
// is budgeted, once more (a hit); it calls the engine behind r's kind
// directly and checks that the engine's numbers are the served ones; and
// for a study it runs the three levels one by one.  reverse runs these
// steps in the opposite order, so that alternating it between bodies
// cancels any advantage of going first from the medians.
func replayBody(srv *serve.Server, reg *obs.Registry, r *workload.Request, tr *tracer, id string, reverse bool) (bodyTimes, error) {
	bt := bodyTimes{kind: r.Kind, hit: -1}
	var req serve.StudyRequest
	dec := json.NewDecoder(bytes.NewReader(r.Body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return bt, fmt.Errorf("decoding the request: %v", err)
	}
	root := tr.begin("replay.request", id, 0)
	defer tr.end(root)
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

	var served []byte
	var check func(*serve.StudyResponse) error
	steps := []func() error{
		func() error {
			var code int
			var cache string
			bt.request = ms(tr.do("serve.request", id, root, func() {
				rec := serveOnce(srv, r.Body)
				served, code, cache = rec.Body.Bytes(), rec.Code, rec.Header().Get("X-Aeropack-Cache")
			}))
			if code != http.StatusOK || cache != "miss" {
				return fmt.Errorf("first send: status %d, cache %q: %.200s", code, cache, served)
			}
			if err := checkEnvelope(r, served); err != nil {
				return err
			}
			if req.Budget != nil {
				return nil // never cached
			}
			var again []byte
			bt.hit = ms(tr.do("serve.hit", id, root, func() {
				rec := serveOnce(srv, r.Body)
				again, cache = rec.Body.Bytes(), rec.Header().Get("X-Aeropack-Cache")
			}))
			if cache != "hit" || !bytes.Equal(again, served) {
				return fmt.Errorf("second send: cache %q, identical body %t", cache, bytes.Equal(again, served))
			}
			return nil
		},
		func() error {
			var err error
			bt.engine = ms(tr.do("engine."+req.Kind, id, root, func() { check, err = runEngine(&req) }))
			if err != nil {
				return fmt.Errorf("engine: %v", err)
			}
			return nil
		},
		func() error {
			if req.Kind != "study" {
				return nil
			}
			b, screen, err := boardDesign(req.Study)
			if err != nil {
				return err
			}
			assembly := reg.Histogram("thermal_assembly_seconds", nil)
			var l2 *core.Level2Result
			var errs [3]error
			bt.level[0] = ms(tr.do("core.level1", id, root, func() { _, errs[0] = b.Level1(screen) }))
			a0 := assembly.Sum()
			bt.level[1] = ms(tr.do("core.level2", id, root, func() { l2, errs[1] = b.Level2(screen) }))
			bt.assemble = 1000 * (assembly.Sum() - a0)
			if errs[1] == nil {
				bt.level[2] = ms(tr.do("core.level3", id, root, func() { _, errs[2] = b.Level3(l2) }))
			}
			for i, e := range errs {
				if e != nil {
					return fmt.Errorf("level %d: %v", i+1, e)
				}
			}
			return nil
		},
	}
	if reverse {
		slices.Reverse(steps)
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return bt, err
		}
	}
	var resp serve.StudyResponse
	if err := json.Unmarshal(served, &resp); err != nil {
		return bt, fmt.Errorf("decoding the response: %v", err)
	}
	if err := check(&resp); err != nil {
		return bt, fmt.Errorf("engine result differs from the served one: %v", err)
	}
	return bt, nil
}
