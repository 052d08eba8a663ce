// Package obshttp is aeropack's embeddable ops endpoint: a small
// net/http handler that exposes the process's observability state —
// metrics, health, flight-recorder tail, and per-study progress — so a
// multi-hour qualification campaign or capability sweep can be watched
// live instead of post-mortem.  The CLIs mount it behind -serve; the
// planned aeropackd service mounts the same handler on its own mux.
//
// Routes:
//
//	GET /metrics   Prometheus text exposition (version 0.0.4) of the Registry
//	GET /healthz   JSON liveness: status, uptime, goroutines
//	GET /events    flight-recorder tail as aeropack-events/v1 (?n= limits)
//	GET /progress  per-study percent-complete as aeropack-progress/v1
//
// Everything is read-only and stdlib-only.  The Server owns exactly one
// goroutine and Close joins it, honouring the repo-wide goroleak
// contract that no library goroutine outlives the run that started it.
package obshttp

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"aeropack/internal/obs"
)

// Options selects the observability state a handler serves.  Nil fields
// degrade gracefully: the corresponding route answers with an empty but
// well-formed document rather than an error, so a handler can be
// mounted before every subsystem is enabled.
type Options struct {
	Registry *obs.Registry // /metrics source
	Recorder *obs.Recorder // /events source
	Board    *obs.Board    // /progress source
}

// handler implements the four ops routes over a fixed Options snapshot.
type handler struct {
	opts  Options
	start time.Time
	mux   *http.ServeMux
}

// NewHandler returns an http.Handler serving /metrics, /healthz,
// /events and /progress from the given sources.
func NewHandler(o Options) http.Handler {
	h := &handler{opts: o, start: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", h.metrics)
	mux.HandleFunc("/healthz", h.healthz)
	mux.HandleFunc("/events", h.events)
	mux.HandleFunc("/progress", h.progress)
	h.mux = mux
	return h
}

func (h *handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func (h *handler) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// WritePrometheus on a nil registry writes nothing, which is itself
	// a valid (empty) exposition.
	if err := h.opts.Registry.WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// healthPayload is the /healthz JSON body.
type healthPayload struct {
	Status        string  `json:"status"` // always "ok" while the process answers
	UptimeSeconds float64 `json:"uptime_seconds"`
	Goroutines    int     `json:"goroutines"`
}

func (h *handler) healthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(healthPayload{
		Status:        "ok",
		UptimeSeconds: time.Since(h.start).Seconds(),
		Goroutines:    runtime.NumGoroutine(),
	}); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (h *handler) events(w http.ResponseWriter, r *http.Request) {
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			http.Error(w, fmt.Sprintf("obshttp: bad n=%q", q), http.StatusBadRequest)
			return
		}
		n = v
	}
	w.Header().Set("Content-Type", "application/json")
	rec := h.opts.Recorder
	if rec == nil {
		// Recorder disabled: an empty document keeps scrapers simple.
		rec = obs.NewRecorder(1)
	}
	if err := rec.WriteJSON(w, n); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (h *handler) progress(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	b := h.opts.Board
	if b == nil {
		b = obs.NewBoard()
	}
	if err := b.WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Server is a running ops endpoint: a listener plus the single
// goroutine driving http.Server.Serve.  Close shuts the listener down
// and joins that goroutine.
type Server struct {
	ln        net.Listener
	srv       *http.Server
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// Start binds addr (":0" picks a free port) and serves the handler
// until Close.  The serve goroutine is owned by the returned Server and
// joined by Close, so callers hold the goroleak contract by pairing
// Start with a deferred Close.
func Start(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obshttp: listen %s: %w", addr, err)
	}
	s := &Server{ln: ln, srv: &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}}
	s.wg.Add(1)
	//lint:allow goroleak joined by wg.Wait in Server.Close
	go func() {
		defer s.wg.Done()
		// Serve always exits with ErrServerClosed after Shutdown; real
		// bind errors were already caught by Listen in Start.
		_ = s.srv.Serve(s.ln)
	}()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close drains in-flight requests (bounded by a short timeout), stops
// the listener and joins the serve goroutine.  Safe to call more than
// once and on nil.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.closeErr = s.srv.Shutdown(ctx)
		s.wg.Wait()
	})
	return s.closeErr
}

// Ops bundles everything -serve turns on: the global observability
// state (registry, flight recorder, progress board — installed only
// where not already enabled), the runtime sampler, and the HTTP server.
// A nil *Ops no-ops on Close, so CLI exit paths can close it
// unconditionally.
type Ops struct {
	server  *Server
	sampler *obs.Sampler
}

// EnableOps switches the process into live-inspection mode and serves
// the ops endpoint on addr.  Observability state that is already
// enabled (e.g. a registry installed by -metrics) is reused; whatever
// is still disabled is created and installed globally, so -serve alone
// is enough to watch a run.  The runtime sampler ticks once a second.
// Close the returned Ops on every exit path.
func EnableOps(addr string) (*Ops, error) {
	reg := obs.Default()
	if reg == nil {
		reg = obs.NewRegistry()
		obs.SetDefault(reg)
	}
	rec := obs.CurrentRecorder()
	if rec == nil {
		rec = obs.NewRecorder(0)
		obs.SetRecorder(rec)
	}
	board := obs.CurrentBoard()
	if board == nil {
		board = obs.NewBoard()
		obs.SetBoard(board)
	}
	srv, err := Start(addr, NewHandler(Options{Registry: reg, Recorder: rec, Board: board}))
	if err != nil {
		return nil, err
	}
	return &Ops{server: srv, sampler: obs.StartSampler(reg, time.Second)}, nil
}

// Addr returns the ops endpoint's bound address ("" on nil).
func (o *Ops) Addr() string {
	if o == nil {
		return ""
	}
	return o.server.Addr()
}

// Close stops the sampler and the HTTP server, joining both goroutines.
// Nil-safe and idempotent.
func (o *Ops) Close() error {
	if o == nil {
		return nil
	}
	o.sampler.Stop()
	return o.server.Close()
}
