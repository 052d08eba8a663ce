package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"aeropack/internal/obs"
	"aeropack/internal/obs/obshttp"
)

// Options configures a study server.
type Options struct {
	// Workers bounds solver concurrency within one study (<= 0 means
	// GOMAXPROCS).  With several studies in flight each gets its own
	// pool of this size, so Workers × MaxInflight is the worst-case
	// goroutine fan-out.
	Workers int
	// MaxInflight is the number of studies computed concurrently; the
	// admission-control semaphore size (<= 0 means 4).
	MaxInflight int
	// MaxQueue bounds requests waiting for an admission slot.  A
	// request beyond the queue is rejected with 429 + Retry-After
	// (<= 0 means 64).
	MaxQueue int
	// CacheDir persists finished response bodies across restarts;
	// empty keeps the cache memory-only.
	CacheDir string
	// Registry receives the serve_* counters and backs the mounted
	// /metrics route.  Nil uses obs.Default(), creating a fresh
	// registry when that is unset too.
	Registry *obs.Registry
}

// call is one in-flight singleflight computation.  The leader fills
// status/body then closes done; followers block on done and replay the
// bytes, so N concurrent identical requests cost one computation and
// return bitwise-identical bodies.  waiters (guarded by Server.mu)
// counts the requests still waiting for the answer; when the last one
// leaves, the call leaves the in-flight map and cancel stops the
// computation.
type call struct {
	done   chan struct{}
	status int
	body   []byte

	waiters int
	cancel  context.CancelFunc
}

// job is one async study.  done is closed after status/body are set
// (the channel close publishes the fields to readers).
type job struct {
	done   chan struct{}
	status int
	body   []byte
}

// Server is the aeropackd HTTP handler: study routes plus the obshttp
// ops routes on one mux.
//
// Routes:
//
//	POST /v1/studies      run a study (sync, or async with "async":true)
//	GET  /v1/jobs/{id}    async job state
//	GET  /v1/results/{id} async job result (the sync body, verbatim)
//	GET  /metrics /healthz /events /progress   (obshttp)
type Server struct {
	opts  Options
	mux   *http.ServeMux
	cache *resultCache
	reg   *obs.Registry

	// Admission control: sem holds the inflight slots, waiting counts
	// requests blocked on a slot (bounded by MaxQueue).
	sem     chan struct{}
	waiting atomic.Int64

	mu       sync.Mutex
	inflight map[string]*call
	jobs     map[string]*job

	jobSeq atomic.Int64
	jobsWG sync.WaitGroup
}

// NewServer builds a study server.  The returned server is ready to
// serve; Close waits out any async jobs still running.
func NewServer(opts Options) (*Server, error) {
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = 4
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 64
	}
	if opts.Registry == nil {
		if opts.Registry = obs.Default(); opts.Registry == nil {
			opts.Registry = obs.NewRegistry()
		}
	}
	cache, err := newResultCache(opts.CacheDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		opts:     opts,
		cache:    cache,
		reg:      opts.Registry,
		sem:      make(chan struct{}, opts.MaxInflight),
		inflight: make(map[string]*call),
		jobs:     make(map[string]*job),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/studies", s.handleStudies)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/results/{id}", s.handleResult)
	ops := obshttp.NewHandler(obshttp.Options{
		Registry: opts.Registry,
		Recorder: obs.CurrentRecorder(),
		Board:    obs.CurrentBoard(),
	})
	for _, route := range []string{"/metrics", "/healthz", "/events", "/progress"} {
		mux.Handle("GET "+route, ops)
	}
	s.mux = mux
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close waits for outstanding async jobs to finish.  The HTTP listener
// (owned by the caller) must be shut down first so no new jobs start.
func (s *Server) Close() error {
	s.jobsWG.Wait()
	return nil
}

// count bumps a serve_* counter on the server's registry.
func (s *Server) count(name string) {
	s.reg.Counter(name).Inc()
}

// maxRequestBytes bounds a study request document.  The largest
// legitimate request (a board study with hundreds of components or a
// dense techmap grid) is well under this.
const maxRequestBytes = 1 << 20

// decodeRequest parses and validates a request body.  Unknown fields
// are rejected: a typoed "buget" silently ignored would run an
// unbudgeted study, the opposite of what the client asked for.
func decodeRequest(body []byte) (*StudyRequest, *StudyError) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req StudyRequest
	if err := dec.Decode(&req); err != nil {
		return nil, studyErr(400, CodeBadRequest, "serve: parsing request: %v", err)
	}
	if dec.More() {
		return nil, studyErr(400, CodeBadRequest, "serve: trailing data after request document")
	}
	if serr := req.validate(); serr != nil {
		return nil, serr
	}
	return &req, nil
}

// writeBody writes a finished response with its transport headers.
// cacheState is "hit", "miss" or "dedup" — it travels in a header, not
// the body, so cached/deduped replays stay bitwise-identical.
func writeBody(w http.ResponseWriter, status int, body []byte, cacheState string) {
	w.Header().Set("Content-Type", "application/json")
	if cacheState != "" {
		w.Header().Set("X-Aeropack-Cache", cacheState)
	}
	if status == 429 {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	_, _ = w.Write(body) // client gone is the client's problem
}

// writeErr renders a StudyError document.
func writeErr(w http.ResponseWriter, e *StudyError) {
	body, err := marshalResponse(e)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, e.Status, body, "")
}

// renderErr marshals a StudyError for storage in a call/job record.
func renderErr(e *StudyError) (int, []byte) {
	body, err := marshalResponse(e)
	if err != nil {
		return http.StatusInternalServerError, []byte(err.Error() + "\n")
	}
	return e.Status, body
}

// handleStudies is POST /v1/studies.
func (s *Server) handleStudies(w http.ResponseWriter, r *http.Request) {
	s.count("serve_requests_total")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		writeErr(w, studyErr(400, CodeBadRequest, "serve: reading request: %v", err))
		return
	}
	req, serr := decodeRequest(body)
	if serr != nil {
		writeErr(w, serr)
		return
	}
	key := requestKey(body)
	if req.Async {
		s.startJob(w, key, req)
		return
	}
	status, respBody, cacheState := s.compute(r.Context(), key, req)
	if status == 0 {
		return // the client left; there is no one to answer
	}
	writeBody(w, status, respBody, cacheState)
}

// compute produces the response bytes for one request, going through
// the cache, the singleflight dedup and admission control in that
// order: a cache hit costs no slot, and N concurrent identical misses
// occupy one slot between them (followers wait on the leader, not in
// the admission queue).  The returned body is bitwise-identical across
// hit/miss/dedup for the same request bytes.
//
// ctx is the waiting client's: once it is done the request stops
// waiting at once and compute returns status 0.  The computation itself
// runs under its own context, which the last waiting client to leave
// cancels — whether it is the leader or a follower, queued for
// admission or computing.  A canceled computation is never cached and
// never handed to a later request.
func (s *Server) compute(ctx context.Context, key string, req *StudyRequest) (status int, body []byte, cacheState string) {
	if b := s.cache.get(key); b != nil {
		s.count("serve_cache_hits_total")
		return http.StatusOK, b, "hit"
	}

	var run context.Context
	s.mu.Lock()
	c, follower := s.inflight[key]
	if !follower {
		c = &call{done: make(chan struct{})}
		run, c.cancel = context.WithCancel(context.WithoutCancel(ctx))
		s.inflight[key] = c
	}
	c.waiters++
	s.mu.Unlock()
	defer context.AfterFunc(ctx, func() { s.leave(key, c) })()

	if follower {
		s.count("serve_dedup_hits_total")
		select {
		case <-c.done:
			return c.status, c.body, "dedup"
		case <-ctx.Done():
			return 0, nil, "dedup"
		}
	}
	s.count("serve_cache_misses_total")
	defer func() {
		s.mu.Lock()
		if s.inflight[key] == c {
			delete(s.inflight, key)
		}
		s.mu.Unlock()
		c.cancel()
		close(c.done)
	}()

	// Admission happens as the singleflight leader: followers of this
	// key share the leader's outcome — including a queue-full 429,
	// which is the honest answer for every caller of an overloaded key.
	admitted, serr := s.admit(run)
	if serr != nil {
		c.status, c.body = renderErr(serr)
		return c.status, c.body, "miss"
	}
	if !admitted {
		return 0, nil, "miss" // every waiter left while it queued
	}
	defer s.release()

	resp, serr := executeStudy(run, req, s.opts.Workers)
	if serr != nil {
		c.status, c.body = renderErr(serr)
		return c.status, c.body, "miss"
	}
	resp.RequestSHA256 = key
	b, err := marshalResponse(resp)
	if err != nil {
		c.status, c.body = renderErr(studyErr(500, CodeStudyFailed, "%v", err))
		return c.status, c.body, "miss"
	}
	c.status, c.body = http.StatusOK, b
	// Budgeted results depend on wall clock and scheduling, and a
	// canceled computation stopped wherever the cancellation caught it,
	// so only unbudgeted studies that ran to the end — pure functions of
	// the request bytes — are cached.  A failed disk write costs future
	// recomputes only.
	if req.Budget == nil && run.Err() == nil {
		if err := s.cache.put(key, b); err != nil {
			s.count("serve_cache_write_errors_total")
		}
	}
	return c.status, c.body, "miss"
}

// leave drops one waiter from c.  The last one out removes c from the
// in-flight map, so an identical request arriving later recomputes
// instead of joining a canceled computation, and cancels it.
func (s *Server) leave(key string, c *call) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.waiters--; c.waiters > 0 {
		return
	}
	if s.inflight[key] == c {
		delete(s.inflight, key)
	}
	c.cancel()
}

// admit acquires an inflight slot, queueing up to MaxQueue requests
// when all slots are busy.  The state machine is ADMIT (free slot,
// immediate), QUEUE (all slots busy, queue has room: block until a
// slot frees or ctx is done, whichever comes first) or REJECT (queue
// full too: 429 + Retry-After).  It reports whether it took a slot: a
// request that leaves the queue because ctx is done takes none and gets
// no error.
func (s *Server) admit(ctx context.Context) (bool, *StudyError) {
	select {
	case s.sem <- struct{}{}:
		return true, nil // ADMIT
	default:
	}
	if s.waiting.Add(1) > int64(s.opts.MaxQueue) {
		s.waiting.Add(-1)
		s.count("serve_rejected_total")
		return false, studyErr(429, CodeQueueFull,
			"serve: %d studies in flight and %d queued; retry later",
			s.opts.MaxInflight, s.opts.MaxQueue) // REJECT
	}
	defer s.waiting.Add(-1)
	select {
	case s.sem <- struct{}{}: // QUEUE: block until a slot frees
		return true, nil
	case <-ctx.Done():
		return false, nil
	}
}

// release frees an admission slot.
func (s *Server) release() { <-s.sem }

// jobTicket is the 202 response to an async study submission.
type jobTicket struct {
	Schema    string `json:"schema"`
	JobID     string `json:"job_id"`
	JobURL    string `json:"job_url"`
	ResultURL string `json:"result_url"`
}

// jobState is the GET /v1/jobs/{id} document.
type jobState struct {
	Schema       string `json:"schema"`
	JobID        string `json:"job_id"`
	State        string `json:"state"` // "running" | "done"
	ResultStatus int    `json:"result_status,omitempty"`
	ResultURL    string `json:"result_url,omitempty"`
}

// startJob launches an async study and answers 202 with the job
// ticket.  The job goroutine reuses the sync compute path, so the
// eventual result body is bitwise-identical to the sync response for
// the same request bytes.
func (s *Server) startJob(w http.ResponseWriter, key string, req *StudyRequest) {
	id := fmt.Sprintf("j%d", s.jobSeq.Add(1))
	j := &job{done: make(chan struct{})}
	s.mu.Lock()
	s.jobs[id] = j
	s.mu.Unlock()
	s.count("serve_jobs_total")
	s.jobsWG.Add(1)
	go func() {
		defer s.jobsWG.Done()
		// No connection can cancel a job: it computes until done.
		status, body, _ := s.compute(context.Background(), key, req)
		j.status, j.body = status, body
		close(j.done) // publishes status/body to readers
	}()
	ticket, err := marshalResponse(jobTicket{
		Schema: JobSchema, JobID: id,
		JobURL:    "/v1/jobs/" + id,
		ResultURL: "/v1/results/" + id,
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, http.StatusAccepted, ticket, "")
}

// lookupJob resolves {id} or writes the 404 document.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (string, *job) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeErr(w, studyErr(404, CodeNotFound, "serve: unknown job %q", id))
		return id, nil
	}
	return id, j
}

// handleJob is GET /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id, j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	state := jobState{Schema: JobSchema, JobID: id, State: "running"}
	select {
	case <-j.done:
		state.State = "done"
		state.ResultStatus = j.status
		state.ResultURL = "/v1/results/" + id
	default:
	}
	body, err := marshalResponse(state)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, http.StatusOK, body, "")
}

// handleResult is GET /v1/results/{id}: replays the finished job's
// body verbatim, or answers 409 while the study is still running.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id, j := s.lookupJob(w, r)
	if j == nil {
		return
	}
	select {
	case <-j.done:
		writeBody(w, j.status, j.body, "")
	default:
		writeErr(w, studyErr(409, CodeNotReady, "serve: job %q still running", id))
	}
}
