package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Event is one flight-recorder entry: a structured, timestamped record
// of something the solver stack decided or observed — a span opening or
// closing, a solver convergence summary, a saturated pool run.  Attrs
// follow the span convention: pre-formatted key/value strings, so
// export never has to re-interpret values.
type Event struct {
	// Seq is the event's position in the recorder's total history,
	// starting at 0.  Gaps never occur; a tail whose first Seq is
	// nonzero tells the reader exactly how many events were overwritten.
	Seq  int64     `json:"seq"`
	Time time.Time `json:"time"`
	// Kind classifies the event: "span_begin", "span_end", "solver",
	// "pool", "study_begin", "study_end".
	Kind string `json:"kind"`
	// Name identifies the subject within the kind (span name, solver
	// method, study label, ...).
	Name  string `json:"name"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// Recorder is the flight recorder: a fixed-size ring buffer of Events
// that is cheap enough to leave always on.  Writes take one short
// mutex-guarded copy into a preallocated slot — no allocation, no
// growth — and once the ring wraps, the oldest events are overwritten,
// bounding memory for arbitrarily long campaigns.  All methods are safe
// for concurrent use and no-ops on a nil *Recorder, so call sites keep
// the usual single-guard shape:
//
//	if rec := obs.CurrentRecorder(); rec != nil {
//	    rec.Record("solver", "cg", obs.Attr{Key: "iterations", Value: "42"})
//	}
//
// The guard itself (one atomic pointer load plus a nil check) is the
// whole disabled-path cost — ≤1 ns and zero allocations, pinned by
// BenchmarkRecorderDisabled next to the span guard it mirrors.
type Recorder struct {
	mu  sync.Mutex
	buf []Event // ring storage, len == capacity
	seq int64   // total events ever recorded
}

// defaultRecorderCapacity bounds the ring when the caller does not:
// 4096 events cover minutes of a heavily instrumented sweep while
// costing ~1 MB at rest.
const defaultRecorderCapacity = 4096

// NewRecorder returns a flight recorder holding the most recent
// capacity events (<= 0 selects the 4096-event default).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = defaultRecorderCapacity
	}
	return &Recorder{buf: make([]Event, capacity)}
}

// flightRecorder is the process-global recorder; nil means the flight
// recorder is disabled (the default).
var flightRecorder atomic.Pointer[Recorder]

// CurrentRecorder returns the process-global flight recorder, or nil
// when recording is disabled.  The single atomic load is the whole cost
// of a disabled call site.
func CurrentRecorder() *Recorder { return flightRecorder.Load() }

// SetRecorder installs r as the process-global flight recorder (nil
// disables recording) and returns the previous one so tests can
// restore it.
func SetRecorder(r *Recorder) *Recorder { return flightRecorder.Swap(r) }

// Record appends one event to the ring, overwriting the oldest entry
// once full.  No-op on a nil recorder — but prefer guarding the call
// with CurrentRecorder() != nil so building the attrs (a variadic
// slice) is skipped entirely on the disabled path.
func (r *Recorder) Record(kind, name string, attrs ...Attr) {
	if r == nil {
		return
	}
	now := time.Now()
	r.mu.Lock()
	e := &r.buf[r.seq%int64(len(r.buf))]
	e.Seq, e.Time, e.Kind, e.Name, e.Attrs = r.seq, now, kind, name, attrs
	r.seq++
	r.mu.Unlock()
}

// Recorded returns the total number of events ever recorded.
func (r *Recorder) Recorded() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Dropped returns how many events have been overwritten by ring wrap.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.droppedLocked()
}

func (r *Recorder) droppedLocked() int64 {
	if d := r.seq - int64(len(r.buf)); d > 0 {
		return d
	}
	return 0
}

// Capacity returns the ring size (0 for nil).
func (r *Recorder) Capacity() int {
	if r == nil {
		return 0
	}
	return len(r.buf)
}

// Tail returns the most recent n events in chronological order (oldest
// of the tail first).  n <= 0 or n larger than the buffered count
// returns everything still in the ring.  The returned slice is a copy;
// callers may hold it indefinitely.
func (r *Recorder) Tail(n int) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	held := r.seq - r.droppedLocked()
	if n <= 0 || int64(n) > held {
		n = int(held)
	}
	out := make([]Event, n)
	for i := 0; i < n; i++ {
		seq := r.seq - int64(n) + int64(i)
		out[i] = r.buf[seq%int64(len(r.buf))]
	}
	return out
}

// eventsFile is the aeropack-events/v1 JSON dump schema.
type eventsFile struct {
	Schema   string  `json:"schema"` // "aeropack-events/v1"
	Capacity int     `json:"capacity"`
	Recorded int64   `json:"recorded"`
	Dropped  int64   `json:"dropped"`
	Events   []Event `json:"events"`
}

// WriteJSON dumps the most recent n events (n <= 0 means everything
// still buffered) as an aeropack-events/v1 document — the on-demand and
// on-error dump format behind the CLIs' -events flag and the ops
// endpoint's /events route.
func (r *Recorder) WriteJSON(w io.Writer, n int) error {
	if r == nil {
		return fmt.Errorf("obs: nil recorder")
	}
	events := r.Tail(n)
	if events == nil {
		events = []Event{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(eventsFile{
		Schema:   "aeropack-events/v1",
		Capacity: r.Capacity(),
		Recorded: r.Recorded(),
		Dropped:  r.Dropped(),
		Events:   events,
	})
}
