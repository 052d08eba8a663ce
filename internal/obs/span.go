package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span or flight-recorder event.
// Values are stored pre-formatted so export is allocation-free and
// deterministic.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed region of work.  Spans form a tree: children are
// created with Start(parent, name) or parent.Start(name).  All methods
// are no-ops on a nil span, so call sites need no enabled/disabled
// branching.
type Span struct {
	tr     *Trace
	parent *Span
	name   string
	seq    int // creation order within the trace
	root   int // seq of the root span of this subtree (Chrome tid)

	start time.Time
	dur   time.Duration
	ended bool

	attrs    []Attr
	children []*Span
}

// Trace collects spans.  A Trace is safe for concurrent use; span
// creation order (the seq field) is the global mutation order, which for
// serial workloads makes the exported structure fully deterministic.
type Trace struct {
	mu    sync.Mutex
	base  time.Time
	spans []*Span
}

// NewTrace returns an empty trace.
func NewTrace() *Trace {
	return &Trace{base: time.Now()}
}

// tracer is the process-global span collector; nil means tracing is
// disabled (the default).
var tracer atomic.Pointer[Trace]

// CurrentTracer returns the process-global trace, or nil when tracing is
// disabled.
func CurrentTracer() *Trace { return tracer.Load() }

// SetTracer installs t as the process-global trace (nil disables
// tracing) and returns the previous one so tests can restore it.
func SetTracer(t *Trace) *Trace { return tracer.Swap(t) }

// Start opens a span.  With a non-nil parent the span joins the parent's
// trace as a child; with a nil parent it becomes a root span of the
// process-global trace.  Returns nil (and costs one atomic load) when
// the relevant trace is disabled.
func Start(parent *Span, name string) *Span {
	if parent != nil {
		return parent.tr.newSpan(parent, name)
	}
	return CurrentTracer().newSpan(nil, name)
}

// spanKey is the context key of the current span.
type spanKey struct{}

// FromContext returns the span ctx carries, or nil.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// StartContext opens a span under the one ctx carries (a root span of
// the process-global trace when it carries none) and returns a context
// carrying the new span, for the callees to parent theirs.  With
// tracing disabled the span is nil and ctx comes back unchanged, so the
// disabled path allocates nothing.
func StartContext(ctx context.Context, name string) (context.Context, *Span) {
	sp := Start(FromContext(ctx), name)
	if sp == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// Start opens a child span; nil-safe, so instrumented callees can accept
// a possibly-nil parent without branching.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.newSpan(s, name)
}

func (t *Trace) newSpan(parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	s := &Span{tr: t, parent: parent, name: name, seq: len(t.spans), start: time.Now()}
	if parent == nil {
		s.root = s.seq
	} else {
		s.root = parent.root
		parent.children = append(parent.children, s)
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	// Flight-recorder hook lives on the enabled path only, so the
	// disabled span guard stays a single atomic load (the pinned
	// BenchmarkObsDisabledSpan budget).  Recorded after unlock to keep
	// the trace lock out of the recorder's.
	if rec := CurrentRecorder(); rec != nil {
		rec.Record("span_begin", name)
	}
	return s
}

// End closes the span, fixing its duration from the monotonic clock.
// Safe to call on nil; a second End keeps the first duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	first := !s.ended
	if first {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.tr.mu.Unlock()
	if first {
		if rec := CurrentRecorder(); rec != nil {
			rec.Record("span_end", s.name)
		}
	}
}

// Attr attaches a string annotation; nil-safe.
func (s *Span) Attr(key, value string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// AttrF attaches a float annotation formatted with %g; nil-safe (the
// nil check precedes formatting so disabled spans never allocate).
func (s *Span) AttrF(key string, v float64) {
	if s == nil {
		return
	}
	s.Attr(key, fmt.Sprintf("%g", v))
}

// AttrInt attaches an integer annotation; nil-safe without formatting
// cost on disabled spans.
func (s *Span) AttrInt(key string, v int) {
	if s == nil {
		return
	}
	s.Attr(key, fmt.Sprintf("%d", v))
}

// Len returns the number of spans recorded so far.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// chromeEvent is one Chrome trace-event object ("X" complete event).
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // µs since trace start
	Dur  float64           `json:"dur"` // µs
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// chromeFile is the Chrome trace-event JSON object form.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the trace in Chrome trace-event JSON format
// (load via chrome://tracing or https://ui.perfetto.dev).  Each root
// span's subtree is laid out on its own thread lane so sibling trees
// from parallel sweeps stay readable.  Spans never ended are exported
// with the duration observed at export time.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("obs: nil trace")
	}
	t.mu.Lock()
	events := make([]chromeEvent, 0, len(t.spans))
	now := time.Now()
	for _, s := range t.spans {
		dur := s.dur
		if !s.ended {
			dur = now.Sub(s.start)
		}
		ev := chromeEvent{
			Name: s.name,
			Cat:  "aeropack",
			Ph:   "X",
			Ts:   float64(s.start.Sub(t.base)) / float64(time.Microsecond),
			Dur:  float64(dur) / float64(time.Microsecond),
			Pid:  1,
			Tid:  s.root + 1,
		}
		if len(s.attrs) > 0 {
			ev.Args = make(map[string]string, len(s.attrs))
			for _, a := range s.attrs {
				ev.Args[a.Key] = a.Value
			}
		}
		events = append(events, ev)
	}
	t.mu.Unlock()
	enc := json.NewEncoder(w)
	return enc.Encode(chromeFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// TreeString renders the span hierarchy as an indented name tree —
// timings and attributes excluded — in creation order.  For a fixed
// serial workload the output is bit-identical run to run, which is what
// the telemetry-determinism golden tests pin.
func (t *Trace) TreeString() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(s.name)
		b.WriteByte('\n')
		for _, c := range s.children {
			walk(c, depth+1)
		}
	}
	for _, s := range t.spans {
		if s.parent == nil {
			walk(s, 0)
		}
	}
	return b.String()
}

// SpanNames returns the distinct span names seen, sorted — a quick
// integrity probe for tests and tooling.
func (t *Trace) SpanNames() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := make(map[string]bool)
	for _, s := range t.spans {
		seen[s.name] = true
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
