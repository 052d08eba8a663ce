package obs_test

import (
	"io"
	"strings"
	"sync"
	"testing"

	"aeropack/internal/obs"
	"aeropack/internal/parallel"
)

// TestChromeTraceExportRacesWithParallelSpans pins the -race contract of
// the tracer: pool workers open nested spans (root → child → grandchild,
// with attributes landing on all three) while another goroutine exports
// the live trace as Chrome trace-event JSON in a loop.  Export must see
// a consistent tree — including spans that are still open — without a
// data race or a torn read of dur/ended/attrs.
func TestChromeTraceExportRacesWithParallelSpans(t *testing.T) {
	tr := obs.NewTrace()
	prev := obs.SetTracer(tr)
	defer obs.SetTracer(prev)

	const iterations = 64
	exportDone := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(exportDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := tr.WriteChromeTrace(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	if _, err := parallel.Map(make([]struct{}, iterations), 8, func(i int, _ struct{}) (struct{}, error) {
		root := obs.Start(nil, "race.worker")
		root.AttrInt("iteration", i)
		child := root.Start("race.child")
		child.Attr("phase", "inner")
		grand := child.Start("race.grandchild")
		grand.AttrF("value", float64(i))
		grand.End()
		child.End()
		root.End()
		return struct{}{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-exportDone

	if got := tr.Len(); got != 3*iterations {
		t.Fatalf("trace holds %d spans, want %d", got, 3*iterations)
	}
	// A final export after the barrier must be complete and well-formed.
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"race.worker", "race.child", "race.grandchild", `"displayTimeUnit":"ms"`} {
		if !strings.Contains(out, want) {
			t.Errorf("final export missing %q", want)
		}
	}
	// Every worker subtree must keep its parent-child shape: each root
	// has exactly one child and one grandchild under it in TreeString.
	tree := tr.TreeString()
	if n := strings.Count(tree, "race.worker"); n != iterations {
		t.Errorf("tree has %d roots, want %d", n, iterations)
	}
	if n := strings.Count(tree, "  race.child"); n != iterations {
		t.Errorf("tree has %d children, want %d", n, iterations)
	}
	if n := strings.Count(tree, "    race.grandchild"); n != iterations {
		t.Errorf("tree has %d grandchildren, want %d", n, iterations)
	}
}

// TestSpanEndRaceWithAttr drives End and Attr on sibling spans from many
// goroutines at once — the shape a keep-going sweep produces when one
// worker annotates its failure while another closes out cleanly.
func TestSpanEndRaceWithAttr(t *testing.T) {
	tr := obs.NewTrace()
	prev := obs.SetTracer(tr)
	defer obs.SetTracer(prev)

	root := obs.Start(nil, "race.root")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := root.Start("race.sibling")
			s.AttrInt("worker", i)
			s.End()
			s.End() // double End must stay idempotent under contention
		}(i)
	}
	wg.Wait()
	root.End()
	if got := tr.Len(); got != 17 {
		t.Fatalf("trace holds %d spans, want 17", got)
	}
}
