package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzChromeTrace builds span trees from fuzzed shapes — arbitrary
// names, attribute keys/values, nesting depth, and spans deliberately
// left unended — and asserts WriteChromeTrace always emits valid JSON
// with one event per span.  chrome://tracing silently drops malformed
// files, so validity is the whole contract.
func FuzzChromeTrace(f *testing.F) {
	f.Add("cosee.Sweep", "power_w", "40", 3, 1)
	f.Add("", "", "", 0, 0)
	f.Add("solve\nnewline \"quoted\"", "k\te(y", "v\\al", 7, 0)
	f.Add("thermal.linSolve", "prec_degraded", "jacobi", 1, 1)
	f.Add("\xff\xfe broken utf8", "\xc3(", "\xed\xa0\x80", 2, 1)
	f.Fuzz(func(t *testing.T, name, key, val string, depth, end int) {
		depth %= 32
		if depth < 0 {
			depth = -depth
		}
		endAll := end%2 != 0
		tr := NewTrace()
		prev := SetTracer(tr)
		defer SetTracer(prev)

		spans := make([]*Span, 0, depth+1)
		root := Start(nil, name)
		root.Attr(key, val)
		spans = append(spans, root)
		cur := root
		for i := 0; i < depth; i++ {
			cur = cur.Start(name)
			cur.Attr(key, val)
			cur.AttrInt("depth", i)
			spans = append(spans, cur)
		}
		if endAll {
			// End inner-out; otherwise every span stays open, exercising
			// the exporter's in-flight-duration path.
			for i := len(spans) - 1; i >= 0; i-- {
				spans[i].End()
			}
		}

		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatalf("WriteChromeTrace: %v", err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("exporter produced invalid JSON:\n%s", buf.String())
		}
		var file struct {
			TraceEvents []struct {
				Ph   string            `json:"ph"`
				Args map[string]string `json:"args"`
			} `json:"traceEvents"`
			DisplayTimeUnit string `json:"displayTimeUnit"`
		}
		if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
			t.Fatalf("decoding trace file: %v", err)
		}
		if got, want := len(file.TraceEvents), len(spans); got != want {
			t.Fatalf("trace has %d events, want %d (one per span)", got, want)
		}
		for i, ev := range file.TraceEvents {
			if ev.Ph != "X" {
				t.Fatalf("event %d phase %q, want complete-event X", i, ev.Ph)
			}
		}
	})
}
