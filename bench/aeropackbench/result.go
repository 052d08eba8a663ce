package main

import (
	"fmt"
	"io"
	"os"
	"strconv"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// ResponsesSHA256 digests every measured response in send order, so
	// equal digests show unchanged outputs (study numbers to digestDigits
	// significant digits, see canon.go).
	ResponsesSHA256 string `json:"responses_sha256"`
	// ClockNsPerStep is the host's speed over the run (clock.go), by
	// which the end-to-end times were scaled to the reference speed.
	ClockNsPerStep float64 `json:"clock_ns_per_step"`
	// Problems describes the first failures, for the operator.
	Problems []string `json:"problems,omitempty"`

	order []string
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

func (r *result) add(name string, v float64, unit string) {
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// maxProblems bounds the failure descriptions one run keeps.
const maxProblems = 20

// fail records a failed output check.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < maxProblems {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// print writes one "workload metric value unit" line per metric, then
// the responses digest; problems go to standard error.
func (r *result) print(w io.Writer, workload string) {
	for _, n := range r.order {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%s %s %s %s\n", workload, n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	fmt.Fprintf(w, "%s error_share %s fraction\n", workload, strconv.FormatFloat(float64(r.Failed)/float64(max(r.Attempted, 1)), 'g', -1, 64))
	fmt.Fprintf(w, "%s clock_ns_per_step %s ns\n", workload, strconv.FormatFloat(r.ClockNsPerStep, 'g', -1, 64))
	fmt.Fprintf(w, "%s responses_sha256 %s -\n", workload, r.ResponsesSHA256)
	for _, p := range r.Problems {
		fmt.Fprintf(os.Stderr, "%s: FAILED: %s\n", workload, p)
	}
}

// summary is the object printed as the last line of standard output.
func (r *result) summary() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}
