// Package ipahelp is the cross-package helper for the interprocedural
// golden tests: each function has a deliberately simple body whose
// call-graph summary (span behavior, blocking, goroutine signals) the
// spanleak/lockheld/goroleak fixtures consume from one call away.
// Living under testdata keeps it out of go build and module-wide lint
// runs.
package ipahelp

import (
	"sync"

	"aeropack/internal/obs"
)

// kept receives spans handed to Keep; the escape is the point.
var kept *obs.Span

// Annotate uses the span without ending it: the caller still owes the
// End (summary: neutral).
func Annotate(sp *obs.Span) {
	sp.Attr("phase", "ipa")
}

// Finish ends the span on every path (summary: ends).
func Finish(sp *obs.Span) {
	sp.End()
}

// Keep stores the span; ownership transfers (summary: escapes).
func Keep(sp *obs.Span) {
	kept = sp
}

// Recv blocks on a channel receive (summary: blocking).
func Recv(c chan int) int {
	return <-c
}

// RecvIndirect blocks one call deeper (summary: blocking via Recv).
func RecvIndirect(c chan int) int {
	return Recv(c)
}

// Pure cannot block.
func Pure() int {
	return 1
}

// Worker marks the group done and drains the feed channel (summary:
// done and cancel signals).
func Worker(wg *sync.WaitGroup, c chan int) {
	defer wg.Done()
	<-c
}

// Drift neither signals a WaitGroup nor consumes a cancellation channel
// (summary: no signals — launching it unjoined is a leak).
func Drift(c chan int) {
	c <- 1
}

// Alloc sizes an allocation straight from its parameter (summary: size
// fact on param 0).
func Alloc(n int) []float64 {
	return make([]float64, n)
}

// AllocCapped clamps before allocating (summary: no size fact).
func AllocCapped(n int) []float64 {
	if n > 4096 {
		n = 4096
	}
	return make([]float64, n)
}

// FillFrom allocates one slot per input point — the input's *length*
// sizes the result (summary: size fact on param 0).
func FillFrom(points []float64) []float64 {
	out := make([]float64, len(points))
	copy(out, points)
	return out
}

// MuA and MuB are the module-visible mutexes of the lockorder fixtures.
var (
	MuA sync.Mutex
	MuB sync.Mutex
)

// UnderB runs one step under MuB (summary: acquires MuB) — the
// acquisition the lockorder fixtures reach one package over.
func UnderB() int {
	MuB.Lock()
	defer MuB.Unlock()
	return 1
}
