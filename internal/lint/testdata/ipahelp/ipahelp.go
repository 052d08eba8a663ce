// Package ipahelp is the cross-package helper of the golden tests: the
// spanleak, lockheld and goroleak fixtures call its deliberately simple
// functions from one package away, to show that what a callee does
// never changes a body-local rule's verdict.  Living under testdata
// keeps it out of go build and module-wide lint runs.
package ipahelp

import (
	"sync"

	"aeropack/internal/obs"
)

// kept receives spans handed to Keep; the escape is the point.
var kept *obs.Span

// Annotate uses the span without ending it.
func Annotate(sp *obs.Span) {
	sp.Attr("phase", "ipa")
}

// Finish ends the span on every path.
func Finish(sp *obs.Span) {
	sp.End()
}

// Keep stores the span.
func Keep(sp *obs.Span) {
	kept = sp
}

// Recv blocks on a channel receive.
func Recv(c chan int) int {
	return <-c
}

// RecvIndirect blocks one call deeper, in Recv.
func RecvIndirect(c chan int) int {
	return Recv(c)
}

// Pure cannot block.
func Pure() int {
	return 1
}

// Worker marks the group done and drains the feed channel.
func Worker(wg *sync.WaitGroup, c chan int) {
	defer wg.Done()
	<-c
}

// Drift neither signals a WaitGroup nor consumes a cancellation
// channel.
func Drift(c chan int) {
	c <- 1
}

// MuA and MuB are the module-visible mutexes of the lock-order fixtures.
var (
	MuA sync.Mutex
	MuB sync.Mutex
)

// UnderB runs one step under MuB — the acquisition the lock-order
// fixtures reach one package over.
func UnderB() int {
	MuB.Lock()
	defer MuB.Unlock()
	return 1
}
