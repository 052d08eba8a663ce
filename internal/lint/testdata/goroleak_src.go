// Package scope exercises the goroleak rule: every go statement in
// library code is flagged, whether or not a join sits next to it, so a
// legitimate launch carries a //lint:allow goroleak directive naming
// its join; Suppressed is the one such launch here.  The rule reads no
// callee, so the ipahelp helpers change nothing.
package scope

import (
	"sync"

	"aeropack/internal/lint/testdata/ipahelp"
)

// FireAndForget is flagged: nothing joins or cancels the goroutine.
func FireAndForget(work func()) {
	go func() {
		work()
	}()
}

// HelperDrift is flagged across the package boundary: ipahelp.Drift
// neither signals a WaitGroup nor consumes a cancellation channel.
func HelperDrift(c chan int) {
	go ipahelp.Drift(c)
}

// JoinedOK is flagged too: the rule does not search for the Wait.
func JoinedOK(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
		}()
	}
	wg.Wait()
}

// SelfManagedOK is flagged: the goroutine marks the caller-owned group
// done, but only a directive can say who Waits.
func SelfManagedOK(wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
	}()
}

// HelperWorkerOK is flagged: ipahelp.Worker marks the group done, but
// the rule reads no callee.
func HelperWorkerOK(wg *sync.WaitGroup, c chan int) {
	wg.Add(1)
	go ipahelp.Worker(wg, c)
}

// Suppressed is tolerated by the preceding allow directive.
func Suppressed(work func()) {
	//lint:allow goroleak joined by process exit: a detached telemetry flusher
	go func() { work() }()
}
