// Package scope exercises the cross-package side of the lockheld rule:
// a call into another package of the module under a held mutex is
// flagged whatever the callee does, because a check of one body cannot
// see whether the callee blocks or takes a lock of its own.
// //lint:allow suppresses one call.
package scope

import (
	"sync"

	"aeropack/internal/lint/testdata/ipahelp"
)

var mu sync.Mutex

// RecvViaHelper is flagged: the helper lives in another module package
// (it blocks on a channel receive) and mu is held.
func RecvViaHelper(c chan int) int {
	mu.Lock()
	v := ipahelp.Recv(c)
	mu.Unlock()
	return v
}

// RecvTwoDeep is flagged at the first hop: RecvIndirect → Recv.
func RecvTwoDeep(c chan int) int {
	mu.Lock()
	v := ipahelp.RecvIndirect(c)
	mu.Unlock()
	return v
}

// PureHelperOK is flagged too, although ipahelp.Pure cannot block.
func PureHelperOK() int {
	mu.Lock()
	v := ipahelp.Pure()
	mu.Unlock()
	return v
}

// Suppressed is tolerated by the trailing allow directive.
func Suppressed(c chan int) int {
	mu.Lock()
	v := ipahelp.Recv(c) //lint:allow lockheld fixture: the channel is buffered and always ready
	mu.Unlock()
	return v
}
