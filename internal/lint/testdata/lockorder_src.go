// Fixture for the lock-order half of the lockheld rule: no body takes a
// second lock, or calls into another module package, while it holds one,
// so no two bodies can take the same two locks in opposite orders.
package cosee

import (
	"sync"

	"aeropack/internal/lint/testdata/ipahelp"
)

var local sync.Mutex

// aThenB is flagged: it calls into ipahelp, whose UnderB takes MuB,
// while it holds MuA.
func aThenB() int {
	ipahelp.MuA.Lock()
	defer ipahelp.MuA.Unlock()
	return ipahelp.UnderB() // want: call into another module package
}

// bThenA is flagged: it takes MuA while it holds MuB.
func bThenA() {
	ipahelp.MuB.Lock()
	ipahelp.MuA.Lock() // want: second lock
	ipahelp.MuA.Unlock()
	ipahelp.MuB.Unlock()
}

// ordered is flagged too: its local→MuB order happens to be consistent,
// but a body-local check cannot see what UnderB locks.
func ordered() int {
	local.Lock()
	defer local.Unlock()
	return ipahelp.UnderB() // want: call into another module package
}

// reenter re-acquires a mutex it already holds — an immediate
// self-deadlock, suppressed here as the allow-directive demo.
func reenter() {
	local.Lock()
	local.Lock() //lint:allow lockheld deliberate self-deadlock demo
	local.Unlock()
	local.Unlock()
}
