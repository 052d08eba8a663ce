// Package scope exercises spanleak on spans handed to another package's
// helper.  The rule reads no callee: whether the helper merely uses the
// span, ends it or stores it, the start is flagged unless the next
// statement is `defer sp.End()`, so a hand-off can never decide who
// ends the span.  DeferOK below is the one accepted shape.
// //lint:allow suppresses one start site.
package scope

import (
	"errors"

	"aeropack/internal/lint/testdata/ipahelp"
	"aeropack/internal/obs"
)

// LeakViaHelper is flagged: ipahelp.Annotate sits between the start
// and the End, and the early return leaks sp.
func LeakViaHelper(fail bool) error {
	sp := obs.Start(nil, "scope.ipa.leak")
	ipahelp.Annotate(sp)
	if fail {
		return errors.New("early")
	}
	sp.End()
	return nil
}

// DeferredHelperEnd is flagged: the deferred helper does end the span,
// but only `defer sp.End()` is the accepted shape.
func DeferredHelperEnd(fail bool) error {
	sp := obs.Start(nil, "scope.ipa.deferred")
	defer ipahelp.Finish(sp)
	if fail {
		return errors.New("early")
	}
	return nil
}

// ExplicitHelperEnd is flagged: the helper ends the span explicitly.
func ExplicitHelperEnd() int {
	sp := obs.Start(nil, "scope.ipa.explicit")
	ipahelp.Finish(sp)
	return 1
}

// Handoff is flagged: the helper stores the span, and the rule does
// not let ownership move with a call.
func Handoff() {
	sp := obs.Start(nil, "scope.ipa.handoff")
	ipahelp.Keep(sp)
}

// Suppressed is tolerated by the preceding allow directive.
func Suppressed() {
	//lint:allow spanleak deliberate leak through a helper for the golden test
	sp := obs.Start(nil, "scope.ipa.allowed")
	ipahelp.Annotate(sp)
}

// DeferOK is fine: the helper runs after the defer, which ends sp on
// every path.
func DeferOK(fail bool) error {
	sp := obs.Start(nil, "scope.ipa.defer")
	defer sp.End()
	ipahelp.Annotate(sp)
	if fail {
		return errors.New("early")
	}
	return nil
}
