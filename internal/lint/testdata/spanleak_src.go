// Package scope exercises the spanleak rule: a span start that is not
// assigned to a local and followed by `defer <local>.End()` is flagged,
// whether it leaks, ends explicitly, sits under a nil guard or escapes,
// and //lint:allow suppresses one start site.
package scope

import (
	"context"
	"errors"

	"aeropack/internal/obs"
)

// LeakEarlyReturn is flagged: the error return leaks sp.
func LeakEarlyReturn(fail bool) error {
	sp := obs.Start(nil, "scope.leaky")
	if fail {
		return errors.New("early")
	}
	sp.End()
	return nil
}

// LeakFallsOffEnd is flagged: sp is never ended before the closing
// brace.
func LeakFallsOffEnd() {
	sp := obs.Start(nil, "scope.noend")
	sp.Attr("k", "v")
}

// DeferOK is fine: the canonical defer covers every path.
func DeferOK(fail bool) error {
	sp := obs.Start(nil, "scope.defer")
	defer sp.End()
	if fail {
		return errors.New("early")
	}
	return nil
}

// Explicit is flagged: End appears before each return and the early
// return sits under the span-disabled nil guard, but only the deferred
// End is the accepted shape.
func Explicit(n int) int {
	sp := obs.Start(nil, "scope.explicit")
	if sp == nil {
		return n
	}
	sp.AttrInt("n", n)
	sp.End()
	return n + 1
}

// Escape is flagged: the span is handed to the caller, and the rule does
// not follow the hand-off.
func Escape() *obs.Span {
	sp := obs.Start(nil, "scope.escape")
	sp.Attr("owner", "caller")
	return sp
}

// Child is flagged: a child span with an explicit End before the lone
// return.
func Child(parent *obs.Span) int {
	sp := parent.Start("scope.child")
	sp.End()
	return 1
}

// ChildDeferOK is fine: a child span with the canonical defer.
func ChildDeferOK(parent *obs.Span) int {
	sp := parent.Start("scope.child.defer")
	defer sp.End()
	sp.AttrInt("n", 1)
	return 1
}

// ContextOK is fine: StartContext's span, deferred on the next line.
func ContextOK(ctx context.Context) context.Context {
	ctx, sp := obs.StartContext(ctx, "scope.context")
	defer sp.End()
	return ctx
}

// AttrBeforeDefer is flagged: attributes sit between the start and the
// defer, so a panic in them would leak the span.
func AttrBeforeDefer(n int) {
	sp := obs.Start(nil, "scope.attr")
	sp.AttrInt("n", n)
	defer sp.End()
}

// Discarded is flagged: the span is never bound to a local.
func Discarded() {
	obs.Start(nil, "scope.discarded").End()
}

// Suppressed is tolerated by the preceding allow directive.
func Suppressed(fail bool) error {
	//lint:allow spanleak deliberate leak demonstrating the escape hatch
	sp := obs.Start(nil, "scope.allowed")
	if fail {
		return errors.New("early")
	}
	sp.End()
	return nil
}
