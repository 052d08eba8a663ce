// Package scope exercises the errdrop rule: discarded error returns and
// ==/!= sentinel comparisons are flagged (the linalg.ErrStopped compare
// carries the cross-package wrapped-with-%w fact), explicit discards
// and errors.Is are fine, and //lint:allow suppresses one drop.
package scope

import (
	"errors"
	"fmt"

	"aeropack/internal/linalg"
)

// ErrScope is a local package-level sentinel.
var ErrScope = errors.New("scope failed")

func mayFail() error { return nil }

// errDeep seeds mayFailDeep with a non-call return; the drop below is
// reported at the wrapper call, not at the error's origin.
var errDeep = errors.New("scope: deep failure")

func mayFailDeep() error { return errDeep }

// wrapDeep is a pass-through wrapper: the error it returns actually
// comes from mayFailDeep.
func wrapDeep() error { return mayFailDeep() }

// DroppedViaWrapper is flagged like any other drop; the rule does not
// follow wrapDeep to mayFailDeep.
func DroppedViaWrapper() {
	wrapDeep()
}

// Dropped is flagged: the error result vanishes.
func Dropped() {
	mayFail()
}

// DroppedDefer is flagged: a deferred call drops its error too.
func DroppedDefer() {
	defer mayFail()
}

// CompareStopped is flagged with the cross-package fact: internal/linalg
// wraps ErrStopped with %w, so == can never match.
func CompareStopped(err error) bool {
	return err == linalg.ErrStopped
}

// CompareLocalSentinel is flagged: package-level sentinel compared with !=.
func CompareLocalSentinel(err error) bool {
	return err != ErrScope
}

// ExplicitDiscard is fine: the blank assignment is a visible decision.
func ExplicitDiscard() {
	_ = mayFail()
}

// Handled is fine.
func Handled() error {
	if err := mayFail(); err != nil {
		return fmt.Errorf("scope: %w", err)
	}
	return nil
}

// IsStopped is fine: errors.Is unwraps.
func IsStopped(err error) bool {
	return errors.Is(err, linalg.ErrStopped)
}

// NilCheck is fine: nil comparison is the canonical success test.
func NilCheck(err error) bool {
	return err == nil
}

// PrintFamily is fine: fmt's print family is exempt.
func PrintFamily() {
	fmt.Println("scope")
}

// Suppressed is tolerated by the trailing allow directive.
func Suppressed() {
	mayFail() //lint:allow errdrop best-effort cleanup, failure changes nothing
}
