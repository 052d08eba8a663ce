package robust

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMapKeepGoingClean(t *testing.T) {
	items := []float64{1, 2, 3, 4}
	out, errs, _ := Map(items, Options{Workers: 2, KeepGoing: true}, nil, func(_ int, v float64) (float64, error) {
		return v * 10, nil
	})
	if len(errs) != 0 {
		t.Fatalf("unexpected errors: %v", errs)
	}
	for i, v := range out {
		if v != items[i]*10 {
			t.Errorf("out[%d] = %v, want %v", i, v, items[i]*10)
		}
	}
}

func TestMapKeepGoingCapturesFailures(t *testing.T) {
	reg := withRegistry(t)
	items := []int{0, 1, 2, 3, 4, 5}
	out, errs, _ := Map(items, Options{Workers: 3, KeepGoing: true},
		func(i int, v int) string { return fmt.Sprintf("item-%d", v) },
		func(_ int, v int) (int, error) {
			if v%2 == 1 {
				return 0, fmt.Errorf("odd item %d", v)
			}
			return v * v, nil
		})
	if len(errs) != 3 {
		t.Fatalf("got %d errors, want 3: %v", len(errs), errs)
	}
	// Errors arrive in index order with their labels and causes intact.
	wantIdx := []int{1, 3, 5}
	for k, pe := range errs {
		if pe.Index != wantIdx[k] {
			t.Errorf("errs[%d].Index = %d, want %d", k, pe.Index, wantIdx[k])
		}
		if want := fmt.Sprintf("item-%d", pe.Index); pe.Label != want {
			t.Errorf("errs[%d].Label = %q, want %q", k, pe.Label, want)
		}
	}
	// Surviving slots hold the computed value, failed slots the zero value.
	for i, v := range out {
		want := 0
		if i%2 == 0 {
			want = i * i
		}
		if v != want {
			t.Errorf("out[%d] = %d, want %d", i, v, want)
		}
	}
	if got := reg.Counter("robust_point_errors_total").Value(); got != 3 {
		t.Errorf("robust_point_errors_total = %d, want 3", got)
	}
}

func TestMapKeepGoingSurvivorsBitwiseIdentical(t *testing.T) {
	powers := []float64{1.1, 2.2, 3.3, 4.4, 5.5}
	solve := func(p float64) float64 { return math.Sqrt(p) * math.Exp(-p/3) }
	clean, _, _ := Map(powers, Options{Workers: 4, KeepGoing: true}, nil, func(_ int, p float64) (float64, error) {
		return solve(p), nil
	})
	faulty, errs, _ := Map(powers, Options{Workers: 4, KeepGoing: true}, nil, func(i int, p float64) (float64, error) {
		if i == 2 {
			return 0, errors.New("injected")
		}
		return solve(p), nil
	})
	if len(errs) != 1 || errs[0].Index != 2 {
		t.Fatalf("errs = %v, want exactly index 2", errs)
	}
	for i := range clean {
		if i == 2 {
			continue
		}
		if math.Float64bits(faulty[i]) != math.Float64bits(clean[i]) {
			t.Errorf("survivor %d not bitwise-identical: %x vs %x",
				i, math.Float64bits(faulty[i]), math.Float64bits(clean[i]))
		}
	}
}

func TestMapKeepGoingPanicsPropagate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic must propagate, not be captured as a PointError")
		}
	}()
	Map([]int{0}, Options{Workers: 1, KeepGoing: true}, nil, func(int, int) (int, error) {
		panic("contract violation")
	})
}

// TestMapAbortsWithoutKeepGoing: without KeepGoing, Map is
// parallel.Map — the lowest-index failure is the error, at any worker
// count, and nothing is captured as a PointError.
func TestMapAbortsWithoutKeepGoing(t *testing.T) {
	reg := withRegistry(t)
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, w := range []int{1, 2, 4, 0} {
		out, errs, err := Map(items, Options{Workers: w}, nil, func(_ int, v int) (int, error) {
			if v == 3 || v == 6 {
				return 0, fmt.Errorf("item %d failed", v)
			}
			return v, nil
		})
		if err == nil || err.Error() != "item 3 failed" || out != nil || errs != nil {
			t.Errorf("workers=%d: out %v, errs %v, err %v; want only the item-3 error", w, out, errs, err)
		}
	}
	if got := reg.Counter("robust_point_errors_total").Value(); got != 0 {
		t.Errorf("robust_point_errors_total = %d, want 0 without KeepGoing", got)
	}
}

// TestStopFreeWhenUnbudgeted: a context that can never be done and
// carries no poll budget yields no predicate, so its solves poll
// nothing.
func TestStopFreeWhenUnbudgeted(t *testing.T) {
	if Stop(context.Background()) != nil {
		t.Error("Stop(Background) must be nil")
	}
	if ctx := WithPollBudget(context.Background(), 0); Stop(ctx) != nil {
		t.Error("a zero poll budget is no budget: Stop must be nil")
	}
}

// TestStopPollBudget: every predicate derived from one context draws on
// one shared counter, concurrently, and fires on the poll after the
// n-th.
func TestStopPollBudget(t *testing.T) {
	ctx := WithPollBudget(context.Background(), 100)
	var wg sync.WaitGroup
	var mu sync.Mutex
	passed := 0
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stop := Stop(ctx)
			for i := 0; i < 50; i++ {
				if !stop() {
					mu.Lock()
					passed++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if passed != 100 {
		t.Errorf("%d polls passed a budget of 100 across 4 workers, want 100", passed)
	}
}

// TestStopFollowsContext: cancellation and a deadline stop the solvers
// as a spent budget does.
func TestStopFollowsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	stop := Stop(ctx)
	if stop == nil || stop() {
		t.Fatal("a live cancelable context must yield a predicate that reports false")
	}
	cancel()
	if !stop() {
		t.Error("the predicate must report true once the context is canceled")
	}
	dl, cancelDl := context.WithTimeout(WithPollBudget(context.Background(), 1<<40), time.Millisecond)
	defer cancelDl()
	<-dl.Done()
	if !Stop(dl)() {
		t.Error("the predicate must report true once the deadline passed")
	}
}

func TestPointErrorFormatting(t *testing.T) {
	cause := errors.New("solver blew up")
	pe := &PointError{Index: 5, Label: "P=60 W", Err: cause}
	if got := pe.Error(); !strings.Contains(got, "point 5 (P=60 W)") || !strings.Contains(got, "solver blew up") {
		t.Errorf("Error() = %q", got)
	}
	if !errors.Is(pe, cause) {
		t.Error("errors.Is must reach the cause through Unwrap")
	}
	bare := &PointError{Index: 2, Err: cause}
	if got := bare.Error(); !strings.Contains(got, "point 2:") {
		t.Errorf("unlabelled Error() = %q", got)
	}
}

func TestFirstError(t *testing.T) {
	if FirstError(nil) != nil {
		t.Error("FirstError(nil) must be nil")
	}
	a := &PointError{Index: 4}
	b := &PointError{Index: 1}
	if got := FirstError([]*PointError{a, b}); got != b {
		t.Errorf("FirstError = %+v, want index 1", got)
	}
}
