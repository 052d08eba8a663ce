package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	// Explicit positive counts are honoured untouched, even above the
	// core count (deliberate oversubscription stays possible).
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	// The default resolves to min(GOMAXPROCS, NumCPU): under `go test
	// -cpu=N` with N above the machine's cores, spawning N workers would
	// only buy synchronisation overhead.
	want := runtime.GOMAXPROCS(0)
	if ncpu := runtime.NumCPU(); want > ncpu {
		want = ncpu
	}
	if got := Workers(0); got != want {
		t.Errorf("Workers(0) = %d, want min(GOMAXPROCS, NumCPU) = %d", got, want)
	}
	if got := Workers(-5); got != want {
		t.Errorf("Workers(-5) = %d, want min(GOMAXPROCS, NumCPU) = %d", got, want)
	}
}

func TestMapVisitsEachIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 13} {
		const n = 101
		counts := make([]int32, n)
		if _, err := Map(make([]int, n), workers, func(i, _ int) (int, error) {
			atomic.AddInt32(&counts[i], 1)
			return i, nil
		}); err != nil {
			t.Fatal(err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestMapPanicLowestIndexWins(t *testing.T) {
	// Every item panics; the deterministic winner is the lowest index,
	// which is what a serial loop would surface first.
	defer func() {
		if v := recover(); v != "boom-0" {
			t.Fatalf("recovered %v, want boom-0", v)
		}
	}()
	_, _ = Map(make([]int, 40), 4, func(i, _ int) (int, error) { panic(fmt.Sprintf("boom-%d", i)) })
}

func TestMapOrderingAndEquivalence(t *testing.T) {
	items := make([]int, 97)
	for i := range items {
		items[i] = i * 3
	}
	want, err := Map(items, 1, func(i, v int) (string, error) {
		return fmt.Sprintf("%d:%d", i, v), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		got, err := Map(items, workers, func(i, v int) (string, error) {
			return fmt.Sprintf("%d:%d", i, v), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %q, want %q", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMapFirstErrorByIndex(t *testing.T) {
	items := make([]int, 64)
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for _, workers := range []int{1, 4, 8} {
		_, err := Map(items, workers, func(i, _ int) (int, error) {
			switch i {
			case 11:
				return 0, errLow
			case 50:
				return 0, errHigh
			}
			return i, nil
		})
		if !errors.Is(err, errLow) {
			t.Fatalf("workers=%d: err = %v, want the lowest-index error", workers, err)
		}
	}
}

func TestMapPanicPropagation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if v := recover(); v != "map-boom" {
					t.Fatalf("workers=%d: recovered %v, want map-boom", workers, v)
				}
			}()
			_, _ = Map(make([]int, 32), workers, func(i, _ int) (int, error) {
				if i == 5 {
					panic("map-boom")
				}
				return i, nil
			})
		}()
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(nil, 4, func(i, v int) (int, error) { return v, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("Map(nil) = %v, %v", out, err)
	}
}

// TestMapJoinsItsWorkers checks Map's join: once three concurrent Maps
// return, one clean, one with a failing item and one with a panicking
// item, the goroutine count is back where it started within a second.
// Every item sleeps until a moment past that second, so a Map that
// returned without waiting would leave its workers running through the
// whole window.
func TestMapJoinsItsWorkers(t *testing.T) {
	const window = time.Second
	base := runtime.NumGoroutine()
	hold := time.Now().Add(window + window/5)
	var wg sync.WaitGroup
	for _, fault := range []string{"none", "error", "panic"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil && fault != "panic" {
					t.Errorf("fault %s: unexpected panic %v", fault, v)
				}
			}()
			_, err := Map(make([]int, 8), 4, func(i, _ int) (int, error) {
				time.Sleep(time.Until(hold))
				switch {
				case i != 5:
				case fault == "error":
					return 0, errors.New("item 5 failed")
				case fault == "panic":
					panic("item 5 panicked")
				}
				return i, nil
			})
			if (err != nil) != (fault == "error") {
				t.Errorf("fault %s: err = %v", fault, err)
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(window)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines a second after the Maps returned, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
