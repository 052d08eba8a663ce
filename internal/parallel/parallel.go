// Package parallel is aeropack's stdlib-only worker-pool layer: bounded
// fan-out over slices, built for the embarrassingly parallel sweeps the
// paper's evaluation consists of (power sweeps, technology maps,
// qualification campaigns).
//
// Map takes a workers knob: values <= 0 resolve to Workers(0), 1 selects
// the inline serial path (the default-verifiable baseline), and larger
// values bound the number of goroutines.  Items are dispatched in index
// order and results land in exactly the positions a serial run would
// produce, so callers whose items are independent get bitwise-identical
// output at any worker count.
//
// A panic inside a worker is captured and re-raised in the caller's
// goroutine once every worker has stopped; when several items panic, the
// one with the lowest item index wins, which for a deterministic body is
// the same panic a serial loop would have surfaced.  The
// argument-contract panics of internal/linalg therefore survive pool
// boundaries unchanged.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: n itself when positive,
// otherwise min(runtime.GOMAXPROCS(0), runtime.NumCPU()).  The cap
// matters under `go test -cpu=N` (and any other GOMAXPROCS raised above
// the machine's core count): spawning more workers than cores buys no
// parallelism but pays real synchronisation.  An explicit positive n is
// honoured untouched — oversubscription on purpose stays possible.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	if ncpu := runtime.NumCPU(); runtime.GOMAXPROCS(0) > ncpu {
		return ncpu
	}
	return runtime.GOMAXPROCS(0)
}

// capture records the panic from the lowest-indexed work item so the
// re-raise is deterministic even when several workers panic at once.
type capture struct {
	mu  sync.Mutex
	set bool
	idx int
	val any
}

func (c *capture) record(idx int, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.set || idx < c.idx {
		c.set, c.idx, c.val = true, idx, val
	}
}

// rethrow re-raises a captured worker panic in the caller's goroutine.
func (c *capture) rethrow() {
	if c.set {
		panic(c.val) //lint:allow panicpolicy re-raising a captured worker panic keeps linalg contract checks observable across the pool
	}
}

// Map evaluates fn over items with at most Workers(workers) concurrent
// goroutines and returns the results in input order: out[i] is always
// fn(i, items[i]).  Items are dispatched in index order and no new item
// starts after a failure, so for a deterministic fn the returned error
// is the one a serial scan would have hit first.  A worker panic is
// re-raised in the caller after all workers stop; when both a panic and
// an error occur, whichever has the lower item index wins.
func Map[T, R any](items []T, workers int, fn func(i int, item T) (R, error)) ([]R, error) {
	n := len(items)
	out := make([]R, n)
	if n == 0 {
		return out, nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	po := startPoolObs(w)
	if w == 1 {
		for i, it := range items {
			t0 := po.taskStart()
			po.queueWait(t0)
			r, err := fn(i, it)
			po.taskEnd(t0)
			if err != nil {
				po.finish()
				return nil, err
			}
			out[i] = r
		}
		po.finish()
		return out, nil
	}
	var (
		next    atomic.Int64
		stopped atomic.Bool
		pc      capture
		mu      sync.Mutex
		wg      sync.WaitGroup
	)
	errIdx, firstErr := n, error(nil)
	wg.Add(w)
	for g := 0; g < w; g++ {
		//lint:allow goroleak joined by wg.Wait below, before Map returns
		go func() {
			defer wg.Done()
			for {
				if stopped.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if v := recover(); v != nil {
							pc.record(i, v)
							stopped.Store(true)
						}
					}()
					t0 := po.taskStart()
					po.queueWait(t0)
					r, err := fn(i, items[i])
					po.taskEnd(t0)
					if err != nil {
						mu.Lock()
						if i < errIdx {
							errIdx, firstErr = i, err
						}
						mu.Unlock()
						stopped.Store(true)
						return
					}
					out[i] = r
				}()
			}
		}()
	}
	wg.Wait()
	po.finish()
	if pc.set && pc.idx < errIdx {
		pc.rethrow()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	pc.rethrow()
	return out, nil
}
