package robust

import (
	"math"
	"math/rand"
	"time"

	"aeropack/internal/linalg"
)

// The Faulty* constructors build deterministic faults for tests: every
// injector is driven by an explicit seed (or an explicit call count), so
// a failing degraded-path test reproduces byte-for-byte on re-run, and
// running under go test -race costs no determinism.

// FaultyMatrix returns a perturbed copy of a: a seeded fraction frac of
// the stored entries are scaled by a random factor within ±rel of 1.
// The input matrix is never modified, so the clean and faulty systems
// can be solved side by side.  With frac ≥ 1 every entry is perturbed.
func FaultyMatrix(seed int64, a *linalg.CSR, frac, rel float64) *linalg.CSR {
	out := &linalg.CSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: append([]int(nil), a.RowPtr...),
		ColIdx: append([]int(nil), a.ColIdx...),
		Val:    append([]float64(nil), a.Val...),
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range out.Val {
		if rng.Float64() < frac {
			out.Val[i] *= 1 + rel*(2*rng.Float64()-1)
		}
	}
	return out
}

// FaultyRHS returns a copy of b with n entries poisoned at seeded
// positions, alternating NaN and +Inf — the inputs checkFinite must
// reject before an iterative solve is allowed to start.  n is clamped
// to len(b).
func FaultyRHS(seed int64, b []float64, n int) []float64 {
	out := append([]float64(nil), b...)
	if n > len(out) {
		n = len(out)
	}
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < n; k++ {
		i := rng.Intn(len(out))
		if k%2 == 0 {
			out[i] = math.NaN()
		} else {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// FaultyStop returns an IterOptions.Stop callback that forces solver
// bailout: it reports false for the first after polls and
// true from then on, aborting the solve with linalg.ErrStopped.  The
// returned callback is stateful and single-goroutine, like the solver
// loop that polls it; use one per solve.
func FaultyStop(after int) func() bool {
	calls := 0
	return func() bool {
		calls++
		return calls > after
	}
}

// FaultyStall returns a per-index delay hook for parallel campaigns: a
// seeded fraction frac of indices sleep for d when the returned func is
// invoked, emulating stalled pool workers.  The stall decision depends
// only on (seed, index) — not on call order — so it is deterministic at
// any worker count.  Campaign functions call it at the top of each
// point's work.
func FaultyStall(seed int64, frac float64, d time.Duration) func(i int) {
	return func(i int) {
		if splitmix(uint64(seed)^uint64(i)*0x9e3779b97f4a7c15) < frac {
			time.Sleep(d)
		}
	}
}

// splitmix hashes x to a uniform float64 in [0, 1) — SplitMix64's
// finalizer, giving FaultyStall a stateless per-index coin flip.
func splitmix(x uint64) float64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}
