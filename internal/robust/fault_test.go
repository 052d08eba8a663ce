package robust

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"aeropack/internal/linalg"
)

func TestFaultyMatrixDeterministic(t *testing.T) {
	a, _ := spdSystem(50)
	orig := append([]float64(nil), a.Val...)
	f1 := FaultyMatrix(7, a, 0.5, 0.1)
	f2 := FaultyMatrix(7, a, 0.5, 0.1)
	for i := range f1.Val {
		if math.Float64bits(f1.Val[i]) != math.Float64bits(f2.Val[i]) {
			t.Fatalf("same seed diverged at entry %d: %v vs %v", i, f1.Val[i], f2.Val[i])
		}
	}
	for i := range orig {
		if a.Val[i] != orig[i] {
			t.Fatalf("input matrix modified at entry %d", i)
		}
	}
	changed := 0
	for i := range f1.Val {
		if f1.Val[i] != orig[i] {
			changed++
		}
	}
	if changed == 0 {
		t.Error("frac=0.5 perturbed nothing")
	}
	if f3 := FaultyMatrix(8, a, 1, 0.1); func() int {
		n := 0
		for i := range f3.Val {
			if f3.Val[i] != orig[i] {
				n++
			}
		}
		return n
	}() != len(orig) {
		t.Error("frac=1 must perturb every entry")
	}
}

func TestFaultyMatrixDifferentSeedsDiffer(t *testing.T) {
	a, _ := spdSystem(50)
	f1 := FaultyMatrix(1, a, 1, 0.1)
	f2 := FaultyMatrix(2, a, 1, 0.1)
	same := true
	for i := range f1.Val {
		if f1.Val[i] != f2.Val[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical perturbations")
	}
}

func TestFaultyRHSRejectedByCheckFinite(t *testing.T) {
	a, b := spdSystem(50)
	orig := append([]float64(nil), b...)
	bad := FaultyRHS(3, b, 4)
	for i := range orig {
		if math.Float64bits(b[i]) != math.Float64bits(orig[i]) {
			t.Fatalf("input RHS modified at entry %d", i)
		}
	}
	poisoned := 0
	for _, v := range bad {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			poisoned++
		}
	}
	if poisoned == 0 || poisoned > 4 {
		t.Fatalf("poisoned %d entries, want 1..4", poisoned)
	}
	_, _, err := linalg.CG(a, bad, nil, nil, 1e-10, 100)
	if err == nil || !strings.Contains(err.Error(), "input entry") {
		t.Fatalf("CG on poisoned RHS: err = %v, want checkFinite rejection", err)
	}
	// Same seed, same poison pattern.
	bad2 := FaultyRHS(3, b, 4)
	for i := range bad {
		if math.Float64bits(bad[i]) != math.Float64bits(bad2[i]) {
			t.Fatalf("same seed diverged at entry %d", i)
		}
	}
}

func TestFaultyRHSClampsCount(t *testing.T) {
	b := []float64{1, 2}
	bad := FaultyRHS(1, b, 10)
	if len(bad) != 2 {
		t.Fatalf("len = %d, want 2", len(bad))
	}
}

func TestFaultyStopForcesBailout(t *testing.T) {
	a, b := spdSystem(200)
	stop := FaultyStop(2)
	_, stats, err := linalg.CGOpt(a, b, nil, &linalg.IterOptions{
		Tol: 1e-12, MaxIter: 1000, Stop: stop,
	})
	if !errors.Is(err, linalg.ErrStopped) {
		t.Fatalf("err = %v, want wrapped linalg.ErrStopped", err)
	}
	if stats.Iterations != 3 {
		t.Errorf("stopped after %d iterations, want 3 (2 allowed polls)", stats.Iterations)
	}
}

func TestFaultyStallDeterministicAcrossWorkers(t *testing.T) {
	// The stall decision depends only on (seed, index), so a campaign
	// with stalled workers must still produce identical results at any
	// worker count.
	stall := FaultyStall(42, 0.4, time.Millisecond)
	items := make([]int, 24)
	for i := range items {
		items[i] = i
	}
	run := func(workers int) []int {
		out, errs, _ := Map(items, Options{Workers: workers, KeepGoing: true}, nil, func(i, v int) (int, error) {
			stall(i)
			return v * v, nil
		})
		if len(errs) != 0 {
			t.Fatalf("unexpected errors: %v", errs)
		}
		return out
	}
	serial := run(1)
	parallelOut := run(8)
	for i := range serial {
		if serial[i] != parallelOut[i] {
			t.Fatalf("stalled campaign diverged at %d: %d vs %d", i, serial[i], parallelOut[i])
		}
	}
}

func TestFaultyStallFraction(t *testing.T) {
	// splitmix is uniform: over many indices the stalled fraction must
	// track frac.  Zero-duration sleeps keep the test fast.
	const n, frac = 4000, 0.25
	stalled := 0
	stall := FaultyStall(9, frac, 0)
	for i := 0; i < n; i++ {
		stall(i) // zero-duration stalls keep the walk fast
		if splitmix(uint64(9)^uint64(i)*0x9e3779b97f4a7c15) < frac {
			stalled++
		}
	}
	got := float64(stalled) / n
	if math.Abs(got-frac) > 0.05 {
		t.Errorf("stalled fraction %.3f, want ≈%.2f", got, frac)
	}
}
