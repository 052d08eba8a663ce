package linalg

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomNetworkSystem draws a connected thermal-network system of n
// unknowns: a random tree, chords when withChords, a conductance in
// [0.1, 10) on every edge (repeats included, as parallel resistors), a
// random non-empty set of unknowns tied to pinned neighbours and, when
// transient, a C/dt on a random subset.  It returns the edges, their
// conductances, the diagonal and a right-hand side.
func randomNetworkSystem(rng *rand.Rand, n int, withChords, transient bool) ([][2]int, []float64, []float64, []float64) {
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{rng.Intn(i), i})
	}
	if withChords {
		for c := rng.Intn(n/4 + 2); c > 0 && n > 1; c-- {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	g := make([]float64, len(edges))
	diag := make([]float64, n)
	for e, ed := range edges {
		g[e] = 0.1 + 10*rng.Float64()
		diag[ed[0]] += g[e]
		diag[ed[1]] += g[e]
	}
	b := make([]float64, n)
	pinned := 1 + rng.Intn(n)
	for k := 0; k < pinned; k++ {
		i, gp := rng.Intn(n), 0.1+10*rng.Float64()
		diag[i] += gp
		b[i] += gp * (250 + 100*rng.Float64())
	}
	for i := range b {
		b[i] += 20 * rng.Float64()
		if transient && rng.Intn(2) == 0 {
			c := 50 * rng.Float64()
			diag[i] += c
			b[i] += c * 300
		}
	}
	return edges, g, diag, b
}

// TestLDLTMatchesDense: on random connected trees and trees with chords
// of up to 200 unknowns, with random pinned sets and with and without
// a transient C/dt, the LDLᵀ solution matches dense LU within 1e-12
// relative.
func TestLDLTMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	worst := 0.0
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		withChords, transient := trial%2 == 1, trial%4 >= 2
		edges, g, diag, b := randomNetworkSystem(rng, n, withChords, transient)

		pat, slots := NewLDLT(n, edges)
		f := pat.Clone()
		copy(f.Diag, diag)
		dense := NewDense(n, n)
		for i, d := range diag {
			dense.Set(i, i, d)
		}
		for e, ed := range edges {
			f.Lower[slots[e]] -= g[e]
			dense.Add(ed[0], ed[1], -g[e])
			dense.Add(ed[1], ed[0], -g[e])
		}
		if err := f.Factor(); err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
		want, err := SolveDense(dense, b)
		if err != nil {
			t.Fatal(err)
		}
		x := append([]float64(nil), b...)
		f.Solve(x)
		diff := make([]float64, n)
		for i := range x {
			diff[i] = x[i] - want[i]
		}
		rel := NormInf(diff) / NormInf(want)
		worst = math.Max(worst, rel)
		if !(rel <= 1e-12) {
			t.Errorf("trial %d (n=%d, chords %v, transient %v): relative difference %.3g from dense LU", trial, n, withChords, transient, rel)
		}
	}
	t.Logf("worst relative difference from dense LU: %.3g", worst)
}

// TestLDLTCloneFactorsApart: a clone starts with zeroed values of its
// own over the shared order and pattern, and, assembled with the same
// values, factors and solves to the original's solution bit for bit
// while the original's factor stays as it was.
func TestLDLTCloneFactorsApart(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	edges, g, diag, b := randomNetworkSystem(rng, 40, true, false)
	pat, slots := NewLDLT(len(diag), edges)
	f := pat.Clone()
	assemble := func(f *LDLT, scale float64) {
		for i, d := range diag {
			f.Diag[i] = scale * d
		}
		for e := range edges {
			f.Lower[slots[e]] -= scale * g[e]
		}
	}
	assemble(f, 1)
	if err := f.Factor(); err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(b)
	f.Solve(want)

	c := f.Clone()
	if slices.ContainsFunc(c.Diag, func(v float64) bool { return v != 0 }) ||
		slices.ContainsFunc(c.Lower, func(v float64) bool { return v != 0 }) {
		t.Fatal("a clone must start with zeroed values")
	}
	other := f.Clone()
	assemble(other, 2) // a different system on the same pattern
	assemble(c, 1)
	for _, h := range []*LDLT{other, c} {
		if err := h.Factor(); err != nil {
			t.Fatal(err)
		}
	}
	got := slices.Clone(b)
	c.Solve(got)
	again := slices.Clone(b)
	f.Solve(again)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float64bits(again[i]) != math.Float64bits(want[i]) {
			t.Fatalf("unknown %d: clone %v, original after the clones factored %v, want %v", i, got[i], again[i], want[i])
		}
	}
}

// TestLDLTTreeHasNoFill: minimum degree eliminates a tree leaf first, so
// L holds exactly the tree's edges, and a chord adds a bounded fill.
func TestLDLTTreeHasNoFill(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 500
	var tree [][2]int
	for i := 1; i < n; i++ {
		tree = append(tree, [2]int{rng.Intn(i), i})
	}
	// Repeats are parallel resistors: one entry of L.
	f, slots := NewLDLT(n, append(tree, tree[7]))
	if len(f.colRow) != n-1 {
		t.Errorf("tree L has %d entries, want %d (no fill)", len(f.colRow), n-1)
	}
	if slots[len(slots)-1] != slots[7] {
		t.Error("a repeated edge got its own slot")
	}
	// A ring: one chord on a path fills one entry per eliminated node
	// of the cycle at most.
	var ring [][2]int
	for i := 0; i < n; i++ {
		ring = append(ring, [2]int{i, (i + 1) % n})
	}
	if f, _ := NewLDLT(n, ring); len(f.colRow) > 2*n {
		t.Errorf("ring L has %d entries, want at most %d", len(f.colRow), 2*n)
	}
}

// TestLDLTDeterministicOrder: the order and the fill pattern depend
// only on the graph, not on the order the edges arrive in or the
// direction they are given.
func TestLDLTDeterministicOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edges, _, _, _ := randomNetworkSystem(rng, 120, true, false)
	rev := make([][2]int, len(edges))
	for e, ed := range edges {
		rev[len(edges)-1-e] = [2]int{ed[1], ed[0]}
	}
	f1, _ := NewLDLT(120, edges)
	f2, _ := NewLDLT(120, rev)
	if !slices.Equal(f1.perm, f2.perm) || !slices.Equal(f1.colPtr, f2.colPtr) || !slices.Equal(f1.colRow, f2.colRow) {
		t.Error("reversing the edge list changed the elimination order or the fill pattern")
	}
}

// TestLDLTPivotError: a singular or indefinite matrix fails its
// factorization with a *PivotError naming the unknown whose pivot was
// not positive.
func TestLDLTPivotError(t *testing.T) {
	// A floating pair: [[1, -1], [-1, 1]] eliminates unknown 0 first
	// (ties go to the lowest index) and leaves a zero pivot at 1.
	pat, slots := NewLDLT(2, [][2]int{{0, 1}})
	f := pat.Clone()
	f.Diag[0], f.Diag[1] = 1, 1
	f.Lower[slots[0]] = -1
	var pe *PivotError
	if err := f.Factor(); !errors.As(err, &pe) || pe.Index != 1 || pe.Pivot != 0 {
		t.Errorf("err = %v, want a zero pivot at unknown 1", err)
	}
	// A negative or NaN diagonal on an isolated unknown.
	for _, d := range []float64{-2, math.NaN()} {
		pat, _ := NewLDLT(3, nil)
		f := pat.Clone()
		f.Diag[0], f.Diag[1], f.Diag[2] = 1, 1, d
		if err := f.Factor(); !errors.As(err, &pe) || pe.Index != 2 {
			t.Errorf("diag %v: err = %v, want a pivot error at unknown 2", d, err)
		}
	}
}

// TestLDLTFactorSolveAllocationFree: the numeric phase and the solves
// run in the storage the symbolic phase allocated.
func TestLDLTFactorSolveAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	edges, g, diag, b := randomNetworkSystem(rng, 150, true, true)
	pat, slots := NewLDLT(len(diag), edges)
	f := pat.Clone()
	x := make([]float64, len(b))
	allocs := testing.AllocsPerRun(10, func() {
		copy(f.Diag, diag)
		clear(f.Lower)
		for e := range edges {
			f.Lower[slots[e]] -= g[e]
		}
		if err := f.Factor(); err != nil {
			t.Fatal(err)
		}
		copy(x, b)
		f.Solve(x)
	})
	if allocs != 0 {
		t.Errorf("Factor+Solve allocate %v times per call, want 0", allocs)
	}
}
