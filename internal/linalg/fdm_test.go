package linalg

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"aeropack/internal/mesh"
)

// randomAxis returns a seeded random axis: couplings and masses drawn
// from bounded ranges (non-uniform cells), plus a boundary conductance
// at each end that is zero (an adiabatic, Neumann end) when the flag
// says so.
func randomAxis(rng *rand.Rand, n int, lowOpen, highOpen bool) Axis {
	ax := Axis{Diag: make([]float64, n), Off: make([]float64, n-1), Mass: make([]float64, n)}
	for i := range ax.Mass {
		ax.Mass[i] = 0.3 + 2.7*rng.Float64()
	}
	for i := range ax.Off {
		g := 0.5 + rng.Float64()
		ax.Off[i] = -g
		ax.Diag[i] += g
		ax.Diag[i+1] += g
	}
	if lowOpen {
		ax.Diag[0] += 0.2 + rng.Float64()
	}
	if highOpen {
		ax.Diag[n-1] += 0.2 + rng.Float64()
	}
	return ax
}

// mirroredAxis returns a seeded random axis that equals its mirror image
// to rounding, as uniform cells with equal end conditions do: random
// couplings and masses copied to their mirror positions, every copy
// perturbed by up to 1e-14 relative, and at each end the same boundary
// conductance, zero (a Neumann end) unless robin.
func mirroredAxis(rng *rand.Rand, n int, robin bool) Axis {
	ax := Axis{Diag: make([]float64, n), Off: make([]float64, n-1), Mass: make([]float64, n)}
	jitter := func(v float64) float64 { return v * (1 + 1e-14*(2*rng.Float64()-1)) }
	for i, j := 0, n-1; i <= j; i, j = i+1, j-1 {
		m := 0.3 + 2.7*rng.Float64()
		ax.Mass[i], ax.Mass[j] = jitter(m), jitter(m)
	}
	for i, j := 0, n-2; i <= j; i, j = i+1, j-1 {
		g := 0.5 + rng.Float64()
		ax.Off[i], ax.Off[j] = -jitter(g), -jitter(g)
	}
	for i, g := range ax.Off {
		ax.Diag[i] -= g
		ax.Diag[i+1] -= g
	}
	if robin {
		film := 0.2 + rng.Float64()
		ax.Diag[0] += film
		ax.Diag[n-1] += jitter(film)
	}
	return ax
}

// axisDense expands an axis into dense T and M.
func axisDense(ax Axis) (t, m *Dense) {
	n := len(ax.Diag)
	t, m = NewDense(n, n), NewDense(n, n)
	for i := 0; i < n; i++ {
		t.Set(i, i, ax.Diag[i])
		m.Set(i, i, ax.Mass[i])
		if i+1 < n {
			t.Set(i, i+1, ax.Off[i])
			t.Set(i+1, i, ax.Off[i])
		}
	}
	return t, m
}

// kronSumDense assembles M_z⊗M_y⊗T_x + M_z⊗T_y⊗M_x + T_z⊗M_y⊗M_x over
// cells numbered i + n_x·(j + n_y·k).
func kronSumDense(axes [3]Axis) *Dense {
	var tt, mm [3]*Dense
	for d := range axes {
		tt[d], mm[d] = axisDense(axes[d])
	}
	nx, ny, nz := len(axes[0].Diag), len(axes[1].Diag), len(axes[2].Diag)
	n := nx * ny * nz
	a := NewDense(n, n)
	for r := 0; r < n; r++ {
		ri, rj, rk := r%nx, (r/nx)%ny, r/(nx*ny)
		for c := 0; c < n; c++ {
			ci, cj, ck := c%nx, (c/nx)%ny, c/(nx*ny)
			v := mm[2].At(rk, ck)*mm[1].At(rj, cj)*tt[0].At(ri, ci) +
				mm[2].At(rk, ck)*tt[1].At(rj, cj)*mm[0].At(ri, ci) +
				tt[2].At(rk, ck)*mm[1].At(rj, cj)*mm[0].At(ri, ci)
			a.Set(r, c, v)
		}
	}
	return a
}

// kronSumLDLT factors the same Kronecker sum by sparse LDLᵀ, assembled
// entry by entry from the axes.  It is the exact reference past a few
// hundred cells, where a dense Cholesky factor takes half a minute
// under -race.
func kronSumLDLT(t *testing.T, axes [3]Axis) *LDLT {
	t.Helper()
	dims := [3]int{len(axes[0].Diag), len(axes[1].Diag), len(axes[2].Diag)}
	stride := [3]int{1, dims[0], dims[0] * dims[1]}
	n := dims[0] * dims[1] * dims[2]
	diag := make([]float64, n)
	var edges [][2]int
	var lower []float64
	for q := range diag {
		c := [3]int{q % dims[0], q / dims[0] % dims[1], q / stride[2]}
		for d, ax := range axes {
			w := 1.0 // the masses of the other two axes
			for e := range axes {
				if e != d {
					w *= axes[e].Mass[c[e]]
				}
			}
			diag[q] += ax.Diag[c[d]] * w
			if c[d]+1 < dims[d] {
				edges = append(edges, [2]int{q, q + stride[d]})
				lower = append(lower, ax.Off[c[d]]*w)
			}
		}
	}
	pattern, slots := NewLDLT(n, edges)
	f := pattern.Clone()
	copy(f.Diag, diag)
	for e, slot := range slots {
		f.Lower[slot] += lower[e]
	}
	if err := f.Factor(); err != nil {
		t.Fatal(err)
	}
	return f
}

// relErr returns ‖got − want‖/‖want‖.
func relErr(got, want []float64) float64 {
	d := make([]float64, len(got))
	for i := range d {
		d[i] = got[i] - want[i]
	}
	return Norm2(d) / Norm2(want)
}

// TestFDMPrecMatchesDenseInverse checks Apply against a direct solve of
// the assembled Kronecker sum: sizes of one, non-uniform masses, and
// singular all-Neumann axes paired with SPD ones, so the kept axis and
// the diagonalized pair each take every role.  Mirrored axes of 1–8, 40
// and 41 cells, with Neumann or Robin ends, are diagonalized at unit
// stride and at larger strides, where all but the single-cell ones
// split.  Sums of up to 512 cells are solved by a dense Cholesky
// factor, larger ones by sparse LDLᵀ.
func TestFDMPrecMatchesDenseInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	type open struct{ lo, hi, mirror bool }
	spd, neumann, oneSided := open{true, true, false}, open{false, false, false}, open{true, false, false}
	mRobin, mNeumann := open{true, true, true}, open{false, false, true}
	cases := []struct {
		dims [3]int
		bc   [3]open
	}{
		{[3]int{5, 4, 3}, [3]open{spd, spd, spd}},
		{[3]int{1, 1, 1}, [3]open{spd, neumann, neumann}},
		{[3]int{1, 6, 2}, [3]open{neumann, oneSided, neumann}},
		{[3]int{7, 1, 3}, [3]open{neumann, neumann, spd}},
		{[3]int{3, 8, 2}, [3]open{neumann, spd, neumann}},
		{[3]int{9, 5, 2}, [3]open{oneSided, neumann, neumann}},
		{[3]int{4, 4, 4}, [3]open{neumann, neumann, oneSided}},
		{[3]int{6, 6, 1}, [3]open{neumann, neumann, spd}},
		{[3]int{2, 3, 4}, [3]open{mRobin, mNeumann, neumann}},
		{[3]int{4, 7, 8}, [3]open{mNeumann, mRobin, oneSided}},
		{[3]int{8, 3, 8}, [3]open{mRobin, mNeumann, neumann}},
		{[3]int{1, 7, 7}, [3]open{mRobin, mNeumann, neumann}},
		{[3]int{7, 2, 3}, [3]open{neumann, mNeumann, mRobin}},
		{[3]int{8, 1, 4}, [3]open{spd, mNeumann, mRobin}},
		{[3]int{40, 41, 1}, [3]open{mRobin, neumann, mNeumann}},
		{[3]int{42, 41, 1}, [3]open{oneSided, mNeumann, mRobin}},
	}
	for _, c := range cases {
		var axes [3]Axis
		for d, bc := range c.bc {
			if bc.mirror {
				axes[d] = mirroredAxis(rng, c.dims[d], bc.lo)
			} else {
				axes[d] = randomAxis(rng, c.dims[d], bc.lo, bc.hi)
			}
		}
		p, err := NewFDMPrec(axes, nil)
		if err != nil {
			t.Fatalf("dims %v: %v", c.dims, err)
		}
		for d, e := range p.eig {
			if want := c.bc[d].mirror && c.dims[d] > 1; e != nil && e.split() != want {
				t.Errorf("dims %v: axis %d split %v, want %v", c.dims, d, e.split(), want)
			}
		}
		n := c.dims[0] * c.dims[1] * c.dims[2]
		var solve func([]float64) []float64
		if n <= 512 {
			chol, err := FactorCholesky(kronSumDense(axes))
			if err != nil {
				t.Fatalf("dims %v: dense reference: %v", c.dims, err)
			}
			solve = chol.Solve
		} else {
			f := kronSumLDLT(t, axes)
			solve = func(r []float64) []float64 {
				x := slices.Clone(r)
				f.Solve(x)
				return x
			}
		}
		for trial := 0; trial < 3; trial++ {
			r := make([]float64, n)
			for i := range r {
				r[i] = 2*rng.Float64() - 1
			}
			z := make([]float64, n)
			p.Apply(r, z)
			if e := relErr(z, solve(r)); e > 1e-12 {
				t.Errorf("dims %v: Apply differs from the direct inverse by %.3g relative", c.dims, e)
			}
		}
	}
}

// TestKronSumMatchesDense checks KronSum.MulVec against the dense
// Kronecker sum plus its diagonal, within 1e-13 relative, on random
// axes of 1–9 cells with graded masses and a random diagonal, into a
// fresh y and into y = x.  With the axes' end terms moved onto the
// diagonal, as a separable FV pass writes its boundary cells, CG on the
// KronSum preconditioned by FDMPrec over the whole axes converges in
// one iteration.
func TestKronSumMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	solved := 0
	for trial := 0; trial < 60; trial++ {
		// Interior axes have no end terms (Neumann ends); the whole axes
		// add a random boundary conductance at some ends.
		var whole, interior [3]Axis
		var dims [3]int
		var ends [3][2]float64
		for d := range whole {
			dims[d] = 1 + rng.Intn(9)
			interior[d] = randomAxis(rng, dims[d], false, false)
			whole[d] = Axis{Diag: slices.Clone(interior[d].Diag), Off: interior[d].Off, Mass: interior[d].Mass}
			for e := range ends[d] {
				if rng.Intn(3) > 0 {
					ends[d][e] = 0.2 + rng.Float64()
				}
			}
			whole[d].Diag[0] += ends[d][0]
			whole[d].Diag[dims[d]-1] += ends[d][1]
		}
		n := dims[0] * dims[1] * dims[2]
		k := &KronSum{Axes: interior, Diag: make([]float64, n)}
		for i := range k.Diag {
			k.Diag[i] = 3 * rng.Float64()
		}
		ref := kronSumDense(interior)
		for i, v := range k.Diag {
			ref.Add(i, i, v)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = 2*rng.Float64() - 1
		}
		want := ref.MulVec(x)
		if e := relErr(k.MulVec(x, nil), want); e > 1e-13 {
			t.Errorf("dims %v: MulVec differs from the dense sum by %.3g relative", dims, e)
		}
		y := slices.Clone(x)
		if got := k.MulVec(y, y); &got[0] != &y[0] || relErr(got, want) > 1e-13 {
			t.Errorf("dims %v: MulVec into y = x differs from the dense sum by %.3g relative", dims, relErr(got, want))
		}

		stride := [3]int{1, dims[0], dims[0] * dims[1]}
		for q := range k.Diag {
			k.Diag[q] = 0
			for d := range dims {
				w := 1.0 // the cell's cross-section across axis d
				for e := range dims {
					if e != d {
						w *= interior[e].Mass[q/stride[e]%dims[e]]
					}
				}
				c := q / stride[d] % dims[d]
				if c == 0 {
					k.Diag[q] += ends[d][0] * w
				}
				if c == dims[d]-1 {
					k.Diag[q] += ends[d][1] * w
				}
			}
		}
		p, err := NewFDMPrec(whole, nil)
		if err != nil {
			continue // an all-Neumann sum is singular
		}
		_, stats, err := CG(k, x, nil, p, 1e-10, 5)
		if err != nil || stats.Iterations != 1 {
			t.Errorf("dims %v: CG on the KronSum took %d iterations (%v), want 1", dims, stats.Iterations, err)
		}
		solved++
	}
	if solved < 50 {
		t.Errorf("only %d of 60 sums were not singular", solved)
	}
}

// TestFDMPrecReusesUnchangedAxes checks the prev argument: an axis whose
// factors are unchanged keeps its eigendecomposition, a changed one is
// re-diagonalized, and the rebuilt instance still inverts the new sum.
func TestFDMPrecReusesUnchangedAxes(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	axes := [3]Axis{randomAxis(rng, 9, false, false), randomAxis(rng, 5, false, false), randomAxis(rng, 3, true, true)}
	first, err := NewFDMPrec(axes, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.keep != 0 || first.eig[0] != nil {
		t.Fatalf("kept axis %d, want the longest (0)", first.keep)
	}
	moved := axes
	moved[2] = randomAxis(rng, 3, true, true)
	second, err := NewFDMPrec(moved, first)
	if err != nil {
		t.Fatal(err)
	}
	if second.eig[1] != first.eig[1] {
		t.Error("unchanged y axis was re-diagonalized")
	}
	if second.eig[2] == first.eig[2] {
		t.Error("changed z axis kept the stale eigendecomposition")
	}
	chol, err := FactorCholesky(kronSumDense(moved))
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, 9*5*3)
	for i := range r {
		r[i] = rng.Float64()
	}
	z := make([]float64, len(r))
	second.Apply(r, z)
	if e := relErr(z, chol.Solve(r)); e > 1e-12 {
		t.Errorf("rebuilt Apply differs from the dense inverse by %.3g relative", e)
	}
}

// eigenpairs expands e into its eigenvalues, ascending, and their
// eigenvectors: each mode's column of its block's Q, mapped through the
// butterfly (rows i and n−1−i to their sum and difference) when the
// axis splits.  It also checks every block's fwd is its bwd transposed.
func eigenpairs(t *testing.T, e *axisEigen) ([]float64, [][]float64) {
	t.Helper()
	n := len(e.lambda)
	type pair struct {
		lambda float64
		v      []float64
	}
	var pairs []pair
	for b := 0; b < 2; b++ {
		r0, m, base := e.block(b)
		for q := 0; q < m; q++ {
			v := make([]float64, n)
			for i := 0; i < m; i++ {
				v[r0+i] = e.bwd[base+i*m+q]
				if e.fwd[base+q*m+i] != v[r0+i] {
					t.Fatalf("n=%d: block %d: Q and Qᵀ disagree at (%d,%d)", n, b, i, q)
				}
			}
			if e.split() {
				for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
					v[i], v[j] = v[i]+v[j], v[i]-v[j]
				}
			}
			pairs = append(pairs, pair{e.lambda[r0+q], v})
		}
	}
	slices.SortStableFunc(pairs, func(a, b pair) int { return cmp.Compare(a.lambda, b.lambda) })
	lambda, vecs := make([]float64, n), make([][]float64, n)
	for p, pr := range pairs {
		lambda[p], vecs[p] = pr.lambda, pr.v
	}
	return lambda, vecs
}

// uniformAxis is the axis fdmAxes derives along a mesh.Uniform grid's x
// edges for a unit conductivity, with the boundary conductance h at
// each end whose flag is set.
func uniformAxis(t *testing.T, n int, lo, hi bool, h float64) Axis {
	t.Helper()
	g, err := mesh.Uniform(n, 1, 1, 0.173, 0.1, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	ax := Axis{Diag: make([]float64, n), Off: make([]float64, n-1), Mass: make([]float64, n)}
	for i := range ax.Mass {
		ax.Mass[i] = g.XEdges[i+1] - g.XEdges[i]
	}
	for i := range ax.Off {
		gf := 1 / (ax.Mass[i]/2 + ax.Mass[i+1]/2)
		ax.Off[i] = -gf
		ax.Diag[i] += gf
		ax.Diag[i+1] += gf
	}
	if lo {
		ax.Diag[0] += h
	}
	if hi {
		ax.Diag[n-1] += h
	}
	return ax
}

// TestAxisEigenMatchesEigenGeneral checks the tridiagonal eigensolver
// against the dense Jacobi-based generalized solver on random symmetric
// tridiagonals (indefinite ones included) and on mirrored axes, whose
// even and odd blocks are expanded and sorted first, and that its
// vectors are M-orthonormal and satisfy T·v = λ·M·v.  It also pins the
// routing: every mirrored axis longer than one cell splits, among them
// one built from mesh.Uniform edges with equal films at both ends, and
// no other axis does, among them the same one with one end open.
func TestAxisEigenMatchesEigenGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	type axisCase struct {
		ax    Axis
		split bool
	}
	var cases []axisCase
	for _, n := range []int{1, 2, 3, 7, 16, 40} {
		ax := Axis{Diag: make([]float64, n), Off: make([]float64, n-1), Mass: make([]float64, n)}
		for i := range ax.Diag {
			ax.Diag[i] = 4*rng.Float64() - 1
			ax.Mass[i] = 0.1 + 2*rng.Float64()
		}
		for i := range ax.Off {
			ax.Off[i] = 2*rng.Float64() - 1
		}
		cases = append(cases, axisCase{ax, false})
	}
	for _, n := range []int{1, 2, 3, 4, 7, 8, 40, 41} {
		for _, robin := range []bool{false, true} {
			cases = append(cases, axisCase{mirroredAxis(rng, n, robin), n > 1})
		}
	}
	cases = append(cases, axisCase{uniformAxis(t, 40, true, true, 35), true}, axisCase{uniformAxis(t, 40, true, false, 35), false})
	for _, c := range cases {
		ax, n := c.ax, len(c.ax.Diag)
		e, err := newAxisEigen(ax)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if e.split() != c.split {
			t.Errorf("n=%d: split %v, want %v", n, e.split(), c.split)
		}
		lambda, vecs := eigenpairs(t, e)
		td, md := axisDense(ax)
		want, _, err := EigenGeneral(td, md, 1e-14, 200)
		if err != nil {
			t.Fatal(err)
		}
		scale := math.Max(math.Abs(want[0]), math.Abs(want[n-1]))
		for i := range want {
			if math.Abs(lambda[i]-want[i]) > 1e-12*scale {
				t.Errorf("n=%d: λ_%d = %.15g, EigenGeneral %.15g", n, i, lambda[i], want[i])
			}
		}
		for p, vp := range vecs {
			tv := td.MulVec(vp)
			for i := range tv {
				if r := tv[i] - lambda[p]*ax.Mass[i]*vp[i]; math.Abs(r) > 1e-12*scale*math.Sqrt(float64(n)) {
					t.Fatalf("n=%d: (T−λ_%dM)v residual %.3g at row %d", n, p, r, i)
				}
			}
			for q, vq := range vecs {
				dot := 0.0
				for i := 0; i < n; i++ {
					dot += vq[i] * ax.Mass[i] * vp[i]
				}
				want := 0.0
				if p == q {
					want = 1
				}
				if math.Abs(dot-want) > 1e-13*float64(n) {
					t.Fatalf("n=%d: v_%dᵀ·M·v_%d = %.3g, want %g", n, q, p, dot, want)
				}
			}
		}
	}
}

// TestFDMPrecConcurrentApply shares one instance between goroutines: each
// result must equal the serial one bitwise (run under -race), on random
// axes and on mirrored ones that split at unit and larger stride.
func TestFDMPrecConcurrentApply(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, axes := range [][3]Axis{
		{randomAxis(rng, 12, false, false), randomAxis(rng, 7, true, false), randomAxis(rng, 2, true, true)},
		{mirroredAxis(rng, 8, true), mirroredAxis(rng, 7, false), randomAxis(rng, 9, true, false)},
	} {
		concurrentApply(t, rng, axes)
	}
}

// concurrentApply applies one instance over axes from eight goroutines
// and fails on any entry that differs from the serial result.
func concurrentApply(t *testing.T, rng *rand.Rand, axes [3]Axis) {
	t.Helper()
	p, err := NewFDMPrec(axes, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := len(axes[0].Diag) * len(axes[1].Diag) * len(axes[2].Diag)
	const workers = 8
	rs := make([][]float64, workers)
	want := make([][]float64, workers)
	for w := range rs {
		rs[w] = make([]float64, n)
		for i := range rs[w] {
			rs[w][i] = rng.NormFloat64()
		}
		want[w] = make([]float64, n)
		p.Apply(rs[w], want[w])
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			z := make([]float64, n)
			for rep := 0; rep < 20; rep++ {
				p.Apply(rs[w], z)
				for i := range z {
					if z[i] != want[w][i] {
						t.Errorf("worker %d: entry %d = %v, serial %v", w, i, z[i], want[w][i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestFDMPrecErrors checks the build refuses what it cannot invert: a
// sum of all-Neumann axes is singular (the constant mode), and
// malformed axes are rejected before any work.
func TestFDMPrecErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	singular := [3]Axis{randomAxis(rng, 6, false, false), randomAxis(rng, 4, false, false), randomAxis(rng, 2, false, false)}
	if _, err := NewFDMPrec(singular, nil); err == nil || !strings.Contains(err.Error(), "pivot") {
		t.Errorf("all-Neumann sum: err = %v, want a pivot error", err)
	}
	// A two-cell Neumann axis times two single-cell axes with λ = 0: its
	// last pivot is 1 − 1/(1 + ε), exactly 0 at ε = 0 and about ε at
	// ε = 1e-14, and the message names which check it failed.
	point := Axis{Diag: []float64{0}, Mass: []float64{1}}
	for _, c := range []struct {
		eps  float64
		want string
	}{{0, "is not positive: "}, {1e-14, "is under 1e-12 of its diagonal: "}} {
		pair := Axis{Diag: []float64{1 + c.eps, 1}, Off: []float64{-1}, Mass: []float64{1, 1}}
		if _, err := NewFDMPrec([3]Axis{pair, point, point}, nil); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("end term %g: err = %v, want a pivot that %s", c.eps, err, strings.TrimSuffix(c.want, ": "))
		}
	}
	good := randomAxis(rng, 3, true, true)
	for name, bad := range map[string]Axis{
		"empty":         {},
		"short off":     {Diag: []float64{1, 1}, Mass: []float64{1, 1}},
		"zero mass":     {Diag: []float64{1}, Mass: []float64{0}},
		"infinite mass": {Diag: []float64{1}, Mass: []float64{math.Inf(1)}},
	} {
		if _, err := NewFDMPrec([3]Axis{good, bad, good}, nil); err == nil {
			t.Errorf("%s axis: no error", name)
		}
	}
}

// TestFDMPrecTakesOverPrevArrays builds over a consumed prev whose
// per-cell arrays, the factors and Apply's scratch, are NaN-filled:
// prevs with another kept axis, with longer arrays and with shorter
// ones, under targets that keep x and y, whose lines start inside the
// grid.  Apply must match a fresh build's bit
// for bit, a line's first multiplier left unwritten reads a NaN, and
// the build must take over every array that is long enough.
func TestFDMPrecTakesOverPrevArrays(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	targets := [][3]Axis{
		{randomAxis(rng, 9, true, false), randomAxis(rng, 5, false, true), randomAxis(rng, 3, true, true)},
		{randomAxis(rng, 4, true, true), randomAxis(rng, 10, false, true), mirroredAxis(rng, 6, true)},
	}
	// The prevs keep z over 144 cells, x over 400 and y over 12.
	prevs := [][3]Axis{
		{randomAxis(rng, 3, true, true), randomAxis(rng, 4, true, false), randomAxis(rng, 12, false, true)},
		{mirroredAxis(rng, 20, true), randomAxis(rng, 4, true, false), randomAxis(rng, 5, false, true)},
		{randomAxis(rng, 2, true, true), randomAxis(rng, 3, true, false), randomAxis(rng, 2, false, true)},
	}
	nan := func(s []float64) {
		s = s[:cap(s)]
		for i := range s {
			s[i] = math.NaN()
		}
	}
	for ti, axes := range targets {
		n := len(axes[0].Diag) * len(axes[1].Diag) * len(axes[2].Diag)
		fresh, err := NewFDMPrec(axes, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, want := make([]float64, n), make([]float64, n)
		for i := range r {
			r[i] = rng.NormFloat64()
		}
		fresh.Apply(r, want)
		for pi, pa := range prevs {
			prev, err := NewFDMPrec(pa, nil)
			if err != nil {
				t.Fatal(err)
			}
			pn := len(prev.dinv)
			prev.Apply(make([]float64, pn), make([]float64, pn))
			held := [][]float64{prev.l, prev.dinv, *prev.scratch.Load()}
			for _, s := range held {
				nan(s)
			}
			p, err := NewFDMPrec(axes, prev)
			if err != nil {
				t.Fatal(err)
			}
			z := make([]float64, n)
			nan(z)
			p.Apply(r, z)
			for i := range z {
				if math.Float64bits(z[i]) != math.Float64bits(want[i]) {
					t.Fatalf("target %d over prev %d: z[%d] = %v, fresh build %v", ti, pi, i, z[i], want[i])
				}
			}
			took := [][]float64{p.l, p.dinv, *p.scratch.Load()}
			for a, s := range held {
				if long := cap(s) >= len(took[a]); long != (&s[:1][0] == &took[a][:1][0]) {
					t.Errorf("target %d over prev %d: array %d of %d entries, %d needed: taken over %v", ti, pi, a, cap(s), len(took[a]), !long)
				}
			}
		}
	}
}

// serialFactor is factor's first form, kept as the reference: the cells
// in grid order, each line's pivots one after another.
func serialFactor(p *FDMPrec, ax Axis) (l, dinv []float64) {
	nx, ny, nz := p.dims[0], p.dims[1], p.dims[2]
	l, dinv = make([]float64, nx*ny*nz), make([]float64, nx*ny*nz)
	stride := p.stride(p.keep)
	var lam [3][]float64
	for d, e := range p.eig {
		if e != nil {
			lam[d] = e.lambda
		} else {
			lam[d] = make([]float64, p.dims[d])
		}
	}
	c, q := [3]int{}, 0
	for c[2] = 0; c[2] < nz; c[2]++ {
		for c[1] = 0; c[1] < ny; c[1]++ {
			for c[0] = 0; c[0] < nx; c[0]++ {
				s := lam[0][c[0]] + lam[1][c[1]] + lam[2][c[2]]
				t := c[p.keep]
				diag := ax.Diag[t] + s*ax.Mass[t]
				piv := diag
				if t > 0 {
					off := ax.Off[t-1]
					l[q] = off * dinv[q-stride]
					piv -= l[q] * off
				}
				dinv[q] = 1 / piv
				q++
			}
		}
	}
	return l, dinv
}

// serialApply is Apply's first form, kept as the reference: each
// tridiagonal sweep one pass over all n cells, across line boundaries.
func serialApply(p *FDMPrec, r []float64) []float64 {
	n := len(p.dinv)
	z, buf := make([]float64, n), make([]float64, n)
	a, b := (p.keep+1)%3, (p.keep+2)%3
	ea, eb := p.eig[a], p.eig[b]
	x := r
	if ea.split() {
		p.mirror(a, z, r)
		x = z
	}
	p.modeMul(a, ea.fwd, ea.bwd, x, buf)
	p.mirror(b, buf, buf)
	p.modeMul(b, eb.fwd, eb.bwd, buf, z)
	sc := p.stride(p.keep)
	for q := sc; q < n; q++ {
		z[q] -= p.l[q] * z[q-sc]
	}
	for q := n - 1; q >= n-sc; q-- {
		z[q] *= p.dinv[q]
	}
	for q := n - sc - 1; q >= 0; q-- {
		z[q] = z[q]*p.dinv[q] - p.l[q+sc]*z[q+sc]
	}
	p.modeMul(b, eb.bwd, eb.fwd, z, buf)
	p.mirror(b, buf, buf)
	p.modeMul(a, ea.bwd, ea.fwd, buf, z)
	p.mirror(a, z, z)
	return z
}

// TestFDMMatchesSerialForm pins factor's kept-axis-outermost walk and
// Apply's four-row sweeps to their first forms bit for bit: the
// factors, and Apply on residuals with exact zeros, over each kept axis,
// split and unsplit axes, and row counts that are and are not
// multiples of four.
func TestFDMMatchesSerialForm(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, axes := range [][3]Axis{
		{randomAxis(rng, 13, true, false), randomAxis(rng, 5, false, true), randomAxis(rng, 3, true, true)},
		{mirroredAxis(rng, 16, true), mirroredAxis(rng, 9, true), randomAxis(rng, 2, true, true)},
		{mirroredAxis(rng, 12, true), mirroredAxis(rng, 12, false), mirroredAxis(rng, 2, true)},
		{randomAxis(rng, 1, true, true), randomAxis(rng, 11, true, false), randomAxis(rng, 3, true, true)},
		{randomAxis(rng, 6, true, false), randomAxis(rng, 10, false, true), mirroredAxis(rng, 4, true)},
		{randomAxis(rng, 4, true, true), randomAxis(rng, 5, true, false), randomAxis(rng, 9, false, true)},
	} {
		p, err := NewFDMPrec(axes, nil)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("dims %v, keep %d", p.dims, p.keep)
		l, dinv := serialFactor(p, axes[p.keep])
		for q := range l {
			if math.Float64bits(l[q]) != math.Float64bits(p.l[q]) || math.Float64bits(dinv[q]) != math.Float64bits(p.dinv[q]) {
				t.Fatalf("%s, cell %d: factors (%v, %v), serial form (%v, %v)", name, q, p.l[q], p.dinv[q], l[q], dinv[q])
			}
		}
		n := len(p.dinv)
		r := make([]float64, n)
		for i := range r {
			if i%5 != 0 {
				r[i] = rng.NormFloat64()
			}
		}
		z := make([]float64, n)
		p.Apply(r, z)
		for i, want := range serialApply(p, r) {
			if math.Float64bits(z[i]) != math.Float64bits(want) {
				t.Fatalf("%s: z[%d] = %v, serial form %v", name, i, z[i], want)
			}
		}
	}
}

// fdmBenchAxes are a level-2 board's axes, 80×60×2 or 60×80×2 uniform
// cells with Robin ends, so x or y is kept.
func fdmBenchAxes(b *testing.B, nx, ny int) [3]Axis {
	b.Helper()
	axis := func(n int, h float64) Axis {
		ax := Axis{Diag: make([]float64, n), Off: make([]float64, n-1), Mass: make([]float64, n)}
		for i := range ax.Mass {
			ax.Mass[i] = h
		}
		for i := range ax.Off {
			ax.Off[i] = -1 / h
			ax.Diag[i] += 1 / h
			ax.Diag[i+1] += 1 / h
		}
		ax.Diag[0] += 10
		ax.Diag[n-1] += 10
		return ax
	}
	return [3]Axis{axis(nx, 2.5e-3), axis(ny, 2.5e-3), axis(2, 8e-4)}
}

// BenchmarkFDMFactor times the kept axis's factors alone, over the
// eigendecompositions of one build.
func BenchmarkFDMFactor(b *testing.B) {
	for _, d := range [][2]int{{80, 60}, {60, 80}} {
		b.Run(fmt.Sprintf("%dx%dx2", d[0], d[1]), func(b *testing.B) {
			axes := fdmBenchAxes(b, d[0], d[1])
			p, err := NewFDMPrec(axes, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.factor(axes[p.keep]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFDMApply times one application of the inverse.
func BenchmarkFDMApply(b *testing.B) {
	for _, d := range [][2]int{{80, 60}, {60, 80}, {80, 80}} {
		b.Run(fmt.Sprintf("%dx%dx2", d[0], d[1]), func(b *testing.B) {
			p, err := NewFDMPrec(fdmBenchAxes(b, d[0], d[1]), nil)
			if err != nil {
				b.Fatal(err)
			}
			n := len(p.dinv)
			r, z := make([]float64, n), make([]float64, n)
			for i := range r {
				r[i] = float64(i%17) - 8
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Apply(r, z)
			}
		})
	}
}
