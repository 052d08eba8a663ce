package linalg

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
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

// relErr returns ‖got − want‖/‖want‖.
func relErr(got, want []float64) float64 {
	d := make([]float64, len(got))
	for i := range d {
		d[i] = got[i] - want[i]
	}
	return Norm2(d) / Norm2(want)
}

// TestFDMPrecMatchesDenseInverse checks Apply against a dense solve of
// the assembled Kronecker sum on random axes: sizes of one, non-uniform
// masses, and singular all-Neumann axes paired with SPD ones, so the
// kept axis and the diagonalized pair each take every role.
func TestFDMPrecMatchesDenseInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	type open struct{ lo, hi bool }
	spd, neumann, oneSided := open{true, true}, open{false, false}, open{true, false}
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
	}
	for _, c := range cases {
		var axes [3]Axis
		for d := range axes {
			axes[d] = randomAxis(rng, c.dims[d], c.bc[d].lo, c.bc[d].hi)
		}
		p, err := NewFDMPrec(axes, nil)
		if err != nil {
			t.Fatalf("dims %v: %v", c.dims, err)
		}
		chol, err := FactorCholesky(kronSumDense(axes))
		if err != nil {
			t.Fatalf("dims %v: dense reference: %v", c.dims, err)
		}
		n := c.dims[0] * c.dims[1] * c.dims[2]
		for trial := 0; trial < 3; trial++ {
			r := make([]float64, n)
			for i := range r {
				r[i] = 2*rng.Float64() - 1
			}
			z := make([]float64, n)
			p.Apply(r, z)
			if e := relErr(z, chol.Solve(r)); e > 1e-12 {
				t.Errorf("dims %v: Apply differs from the dense inverse by %.3g relative", c.dims, e)
			}
		}
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

// TestAxisEigenMatchesEigenGeneral checks the tridiagonal eigensolver
// against the dense Jacobi-based generalized solver on random symmetric
// tridiagonals (indefinite ones included), and that its vectors are
// M-orthonormal and satisfy T·v = λ·M·v.
func TestAxisEigenMatchesEigenGeneral(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, n := range []int{1, 2, 3, 7, 16, 40} {
		ax := Axis{Diag: make([]float64, n), Off: make([]float64, n-1), Mass: make([]float64, n)}
		for i := range ax.Diag {
			ax.Diag[i] = 4*rng.Float64() - 1
			ax.Mass[i] = 0.1 + 2*rng.Float64()
		}
		for i := range ax.Off {
			ax.Off[i] = 2*rng.Float64() - 1
		}
		e, err := newAxisEigen(ax)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		td, md := axisDense(ax)
		want, _, err := EigenGeneral(td, md, 1e-14, 200)
		if err != nil {
			t.Fatal(err)
		}
		scale := math.Max(math.Abs(want[0]), math.Abs(want[n-1]))
		for i := range want {
			if math.Abs(e.lambda[i]-want[i]) > 1e-12*scale {
				t.Errorf("n=%d: λ_%d = %.15g, EigenGeneral %.15g", n, i, e.lambda[i], want[i])
			}
		}
		for p := 0; p < n; p++ {
			vp := e.fwd[p*n : p*n+n]
			tv := td.MulVec(vp)
			for i := range tv {
				if r := tv[i] - e.lambda[p]*ax.Mass[i]*vp[i]; math.Abs(r) > 1e-12*scale*math.Sqrt(float64(n)) {
					t.Fatalf("n=%d: (T−λ_%dM)v residual %.3g at row %d", n, p, r, i)
				}
			}
			for q := 0; q < n; q++ {
				dot := 0.0
				for i := 0; i < n; i++ {
					dot += e.fwd[q*n+i] * ax.Mass[i] * vp[i]
				}
				want := 0.0
				if p == q {
					want = 1
				}
				if math.Abs(dot-want) > 1e-13*float64(n) {
					t.Fatalf("n=%d: v_%dᵀ·M·v_%d = %.3g, want %g", n, q, p, dot, want)
				}
				if got := e.bwd[p*n+q]; got != e.fwd[q*n+p] {
					t.Fatalf("n=%d: V and Vᵀ disagree at (%d,%d)", n, p, q)
				}
			}
		}
	}
}

// TestFDMPrecConcurrentApply shares one instance between goroutines: each
// result must equal the serial one bitwise (run under -race).
func TestFDMPrecConcurrentApply(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	axes := [3]Axis{randomAxis(rng, 12, false, false), randomAxis(rng, 7, true, false), randomAxis(rng, 2, true, true)}
	p, err := NewFDMPrec(axes, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 12 * 7 * 2
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
