package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// denseSPDCSR builds a seeded random dense SPD matrix (A = Bᵀ·B + n·I)
// stored sparsely, so its lower-triangle pattern is full and IC(0)
// coincides with the complete Cholesky factorization.
func denseSPDCSR(seed int64, n int) *CSR {
	rng := rand.New(rand.NewSource(seed))
	b := make([][]float64, n)
	for i := range b {
		b[i] = make([]float64, n)
		for j := range b[i] {
			b[i][j] = 2*rng.Float64() - 1
		}
	}
	coo := NewCOO(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := 0.0
			for k := 0; k < n; k++ {
				v += b[k][i] * b[k][j]
			}
			if i == j {
				v += float64(n)
			}
			coo.Add(i, j, v)
		}
	}
	return coo.ToCSR()
}

// relResidual returns ‖b − A·x‖/‖b‖.
func relResidual(a *CSR, x, b []float64) float64 {
	ax := a.MulVec(x, nil)
	r := make([]float64, len(b))
	for i := range r {
		r[i] = b[i] - ax[i]
	}
	return Norm2(r) / Norm2(b)
}

// With a full lower-triangle pattern no fill is dropped, so IC(0) IS the
// Cholesky factorization and Apply must invert A to working precision —
// the dense-reference property of the preconditioner.
func TestICPrecExactOnDensePattern(t *testing.T) {
	for _, n := range []int{1, 2, 5, 12, 30} {
		a := denseSPDCSR(int64(n), n)
		p, err := NewICPrec(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if p.Shift() != 0 {
			t.Fatalf("n=%d: dense SPD needed shift %g", n, p.Shift())
		}
		rng := rand.New(rand.NewSource(int64(100 + n)))
		r := make([]float64, n)
		for i := range r {
			r[i] = 2*rng.Float64() - 1
		}
		z := make([]float64, n)
		p.Apply(r, z)
		if res := relResidual(a, z, r); res > 1e-10 {
			t.Errorf("n=%d: complete-factor Apply residual %g", n, res)
		}
	}
}

// Tridiagonal (tree-structured) matrices also factor without dropped
// fill — the case lumped thermal networks are close to.
func TestICPrecExactOnTridiagonal(t *testing.T) {
	n := 40
	coo := NewCOO(n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, 2.5)
		if i+1 < n {
			coo.Add(i, i+1, -1)
			coo.Add(i+1, i, -1)
		}
	}
	a := coo.ToCSR()
	p, err := NewICPrec(a)
	if err != nil {
		t.Fatal(err)
	}
	r := make([]float64, n)
	for i := range r {
		r[i] = float64(i%7) - 3
	}
	z := make([]float64, n)
	p.Apply(r, z)
	if res := relResidual(a, z, r); res > 1e-12 {
		t.Errorf("tridiagonal Apply residual %g", res)
	}
}

// On general sparse SPD systems the preconditioned solve must agree with
// the dense reference solution.
func TestICPrecCGMatchesDenseReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		a, b := randomSPD(seed, 60, 0.08)
		p, err := NewICPrec(a)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		x, stats, err := CG(a, b, nil, p, 1e-12, 500)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref, err := SolveDense(a.ToDense(), b)
		if err != nil {
			t.Fatalf("seed %d dense: %v", seed, err)
		}
		for i := range x {
			if math.Abs(x[i]-ref[i]) > 1e-8*(1+math.Abs(ref[i])) {
				t.Fatalf("seed %d: x[%d] = %g, dense %g (in %d iters)", seed, i, x[i], ref[i], stats.Iterations)
			}
		}
	}
}

// kershawCSR is the classic 4×4 SPD matrix (leading minors 3, 5, 3, 1)
// whose incomplete factorization breaks down: the dropped (4,2) fill
// leaves pivot 4 at 3 − 4/3 − 20/3 < 0.
func kershawCSR() *CSR {
	rows := [4][4]float64{
		{3, -2, 0, 2},
		{-2, 3, -2, 0},
		{0, -2, 3, -2},
		{2, 0, -2, 3},
	}
	coo := NewCOO(4, 4)
	for i := range rows {
		for j, v := range rows[i] {
			if v != 0 {
				coo.Add(i, j, v)
			}
		}
	}
	return coo.ToCSR()
}

// Breakdown on an SPD matrix must engage the shifted-diagonal ladder and
// still yield a working preconditioner.
func TestICPrecShiftFallback(t *testing.T) {
	a := kershawCSR()
	p, err := NewICPrec(a)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shift() == 0 {
		t.Fatal("Kershaw matrix factored without a shift; breakdown case lost")
	}
	b := []float64{1, 2, 3, 4}
	x, _, err := CG(a, b, nil, p, 1e-12, 100)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := SolveDense(a.ToDense(), b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-ref[i]) > 1e-8*(1+math.Abs(ref[i])) {
			t.Fatalf("x[%d] = %g, dense %g", i, x[i], ref[i])
		}
	}
}

// A structurally missing or non-positive diagonal cannot be repaired by
// the multiplicative shift; the constructor must say so.
func TestICPrecBreakdownErrors(t *testing.T) {
	coo := NewCOO(2, 2)
	coo.Add(0, 0, 1)
	coo.Add(0, 1, 1)
	coo.Add(1, 0, 1)
	// (1,1) diagonal structurally absent.
	if _, err := NewICPrec(coo.ToCSR()); err == nil {
		t.Error("missing diagonal accepted")
	}
	coo2 := NewCOO(2, 2)
	coo2.Add(0, 0, -1)
	coo2.Add(1, 1, 1)
	if _, err := NewICPrec(coo2.ToCSR()); err == nil {
		t.Error("negative diagonal accepted")
	}
	coo3 := NewCOO(2, 3)
	coo3.Add(0, 0, 1)
	if _, err := NewICPrec(coo3.ToCSR()); err == nil {
		t.Error("rectangular matrix accepted")
	}
}

// anisotropicFV assembles a 2D five-point finite-volume conduction
// operator with a 1000:1 conductivity anisotropy and a Dirichlet-style
// pinned boundary row — the stiff operator family the E5 workloads
// assemble, where unpreconditioned CG grinds.
func anisotropicFV(nx, ny int) (*CSR, []float64) {
	n := nx * ny
	idx := func(i, j int) int { return j*nx + i }
	coo := NewCOO(n, n)
	b := make([]float64, n)
	kx, ky := 1.0, 1000.0
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			at := idx(i, j)
			if i+1 < nx {
				nb := idx(i+1, j)
				coo.Add(at, at, kx)
				coo.Add(nb, nb, kx)
				coo.Add(at, nb, -kx)
				coo.Add(nb, at, -kx)
			}
			if j+1 < ny {
				nb := idx(i, j+1)
				coo.Add(at, at, ky)
				coo.Add(nb, nb, ky)
				coo.Add(at, nb, -ky)
				coo.Add(nb, at, -ky)
			}
		}
	}
	// Convective tie to ambient along one edge plus a heat source patch.
	for i := 0; i < nx; i++ {
		coo.Add(idx(i, 0), idx(i, 0), 0.5)
	}
	for i := nx / 4; i < nx/2; i++ {
		b[idx(i, ny-1)] = 1
	}
	return coo.ToCSR(), b
}

// The headline property: on an E5-sized anisotropic FV operator, IC(0)
// must save at least 10× the CG iterations of the unpreconditioned
// solve — the measured basis for the BENCH_solver.json trajectory.
func TestICPrecIterationBudget(t *testing.T) {
	a, b := anisotropicFV(40, 40)
	_, plain, err := CG(a, b, nil, nil, 1e-9, 20000)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewICPrec(a)
	if err != nil {
		t.Fatal(err)
	}
	_, ic, err := CG(a, b, nil, p, 1e-9, 20000)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("unpreconditioned %d iterations, IC(0) %d", plain.Iterations, ic.Iterations)
	if ic.Iterations*10 > plain.Iterations {
		t.Fatalf("IC(0) took %d iterations, unpreconditioned %d — less than the pinned 10× budget", ic.Iterations, plain.Iterations)
	}
}

// lltFactor is the up-looking IC(0) factorization A ≈ L·Lᵀ on lower(A)'s
// pattern that the root-free form replaced: row by row, each entry from
// a two-pointer merge of two rows of L, square roots on the diagonal.
// It is kept as the reference the root-free factor is checked against,
// unshifted (the reference matrices never need a shift).
func lltFactor(s *icSymbolic, a *CSR) ([]float64, error) {
	val := make([]float64, len(s.colIdx))
	for i := 0; i < s.n; i++ {
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]; k++ {
			j := s.colIdx[k]
			v := a.Val[s.src[k]]
			pi, pj := s.rowPtr[i], s.rowPtr[j]
			for pi < k && pj < s.rowPtr[j+1]-1 {
				ci, cj := s.colIdx[pi], s.colIdx[pj]
				switch {
				case ci == cj:
					v -= val[pi] * val[pj]
					pi++
					pj++
				case ci < cj:
					pi++
				default:
					pj++
				}
			}
			if j < i {
				val[k] = v / val[s.rowPtr[j+1]-1]
				continue
			}
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("reference IC(0) pivot %g at row %d", v, i)
			}
			val[k] = math.Sqrt(v)
		}
	}
	return val, nil
}

// lltApply computes z = (L·Lᵀ)⁻¹·r for an lltFactor result: a forward
// substitution into z, then a backward one scattering up each column.
func lltApply(s *icSymbolic, val, r, z []float64) {
	for i := 0; i < s.n; i++ {
		v := r[i]
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]-1; k++ {
			v -= val[k] * z[s.colIdx[k]]
		}
		z[i] = v / val[s.rowPtr[i+1]-1]
	}
	for i := s.n - 1; i >= 0; i-- {
		v := z[i] / val[s.rowPtr[i+1]-1]
		z[i] = v
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]-1; k++ {
			z[s.colIdx[k]] -= val[k] * v
		}
	}
}

// randomStencil assembles a 7-point FV conduction operator on a random
// grid (any of Nx, Ny, Nz may be 1) with anisotropic, cell-to-cell
// varying face conductances and boundary films on a random subset of
// cells: the pattern and M-matrix sign structure of the level-2 board
// operator, where IC(0) drops fill and MIC(0) compensates it.
func randomStencil(seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	nx, ny, nz := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(4)
	var axis [3]float64
	for d := range axis {
		axis[d] = math.Pow(10, 3*rng.Float64()-1.5)
	}
	n := nx * ny * nz
	idx := func(i, j, k int) int { return (k*ny+j)*nx + i }
	coo := NewCOO(n, n)
	couple := func(p, q int, g float64) {
		coo.Add(p, p, g)
		coo.Add(q, q, g)
		coo.Add(p, q, -g)
		coo.Add(q, p, -g)
	}
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				at := idx(i, j, k)
				if i+1 < nx {
					couple(at, idx(i+1, j, k), axis[0]*(0.5+rng.Float64()))
				}
				if j+1 < ny {
					couple(at, idx(i, j+1, k), axis[1]*(0.5+rng.Float64()))
				}
				if k+1 < nz {
					couple(at, idx(i, j, k+1), axis[2]*(0.5+rng.Float64()))
				}
				if at == 0 || rng.Float64() < 0.15 {
					coo.Add(at, at, 1e-3+0.1*rng.Float64())
				}
			}
		}
	}
	return coo.ToCSR()
}

// The root-free IC(0) is the up-looking LLᵀ factorization in another
// form (L = (I+N)·D^½): its Apply must agree with the reference to
// rounding on general sparse SPD matrices and on FV stencils.
func TestICPrecMatchesLLTReference(t *testing.T) {
	var mats []*CSR
	for seed := int64(1); seed <= 20; seed++ {
		a, _ := randomSPD(seed, 10+int(seed)*7, 0.08)
		mats = append(mats, a, randomStencil(seed))
	}
	for m, a := range mats {
		p, err := NewICPrec(a)
		if err != nil {
			t.Fatalf("matrix %d: %v", m, err)
		}
		if p.Shift() != 0 {
			t.Fatalf("matrix %d needed shift %g", m, p.Shift())
		}
		ref, err := lltFactor(p.sym, a)
		if err != nil {
			t.Fatalf("matrix %d: %v", m, err)
		}
		rng := rand.New(rand.NewSource(int64(m)))
		r := make([]float64, a.Rows)
		for i := range r {
			r[i] = 2*rng.Float64() - 1
		}
		z, zRef := make([]float64, a.Rows), make([]float64, a.Rows)
		p.Apply(r, z)
		lltApply(p.sym, ref, r, zRef)
		diff := make([]float64, a.Rows)
		for i := range z {
			diff[i] = z[i] - zRef[i]
		}
		if rel := NormInf(diff) / NormInf(zRef); rel > 1e-12 {
			t.Errorf("matrix %d (n=%d): Apply differs from the LLᵀ reference by %g relative", m, a.Rows, rel)
		}
	}
}

// micDense is a dense right-looking modified IC(0) reference: eliminate
// column by column on a full copy of A + shift·diag(A), updating only
// lower(A)'s pattern and moving omega times every dropped fill onto the
// two diagonals it couples.  It returns N (strict lower) with D on the
// diagonal.
func micDense(a *CSR, shift, omega float64) [][]float64 {
	n := a.Rows
	w := a.ToDense()
	in := make([][]bool, n)
	for i := range in {
		in[i] = make([]bool, n)
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			in[i][a.ColIdx[k]] = true
		}
	}
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			m[i][j] = w.At(i, j)
		}
		m[i][i] *= 1 + shift
	}
	for j := 0; j < n; j++ {
		d := m[j][j]
		for i := j + 1; i < n; i++ {
			if in[i][j] {
				m[i][j] /= d
			}
		}
		for i := j + 1; i < n; i++ {
			if !in[i][j] {
				continue
			}
			for k := j + 1; k <= i; k++ {
				if !in[k][j] {
					continue
				}
				f := m[i][j] * d * m[k][j]
				switch {
				case in[i][k]:
					m[i][k] -= f
				default:
					m[i][i] -= omega * f
					m[k][k] -= omega * f
				}
			}
		}
	}
	return m
}

// "mic0" must match the dense right-looking MIC reference entry by
// entry: N in the strict-lower slots, 1/D in the diagonal ones.
func TestMICPrecMatchesDenseReference(t *testing.T) {
	s := NewSolverSetup()
	for seed := int64(1); seed <= 20; seed++ {
		a := randomStencil(seed)
		pc, err := s.PrecFor("mic0", a, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		p := pc.(*ICPrec)
		ref := micDense(a, p.Shift(), micOmega)
		for i := 0; i < a.Rows; i++ {
			for k := p.sym.rowPtr[i]; k < p.sym.rowPtr[i+1]; k++ {
				j := p.sym.colIdx[k]
				want := ref[i][j]
				if j == i {
					want = 1 / want
				}
				if got := p.val[k]; math.Abs(got-want) > 1e-12*math.Abs(want) {
					t.Fatalf("seed %d: slot (%d,%d) = %v, dense reference %v", seed, i, j, got, want)
				}
			}
		}
	}
}

// Kershaw's matrix breaks IC(0) (TestICPrecShiftFallback), but the MIC
// compensation raises the pivots it starves: MIC(0) factors it without
// a shift, and CG still reaches the dense solution.
func TestMICPrecKershawNoShift(t *testing.T) {
	a := kershawCSR()
	p, err := NewMICPrec(a)
	if err != nil {
		t.Fatal(err)
	}
	if p.Shift() != 0 {
		t.Fatalf("MIC(0) needed shift %g on the Kershaw matrix", p.Shift())
	}
	b := []float64{1, 2, 3, 4}
	x, stats, err := CG(a, b, nil, p, 1e-12, 100)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := SolveDense(a.ToDense(), b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-ref[i]) > 1e-12*(1+math.Abs(ref[i])) {
			t.Fatalf("x[%d] = %g, dense %g (%d iterations)", i, x[i], ref[i], stats.Iterations)
		}
	}
}
