package linalg

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func denseFrom(rows, cols int, vals ...float64) *Dense {
	m := NewDense(rows, cols)
	copy(m.Data, vals)
	return m
}

func TestDenseBasics(t *testing.T) {
	m := NewDense(2, 3)
	m.Set(0, 1, 5)
	m.Add(0, 1, 2)
	if m.At(0, 1) != 7 {
		t.Errorf("At = %v", m.At(0, 1))
	}
	c := m.Clone()
	c.Set(0, 1, 0)
	if m.At(0, 1) != 7 {
		t.Error("Clone aliases original")
	}
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(1, 0) != 7 {
		t.Error("Transpose broken")
	}
}

func TestDenseMulVec(t *testing.T) {
	m := denseFrom(2, 2, 1, 2, 3, 4)
	y := m.MulVec([]float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Errorf("MulVec = %v", y)
	}
}

func TestDenseMul(t *testing.T) {
	a := denseFrom(2, 2, 1, 2, 3, 4)
	b := denseFrom(2, 2, 5, 6, 7, 8)
	c := a.Mul(b)
	want := []float64{19, 22, 43, 50}
	for i, w := range want {
		if c.Data[i] != w {
			t.Errorf("Mul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestLUSolve(t *testing.T) {
	a := denseFrom(3, 3,
		2, 1, 1,
		1, 3, 2,
		1, 0, 0)
	b := []float64{4, 5, 6}
	x, err := SolveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Verify A·x = b.
	ax := a.MulVec(x)
	for i := range b {
		if math.Abs(ax[i]-b[i]) > 1e-10 {
			t.Errorf("residual at %d: %v vs %v", i, ax[i], b[i])
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := denseFrom(2, 2, 1, 2, 2, 4)
	if _, err := FactorLU(a); err == nil {
		t.Fatal("expected singular-matrix error")
	}
}

func TestLUDet(t *testing.T) {
	a := denseFrom(2, 2, 3, 0, 0, 4)
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Det()-12) > 1e-12 {
		t.Errorf("Det = %v, want 12", f.Det())
	}
	// Row swap flips sign bookkeeping but determinant stays correct.
	b := denseFrom(2, 2, 0, 1, 1, 0)
	f2, err := FactorLU(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f2.Det()+1) > 1e-12 {
		t.Errorf("Det = %v, want -1", f2.Det())
	}
}

func TestLUSolveRandomProperty(t *testing.T) {
	// Random diagonally dominant systems: solve then verify residual.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(20)
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			sum := 0.0
			for j := 0; j < n; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				sum += math.Abs(v)
			}
			a.Add(i, i, sum+1)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := SolveDense(a, b)
		if err != nil {
			t.Fatal(err)
		}
		ax := a.MulVec(x)
		for i := range b {
			if math.Abs(ax[i]-b[i]) > 1e-8*(1+math.Abs(b[i])) {
				t.Fatalf("trial %d: residual %v", trial, ax[i]-b[i])
			}
		}
	}
}

func TestCholesky(t *testing.T) {
	// SPD matrix.
	a := denseFrom(3, 3,
		4, 2, 0,
		2, 5, 1,
		0, 1, 3)
	c, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// L·Lᵀ must reproduce A.
	l := c.L()
	llt := l.Mul(l.Transpose())
	for i := range a.Data {
		if math.Abs(llt.Data[i]-a.Data[i]) > 1e-12 {
			t.Errorf("LLᵀ[%d] = %v, want %v", i, llt.Data[i], a.Data[i])
		}
	}
	b := []float64{1, 2, 3}
	x := c.Solve(b)
	ax := a.MulVec(x)
	for i := range b {
		if math.Abs(ax[i]-b[i]) > 1e-10 {
			t.Errorf("Cholesky solve residual %v", ax[i]-b[i])
		}
	}
}

func TestCholeskyNotSPD(t *testing.T) {
	a := denseFrom(2, 2, 1, 2, 2, 1) // indefinite
	if _, err := FactorCholesky(a); err == nil {
		t.Fatal("expected not-SPD error")
	}
}

func TestVectorOps(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Errorf("Dot = %v", Dot(a, b))
	}
	if math.Abs(Norm2([]float64{3, 4})-5) > 1e-15 {
		t.Error("Norm2 broken")
	}
	if NormInf([]float64{-7, 2}) != 7 {
		t.Error("NormInf broken")
	}
	y := []float64{1, 1, 1}
	Axpy(2, a, y)
	if y[2] != 7 {
		t.Errorf("Axpy = %v", y)
	}
	Scale(0.5, y)
	if y[2] != 3.5 {
		t.Errorf("Scale = %v", y)
	}
}

func TestCOOToCSRMergesDuplicates(t *testing.T) {
	c := NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(0, 0, 2)
	c.Add(1, 1, 5)
	c.Add(0, 1, 3)
	c.Add(1, 0, 0) // exact zero dropped at Add
	m := c.ToCSR()
	if m.At(0, 0) != 3 {
		t.Errorf("merged (0,0) = %v, want 3", m.At(0, 0))
	}
	if m.At(0, 1) != 3 || m.At(1, 1) != 5 || m.At(1, 0) != 0 {
		t.Error("CSR values wrong")
	}
	if m.NNZ() != 3 {
		t.Errorf("NNZ = %d, want 3", m.NNZ())
	}
}

func TestCSRMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(15)
		coo := NewCOO(n, n)
		d := NewDense(n, n)
		for k := 0; k < n*3; k++ {
			i, j := r.Intn(n), r.Intn(n)
			v := r.NormFloat64()
			coo.Add(i, j, v)
			d.Add(i, j, v)
		}
		csr := coo.ToCSR()
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y1 := csr.MulVec(x, nil)
		y2 := d.MulVec(x)
		for i := range y1 {
			if math.Abs(y1[i]-y2[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCSRDiagAndSymmetric(t *testing.T) {
	c := NewCOO(3, 3)
	c.Add(0, 0, 2)
	c.Add(1, 1, 3)
	c.Add(2, 2, 4)
	c.Add(0, 1, -1)
	c.Add(1, 0, -1)
	m := c.ToCSR()
	d := m.Diag()
	if d[0] != 2 || d[1] != 3 || d[2] != 4 {
		t.Errorf("Diag = %v", d)
	}
	if !m.IsSymmetric(1e-14) {
		t.Error("should be symmetric")
	}
	c.Add(0, 2, 9)
	if c.ToCSR().IsSymmetric(1e-14) {
		t.Error("should not be symmetric")
	}
}

// laplacian1D builds the standard SPD tridiagonal system.
func laplacian1D(n int) *CSR {
	c := NewCOO(n, n)
	for i := 0; i < n; i++ {
		c.Add(i, i, 2)
		if i > 0 {
			c.Add(i, i-1, -1)
		}
		if i < n-1 {
			c.Add(i, i+1, -1)
		}
	}
	return c.ToCSR()
}

func TestCGLaplacian(t *testing.T) {
	n := 100
	a := laplacian1D(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	for _, prec := range []Preconditioner{nil, NewJacobiPrec(a), NewSSORPrec(a, 1.2)} {
		x, stats, err := CG(a, b, nil, prec, 1e-10, 1000)
		if err != nil {
			t.Fatalf("prec %T: %v", prec, err)
		}
		if !stats.Converged {
			t.Fatalf("prec %T: not converged", prec)
		}
		ax := a.MulVec(x, nil)
		for i := range b {
			if math.Abs(ax[i]-b[i]) > 1e-7 {
				t.Fatalf("prec %T: residual %v at %d", prec, ax[i]-b[i], i)
			}
		}
	}
}

func TestSSORConvergesFaster(t *testing.T) {
	n := 400
	a := laplacian1D(n)
	b := make([]float64, n)
	for i := range b {
		b[i] = float64(i % 7)
	}
	_, plain, err := CG(a, b, nil, nil, 1e-8, 5000)
	if err != nil {
		t.Fatal(err)
	}
	_, ssor, err := CG(a, b, nil, NewSSORPrec(a, 1.5), 1e-8, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if ssor.Iterations >= plain.Iterations {
		t.Errorf("SSOR iterations %d should beat plain %d", ssor.Iterations, plain.Iterations)
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := laplacian1D(5)
	x, stats, err := CG(a, make([]float64, 5), nil, nil, 1e-10, 10)
	if err != nil || !stats.Converged {
		t.Fatal("zero RHS should converge immediately")
	}
	for _, v := range x {
		if v != 0 {
			t.Error("zero RHS should give zero solution")
		}
	}
}

func TestCGNotSPD(t *testing.T) {
	c := NewCOO(2, 2)
	c.Add(0, 0, -1)
	c.Add(1, 1, -1)
	a := c.ToCSR()
	if _, _, err := CG(a, []float64{1, 1}, nil, nil, 1e-10, 10); err == nil {
		t.Fatal("expected breakdown on negative definite matrix")
	}
}

// unfusedCG is preconditioned CG with the residual update and its norm
// as two passes (Axpy, then Norm2), the loop cg fuses into axpyDot.  It
// reports the same OnIteration trace and is the reference that pins the
// fused loop bitwise.
func unfusedCG(a *CSR, b []float64, prec Preconditioner, tol float64, maxIter int, onIter func(int, float64)) []float64 {
	n := a.Rows
	x, r, z, p, ap := make([]float64, n), append([]float64(nil), b...), make([]float64, n), make([]float64, n), make([]float64, n)
	normB := Norm2(b)
	prec.Apply(r, z)
	copy(p, z)
	rz := Dot(r, z)
	for it := 0; it < maxIter; it++ {
		a.MulVec(p, ap)
		alpha := rz / Dot(p, ap)
		Axpy(alpha, p, x)
		Axpy(-alpha, ap, r)
		res := Norm2(r) / normB
		onIter(it, res)
		if res < tol {
			break
		}
		prec.Apply(r, z)
		rzNew := Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return x
}

// On an FV operator the fused CG loop must reproduce the unfused one
// bit for bit: every residual of the OnIteration trace and the iterate.
func TestCGFusedMatchesUnfused(t *testing.T) {
	a, b := anisotropicFV(30, 30)
	prec, err := NewMICPrec(a)
	if err != nil {
		t.Fatal(err)
	}
	var got, want []float64
	x, _, err := CGOpt(a, b, nil, &IterOptions{Tol: 1e-10, MaxIter: 500, Prec: prec,
		OnIteration: func(_ int, res float64) { got = append(got, res) }})
	if err != nil {
		t.Fatal(err)
	}
	ref := unfusedCG(a, b, prec, 1e-10, 500, func(_ int, res float64) { want = append(want, res) })
	if len(got) != len(want) {
		t.Fatalf("fused CG ran %d iterations, unfused %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("iteration %d: fused residual %v, unfused %v", i, got[i], want[i])
		}
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(ref[i]) {
			t.Fatalf("x[%d]: fused %v, unfused %v", i, x[i], ref[i])
		}
	}
}

// A nil start skips the product A·0, whose every row sums to +0, and
// takes r = b: on random SPD systems, one right-hand side entry a
// negative zero, it must reproduce an explicit zero start bit for bit:
// every residual of the OnIteration trace, the IterStats and the iterate.
func TestCGNilStartMatchesZeroStart(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		a, b := randomSPD(seed, 120, 0.05)
		b[int(seed)] = math.Copysign(0, -1)
		for _, prec := range []Preconditioner{nil, NewJacobiPrec(a)} {
			run := func(x0 []float64) ([]float64, IterStats, []float64) {
				var trace []float64
				x, stats, err := CGOpt(a, b, x0, &IterOptions{Tol: 1e-12, MaxIter: 500, Prec: prec,
					OnIteration: func(_ int, res float64) { trace = append(trace, res) }})
				if err != nil {
					t.Fatal(err)
				}
				return x, stats, trace
			}
			x, stats, trace := run(nil)
			wantX, wantStats, wantTrace := run(make([]float64, len(b)))
			if stats != wantStats || len(trace) != len(wantTrace) {
				t.Fatalf("seed %d: nil start %+v over %d residuals, zero start %+v over %d", seed, stats, len(trace), wantStats, len(wantTrace))
			}
			for i := range trace {
				if math.Float64bits(trace[i]) != math.Float64bits(wantTrace[i]) {
					t.Fatalf("seed %d, iteration %d: nil start residual %v, zero start %v", seed, i, trace[i], wantTrace[i])
				}
			}
			for i := range x {
				if math.Float64bits(x[i]) != math.Float64bits(wantX[i]) {
					t.Fatalf("seed %d: x[%d] = %v from a nil start, %v from a zero start", seed, i, x[i], wantX[i])
				}
			}
		}
	}
}

// TestCGLentWorkIgnoresContents lends CG NaN-filled work vectors: every
// solve must return the x and IterStats of one that allocates its own,
// bit for bit, on a KronSum and on its CSR, from a nil and a warm start,
// under fast diagonalization, MIC(0), Jacobi and no preconditioner.  A
// lent entry read before it is written turns the solve into NaN.
func TestCGLentWorkIgnoresContents(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	axes := [3]Axis{randomAxis(rng, 7, true, false), randomAxis(rng, 5, false, true), randomAxis(rng, 3, true, true)}
	k := &KronSum{Axes: axes, Diag: make([]float64, 7*5*3)}
	n := k.Order()
	for i := range k.Diag {
		k.Diag[i] = 0.5 * rng.Float64()
	}
	dense, coo := kronSumDense(axes), NewCOO(n, n)
	for i := 0; i < n; i++ {
		dense.Add(i, i, k.Diag[i])
		for j := 0; j < n; j++ {
			if v := dense.At(i, j); v != 0 {
				coo.Add(i, j, v)
			}
		}
	}
	a := coo.ToCSR()
	b, x0 := make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], x0[i] = rng.NormFloat64(), rng.Float64()
	}
	fdm, err := NewFDMPrec(axes, nil)
	if err != nil {
		t.Fatal(err)
	}
	mic, err := NewMICPrec(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []struct {
		name string
		a    Operator
	}{{"KronSum", k}, {"CSR", a}} {
		for _, pc := range []struct {
			name string
			p    Preconditioner
		}{{"fdm", fdm}, {"mic0", mic}, {"jacobi", NewJacobiPrec(a)}, {"none", nil}} {
			for _, start := range [][]float64{nil, x0} {
				run := func(work []float64) ([]float64, IterStats) {
					x, stats, err := CGOpt(op.a, b, slices.Clone(start), &IterOptions{Tol: 1e-12, MaxIter: 500, Prec: pc.p, Work: work})
					if err != nil {
						t.Fatalf("%s, %s, warm %v: %v", op.name, pc.name, start != nil, err)
					}
					return x, stats
				}
				want, wantStats := run(nil)
				work := make([]float64, 3*n+5)
				for i := range work {
					work[i] = math.NaN()
				}
				x, stats := run(work)
				if stats != wantStats {
					t.Errorf("%s, %s, warm %v: lent work %+v, own %+v", op.name, pc.name, start != nil, stats, wantStats)
				}
				for i := range x {
					if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
						t.Errorf("%s, %s, warm %v: x[%d] = %v with lent work, %v with its own", op.name, pc.name, start != nil, i, x[i], want[i])
						break
					}
				}
			}
		}
	}
}

// TestCGWritesOverStart: given a start, CG returns that very array
// holding the answer it would have returned from a copy of the start,
// bit for bit, and a start of the wrong length is an error before any
// iteration.
func TestCGWritesOverStart(t *testing.T) {
	a, b := randomSPD(5, 60, 0.1)
	start := make([]float64, len(b))
	for i := range start {
		start[i] = float64(i%7) - 3
	}
	want, wantStats, err := CG(a, b, slices.Clone(start), NewJacobiPrec(a), 1e-12, 500)
	if err != nil {
		t.Fatal(err)
	}
	x0 := slices.Clone(start)
	x, stats, err := CG(a, b, x0, NewJacobiPrec(a), 1e-12, 500)
	if err != nil {
		t.Fatal(err)
	}
	if &x[0] != &x0[0] || stats != wantStats {
		t.Fatalf("CG returned a fresh array (%v) or other stats (%+v, want %+v)", &x[0] != &x0[0], stats, wantStats)
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
			t.Fatalf("x[%d] = %v written over the start, %v from a copy", i, x[i], want[i])
		}
	}
	if _, _, err := CG(a, b, make([]float64, len(b)-1), nil, 1e-12, 500); err == nil || !strings.Contains(err.Error(), "start length") {
		t.Errorf("a short start: err %v, want a start length error", err)
	}
}

// TestCGRejectsNonFinite: a NaN or Inf in b or x0 is an "input entry"
// error before the first iteration, not a spin to MaxIter.
func TestCGRejectsNonFinite(t *testing.T) {
	a, b := spdSystem(3)
	for _, c := range []struct {
		name  string
		b, x0 []float64
		want  string
	}{
		{"NaN b", []float64{b[0], math.NaN(), b[2]}, nil, "linalg: CG input entry 1 is NaN"},
		{"Inf b", []float64{math.Inf(1), b[1], b[2]}, nil, "linalg: CG input entry 0 is +Inf"},
		{"NaN x0", b, []float64{math.NaN(), 0, 0}, "linalg: CG input entry 0 is NaN"},
		{"Inf x0", b, []float64{0, 0, math.Inf(-1)}, "linalg: CG input entry 2 is -Inf"},
	} {
		iters := 0
		x, stats, err := CGOpt(a, c.b, c.x0, &IterOptions{Tol: 1e-10, MaxIter: 100, OnIteration: func(int, float64) { iters++ }})
		if err == nil || err.Error() != c.want || x != nil || stats.Iterations != 0 || iters != 0 {
			t.Errorf("%s: x %v, %d iterations, err %v; want no solution, no iteration and %q", c.name, x, iters, err, c.want)
		}
	}
}

// TestCGStopAfterPolls: a Stop that allows k polls ends CG after k+1
// iterations (each iteration polls once, after its convergence check)
// with an error wrapping ErrStopped.
func TestCGStopAfterPolls(t *testing.T) {
	a, b := spdSystem(200)
	for _, k := range []int{0, 2, 5} {
		polls := 0
		_, stats, err := CGOpt(a, b, nil, &IterOptions{Tol: 1e-14, MaxIter: 1000, Stop: func() bool {
			polls++
			return polls > k
		}})
		if !errors.Is(err, ErrStopped) {
			t.Fatalf("k=%d: err = %v, want wrapped ErrStopped", k, err)
		}
		if stats.Iterations != k+1 || stats.Converged {
			t.Errorf("k=%d: stopped after %d iterations (converged %v), want %d", k, stats.Iterations, stats.Converged, k+1)
		}
	}
}

func TestEigenSymDiagonal(t *testing.T) {
	a := denseFrom(3, 3,
		3, 0, 0,
		0, 1, 0,
		0, 0, 2)
	vals, vecs, err := EigenSym(a, 1e-12, 50)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 3}
	for i, w := range want {
		if math.Abs(vals[i]-w) > 1e-12 {
			t.Errorf("eigenvalue %d = %v, want %v", i, vals[i], w)
		}
	}
	// Eigenvector for λ=1 is e₁ (up to sign).
	if math.Abs(math.Abs(vecs.At(1, 0))-1) > 1e-12 {
		t.Error("eigenvector wrong")
	}
}

func TestEigenSymKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	a := denseFrom(2, 2, 2, 1, 1, 2)
	vals, vecs, err := EigenSym(a, 1e-14, 50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-1) > 1e-12 || math.Abs(vals[1]-3) > 1e-12 {
		t.Errorf("eigenvalues = %v", vals)
	}
	// Check A·v = λ·v for both pairs.
	for j := 0; j < 2; j++ {
		v := []float64{vecs.At(0, j), vecs.At(1, j)}
		av := a.MulVec(v)
		for i := range v {
			if math.Abs(av[i]-vals[j]*v[i]) > 1e-12 {
				t.Errorf("pair %d residual", j)
			}
		}
	}
}

func TestEigenSymRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(12)
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := rng.NormFloat64()
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		vals, vecs, err := EigenSym(a, 1e-12, 100)
		if err != nil {
			t.Fatal(err)
		}
		// Ascending order.
		for i := 1; i < n; i++ {
			if vals[i] < vals[i-1] {
				t.Fatal("eigenvalues not sorted")
			}
		}
		// Trace preserved.
		tr, sum := 0.0, 0.0
		for i := 0; i < n; i++ {
			tr += a.At(i, i)
			sum += vals[i]
		}
		if math.Abs(tr-sum) > 1e-8*(1+math.Abs(tr)) {
			t.Fatalf("trace %v vs eigenvalue sum %v", tr, sum)
		}
		// Orthonormal vectors.
		for j := 0; j < n; j++ {
			vj := make([]float64, n)
			for i := 0; i < n; i++ {
				vj[i] = vecs.At(i, j)
			}
			if math.Abs(Norm2(vj)-1) > 1e-8 {
				t.Fatal("eigenvector not unit norm")
			}
		}
	}
}

func TestEigenSymNotSymmetric(t *testing.T) {
	a := denseFrom(2, 2, 1, 2, 3, 4)
	if _, _, err := EigenSym(a, 1e-12, 50); err == nil {
		t.Fatal("expected symmetry error")
	}
}

func TestEigenGeneralSDOF(t *testing.T) {
	// Two uncoupled oscillators: k=[4,9], m=[1,1] → λ = 4, 9.
	k := denseFrom(2, 2, 4, 0, 0, 9)
	m := denseFrom(2, 2, 1, 0, 0, 1)
	vals, _, err := EigenGeneral(k, m, 1e-14, 50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-4) > 1e-10 || math.Abs(vals[1]-9) > 1e-10 {
		t.Errorf("eigenvalues = %v", vals)
	}
}

func TestEigenGeneralMassScaling(t *testing.T) {
	// k=8, m=2 → ω² = 4.
	k := denseFrom(1, 1, 8)
	m := denseFrom(1, 1, 2)
	vals, vecs, err := EigenGeneral(k, m, 1e-14, 50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-4) > 1e-12 {
		t.Errorf("λ = %v, want 4", vals[0])
	}
	// M-orthonormality: vᵀMv = 1 → v = 1/√2.
	if math.Abs(math.Abs(vecs.At(0, 0))-1/math.Sqrt2) > 1e-12 {
		t.Errorf("vector = %v", vecs.At(0, 0))
	}
}

func TestEigenGeneralCoupled(t *testing.T) {
	// Classic 2-mass chain: m=1 each, springs k-k-k fixed-fixed:
	// K = [[2k,-k],[-k,2k]], eigenvalues k and 3k (k=1).
	k := denseFrom(2, 2, 2, -1, -1, 2)
	m := denseFrom(2, 2, 1, 0, 0, 1)
	vals, vecs, err := EigenGeneral(k, m, 1e-14, 50)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-1) > 1e-10 || math.Abs(vals[1]-3) > 1e-10 {
		t.Errorf("eigenvalues = %v", vals)
	}
	// Verify K·v = λ·M·v.
	for j := 0; j < 2; j++ {
		v := []float64{vecs.At(0, j), vecs.At(1, j)}
		kv := k.MulVec(v)
		mv := m.MulVec(v)
		for i := range v {
			if math.Abs(kv[i]-vals[j]*mv[i]) > 1e-10 {
				t.Errorf("generalized residual pair %d", j)
			}
		}
	}
}

func TestEigenGeneralNotSPDMass(t *testing.T) {
	k := denseFrom(1, 1, 1)
	m := denseFrom(1, 1, -1)
	if _, _, err := EigenGeneral(k, m, 1e-12, 50); err == nil {
		t.Fatal("expected SPD mass error")
	}
}
