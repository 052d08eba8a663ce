package linalg

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// ErrStopped is wrapped into the error returned when an iterative solve
// is aborted by IterOptions.Stop before reaching its tolerance — the
// budget-exceeded signal callers test for with errors.Is.
var ErrStopped = errors.New("solve stopped by budget callback")

// Operator is a square linear map that CG solves with; *CSR and
// *KronSum implement it.
type Operator interface {
	// MulVec computes y = A·x, allocating y unless it has length
	// Order(); y may be the identical slice as x.
	MulVec(x, y []float64) []float64
	// Order is the operator's row and column count.
	Order() int
}

// Preconditioner applies z = M⁻¹·r for an approximate inverse M⁻¹.
type Preconditioner interface {
	Apply(r, z []float64)
}

// IdentityPrec is the trivial (no-op) preconditioner.
type IdentityPrec struct{}

// Apply copies r to z.
func (IdentityPrec) Apply(r, z []float64) { copy(z, r) }

// JacobiPrec is diagonal scaling: z_i = r_i / A_ii.
type JacobiPrec struct{ InvDiag []float64 }

// NewJacobiPrec builds a Jacobi preconditioner from matrix a.  Zero
// diagonal entries are treated as 1 so the preconditioner stays usable on
// semi-definite systems with constrained rows.
func NewJacobiPrec(a *CSR) *JacobiPrec {
	d := a.Diag()
	inv := make([]float64, len(d))
	for i, v := range d {
		if v == 0 {
			inv[i] = 1
		} else {
			inv[i] = 1 / v
		}
	}
	return &JacobiPrec{InvDiag: inv}
}

// Apply performs the diagonal scaling.
func (p *JacobiPrec) Apply(r, z []float64) {
	for i, v := range r {
		z[i] = v * p.InvDiag[i]
	}
}

// SSORPrec is a symmetric successive-over-relaxation preconditioner for
// symmetric matrices with relaxation factor omega in (0,2).
//
// Apply needs an intermediate vector for the forward-sweep result; the
// instance keeps one cached in an atomic slot so the common serial case
// never re-allocates, while concurrent Apply calls on a shared instance
// (parallel sweep workers reusing one preconditioner) each claim or
// allocate their own scratch instead of silently sharing it — the
// original plain `tmp []float64` field was a data race.
type SSORPrec struct {
	a       *CSR
	diag    []float64
	omega   float64
	scratch atomic.Pointer[[]float64]
}

// NewSSORPrec builds an SSOR preconditioner; omega outside (0,2) is clamped
// to 1 (symmetric Gauss–Seidel).
func NewSSORPrec(a *CSR, omega float64) *SSORPrec {
	if omega <= 0 || omega >= 2 {
		omega = 1
	}
	d := a.Diag()
	for i, v := range d {
		if v == 0 {
			d[i] = 1
		}
	}
	p := &SSORPrec{a: a, diag: d, omega: omega}
	tmp := make([]float64, a.Rows)
	p.scratch.Store(&tmp)
	return p
}

// Apply performs one forward and one backward SOR sweep.
func (p *SSORPrec) Apply(r, z []float64) {
	n := p.a.Rows
	// Claim the cached scratch vector; a concurrent Apply that finds the
	// slot empty allocates its own, so two goroutines never write the
	// same buffer.
	var y []float64
	if t := p.scratch.Swap(nil); t != nil {
		y = *t
	} else {
		y = make([]float64, n)
	}
	// Forward sweep: (D/ω + L) y = r.
	for i := 0; i < n; i++ {
		s := r[i]
		for k := p.a.RowPtr[i]; k < p.a.RowPtr[i+1]; k++ {
			if j := p.a.ColIdx[k]; j < i {
				s -= p.a.Val[k] * y[j]
			}
		}
		y[i] = s * p.omega / p.diag[i]
	}
	// Scale by D/ω, then backward sweep (D/ω + U) z = (D/ω) y.
	for i := 0; i < n; i++ {
		y[i] *= p.diag[i] / p.omega
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := p.a.RowPtr[i]; k < p.a.RowPtr[i+1]; k++ {
			if j := p.a.ColIdx[k]; j > i {
				s -= p.a.Val[k] * z[j]
			}
		}
		z[i] = s * p.omega / p.diag[i]
	}
	p.scratch.Store(&y)
}

// checkFinite rejects NaN or Inf entries in the supplied vectors before a
// solve starts: an iterative method fed a poisoned right-hand side spins
// for maxIter iterations and returns garbage that is hard to trace back.
func checkFinite(method string, vecs ...[]float64) error {
	for _, v := range vecs {
		for i, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("linalg: %s input entry %d is %v", method, i, x)
			}
		}
	}
	return nil
}

// IterStats reports the outcome of an iterative solve.
type IterStats struct {
	Iterations int
	Residual   float64 // final relative residual ‖b−Ax‖/‖b‖
	Converged  bool
}

// IterOptions bundles the optional controls of an iterative solve beyond
// the matrix and right-hand side.
type IterOptions struct {
	Tol     float64        // relative residual target
	MaxIter int            // iteration cap
	Prec    Preconditioner // nil means identity
	// OnIteration, if non-nil, is invoked once per iteration with the
	// 0-based iteration index and the relative residual reached at its
	// end — the hook behind convergence traces.  It runs on the solver
	// goroutine; keep it cheap.
	OnIteration func(it int, residual float64)
	// Stop, if non-nil, is polled once per iteration after the
	// convergence check; returning true aborts the solve with an error
	// wrapping ErrStopped, keeping the best iterate so far.  It is the
	// hook behind robust.Stop, which turns a run's context into it.
	Stop func() bool
	// Work, when it holds at least 3n floats for an operator of order
	// n, lends CG its three work vectors, so a caller that solves again
	// and again allocates at most each nil start's x.  CG ignores what
	// Work holds, overwrites its first 3n entries and keeps no
	// reference to it; a shorter Work is ignored.
	Work []float64
}

// CG solves the SPD system A·x = b with the preconditioned conjugate
// gradient method.  x0 may be nil for a zero initial guess, and CG
// allocates x; otherwise CG starts from x0, writes its iterates over
// it and returns it as x.  It iterates until the relative residual
// falls below tol or maxIter is reached.
//
//lint:allow nanguard input validation (checkFinite) lives in CGOpt
func CG(a Operator, b, x0 []float64, prec Preconditioner, tol float64, maxIter int) ([]float64, IterStats, error) {
	return CGOpt(a, b, x0, &IterOptions{Tol: tol, MaxIter: maxIter, Prec: prec})
}

// CGOpt is CG with the full option set (per-iteration convergence
// callback included).  A nil options value selects identity
// preconditioning with zero tolerance and cap, like CG would.
func CGOpt(a Operator, b, x0 []float64, o *IterOptions) ([]float64, IterStats, error) {
	var opt IterOptions
	if o != nil {
		opt = *o
	}
	if err := checkFinite("CG", b, x0); err != nil {
		return nil, IterStats{}, err
	}
	t := startLayer()
	x, stats, err := cg(a, b, x0, &opt)
	t.observe("linalg_krylov_seconds")
	recordSolve(t.reg, stats, err)
	return x, stats, err
}

func cg(a Operator, b, x0 []float64, o *IterOptions) ([]float64, IterStats, error) {
	prec, tol, maxIter := o.Prec, o.Tol, o.MaxIter
	n := a.Order()
	if m, ok := a.(*CSR); ok && m.Cols != n {
		return nil, IterStats{}, fmt.Errorf("linalg: CG requires a square matrix")
	}
	if len(b) != n {
		return nil, IterStats{}, fmt.Errorf("linalg: CG rhs length %d, want %d", len(b), n)
	}
	if x0 != nil && len(x0) != n {
		return nil, IterStats{}, fmt.Errorf("linalg: CG start length %d, want %d", len(x0), n)
	}
	if prec == nil {
		prec = IdentityPrec{}
	}
	work := o.Work
	if len(work) < 3*n {
		work = make([]float64, 3*n)
	}
	// r is the residual and p the search direction.  z = M⁻¹·r and A·p
	// share one vector: each iteration spends z on p before the product
	// overwrites it, and A·p on x and r before the next z does.  Every
	// vector is written before it is read.
	r, p, z := work[:n:n], work[n:2*n:2*n], work[2*n:3*n:3*n]
	ap := z
	x := x0
	if x != nil {
		ax := a.MulVec(x, ap)
		for i := range r {
			r[i] = b[i] - ax[i]
		}
	} else {
		// Every row of A·0 sums to +0, and b[i] − (+0) is b[i], so the
		// zero start's residual is b itself, bit for bit.
		x = make([]float64, n)
		copy(r, b)
	}
	normB := Norm2(b)
	if normB == 0 {
		return x, IterStats{Converged: true}, nil
	}
	prec.Apply(r, z)
	copy(p, z)
	rz := Dot(r, z)
	var stats IterStats
	for it := 0; it < maxIter; it++ {
		stats.Iterations = it + 1
		a.MulVec(p, ap)
		pap := Dot(p, ap)
		if pap <= 0 {
			return x, stats, fmt.Errorf("linalg: CG breakdown (matrix not SPD?), pᵀAp=%g at iter %d", pap, it)
		}
		alpha := rz / pap
		Axpy(alpha, p, x)
		res := math.Sqrt(axpyDot(-alpha, ap, r)) / normB
		stats.Residual = res
		if o.OnIteration != nil {
			o.OnIteration(it, res)
		}
		if res < tol {
			stats.Converged = true
			return x, stats, nil
		}
		if o.Stop != nil && o.Stop() {
			return x, stats, fmt.Errorf("linalg: CG %w after %d iterations (residual %.3g)", ErrStopped, stats.Iterations, stats.Residual)
		}
		prec.Apply(r, z)
		rzNew := Dot(r, z)
		beta := rzNew / rz
		rz = rzNew
		for i := range p {
			p[i] = z[i] + beta*p[i]
		}
	}
	return x, stats, fmt.Errorf("linalg: CG did not converge in %d iterations (residual %.3g)", maxIter, stats.Residual)
}

// axpyDot computes y ← y + alpha·x and returns y·y, bitwise-identical
// to Axpy(alpha, x, y) followed by Dot(y, y) in one pass over y.
func axpyDot(alpha float64, x, y []float64) float64 {
	y = y[:len(x)]
	s := 0.0
	for i, v := range x {
		y[i] += alpha * v
		s += y[i] * y[i]
	}
	return s
}
