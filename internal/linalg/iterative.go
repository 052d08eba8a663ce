package linalg

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// ErrStopped is wrapped into the error returned when an iterative solve
// is aborted by IterOptions.Stop before reaching its tolerance — the
// budget-exceeded signal fallback chains (internal/robust) test for with
// errors.Is.
var ErrStopped = errors.New("solve stopped by budget callback")

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

// Refresh recomputes the inverse diagonal from a matrix with new values,
// reusing the existing storage — it allocates nothing, which is the
// point of hoisting one instance out of a time-stepping loop.  The
// caller must own the instance exclusively (no concurrent Apply) — shared
// instances handed out by SolverSetup are immutable and must not be
// refreshed.
func (p *JacobiPrec) Refresh(a *CSR) error {
	if a.Rows != len(p.InvDiag) {
		return fmt.Errorf("linalg: Jacobi refresh dimension %d, want %d", a.Rows, len(p.InvDiag))
	}
	for i := 0; i < a.Rows; i++ {
		v := 0.0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k] == i {
				v = a.Val[k]
				break
			}
		}
		if v == 0 {
			p.InvDiag[i] = 1
		} else {
			p.InvDiag[i] = 1 / v
		}
	}
	return nil
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

// Refresh rebinds the preconditioner to a matrix with identical sparsity
// structure but new values.  The caller must own the instance exclusively
// (no concurrent Apply); SolverSetup-cached instances are immutable.
func (p *SSORPrec) Refresh(a *CSR) error {
	if a.Rows != p.a.Rows || a.Cols != p.a.Cols {
		return fmt.Errorf("linalg: SSOR refresh dimensions %d×%d, want %d×%d", a.Rows, a.Cols, p.a.Rows, p.a.Cols)
	}
	p.a = a
	d := a.Diag()
	for i, v := range d {
		if v == 0 {
			d[i] = 1
		}
	}
	p.diag = d
	return nil
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
	// end — the hook behind convergence traces (see ConvergenceLog).
	// It runs on the solver goroutine; keep it cheap.
	OnIteration func(it int, residual float64)
	// Stop, if non-nil, is polled once per iteration after the
	// convergence check; returning true aborts the solve with an error
	// wrapping ErrStopped, keeping the best iterate so far.  It is the
	// hook behind wall-clock attempt budgets and forced-bailout fault
	// injection (internal/robust).
	Stop func() bool
}

// CG solves the SPD system A·x = b with the preconditioned conjugate
// gradient method.  x0 may be nil for a zero initial guess.  It iterates
// until the relative residual falls below tol or maxIter is reached.
//
//lint:allow nanguard input validation (checkFinite) lives in CGOpt
func CG(a *CSR, b, x0 []float64, prec Preconditioner, tol float64, maxIter int) ([]float64, IterStats, error) {
	return CGOpt(a, b, x0, &IterOptions{Tol: tol, MaxIter: maxIter, Prec: prec})
}

// CGOpt is CG with the full option set (per-iteration convergence
// callback included).  A nil options value selects identity
// preconditioning with zero tolerance and cap, like CG would.
func CGOpt(a *CSR, b, x0 []float64, o *IterOptions) ([]float64, IterStats, error) {
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
	recordSolve(t.reg, "cg", stats, err)
	return x, stats, err
}

func cg(a *CSR, b, x0 []float64, o *IterOptions) ([]float64, IterStats, error) {
	prec, tol, maxIter := o.Prec, o.Tol, o.MaxIter
	n := a.Rows
	if a.Cols != n {
		return nil, IterStats{}, fmt.Errorf("linalg: CG requires a square matrix")
	}
	if len(b) != n {
		return nil, IterStats{}, fmt.Errorf("linalg: CG rhs length %d, want %d", len(b), n)
	}
	if prec == nil {
		prec = IdentityPrec{}
	}
	x := make([]float64, n)
	if x0 != nil {
		copy(x, x0)
	}
	r := make([]float64, n)
	ax := a.MulVec(x, nil)
	for i := range r {
		r[i] = b[i] - ax[i]
	}
	normB := Norm2(b)
	if normB == 0 {
		return x, IterStats{Converged: true}, nil
	}
	z := make([]float64, n)
	prec.Apply(r, z)
	p := make([]float64, n)
	copy(p, z)
	rz := Dot(r, z)
	ap := make([]float64, n)
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

// BiCGSTAB solves the general (possibly unsymmetric) system A·x = b.
//
//lint:allow nanguard input validation (checkFinite) lives in BiCGSTABOpt
func BiCGSTAB(a *CSR, b, x0 []float64, prec Preconditioner, tol float64, maxIter int) ([]float64, IterStats, error) {
	return BiCGSTABOpt(a, b, x0, &IterOptions{Tol: tol, MaxIter: maxIter, Prec: prec})
}

// BiCGSTABOpt is BiCGSTAB with the full option set (per-iteration
// convergence callback included).
func BiCGSTABOpt(a *CSR, b, x0 []float64, o *IterOptions) ([]float64, IterStats, error) {
	var opt IterOptions
	if o != nil {
		opt = *o
	}
	if err := checkFinite("BiCGSTAB", b, x0); err != nil {
		return nil, IterStats{}, err
	}
	t := startLayer()
	x, stats, err := bicgstab(a, b, x0, &opt)
	t.observe("linalg_krylov_seconds")
	recordSolve(t.reg, "bicgstab", stats, err)
	return x, stats, err
}

func bicgstab(a *CSR, b, x0 []float64, o *IterOptions) ([]float64, IterStats, error) {
	prec, tol, maxIter := o.Prec, o.Tol, o.MaxIter
	n := a.Rows
	if a.Cols != n {
		return nil, IterStats{}, fmt.Errorf("linalg: BiCGSTAB requires a square matrix")
	}
	if len(b) != n {
		return nil, IterStats{}, fmt.Errorf("linalg: BiCGSTAB rhs length %d, want %d", len(b), n)
	}
	if prec == nil {
		prec = IdentityPrec{}
	}
	x := make([]float64, n)
	if x0 != nil {
		copy(x, x0)
	}
	r := make([]float64, n)
	ax := a.MulVec(x, nil)
	for i := range r {
		r[i] = b[i] - ax[i]
	}
	normB := Norm2(b)
	if normB == 0 {
		return x, IterStats{Converged: true}, nil
	}
	rhat := make([]float64, n)
	copy(rhat, r)
	var rho, alpha, omega float64 = 1, 1, 1
	v := make([]float64, n)
	p := make([]float64, n)
	phat := make([]float64, n)
	s := make([]float64, n)
	shat := make([]float64, n)
	t := make([]float64, n)
	var stats IterStats
	for it := 0; it < maxIter; it++ {
		stats.Iterations = it + 1
		rhoNew := Dot(rhat, r)
		if math.Abs(rhoNew) < 1e-300 {
			return x, stats, fmt.Errorf("linalg: BiCGSTAB breakdown (rho≈0) at iter %d", it)
		}
		beta := (rhoNew / rho) * (alpha / omega)
		rho = rhoNew
		for i := range p {
			p[i] = r[i] + beta*(p[i]-omega*v[i])
		}
		prec.Apply(p, phat)
		a.MulVec(phat, v)
		alpha = rho / Dot(rhat, v)
		for i := range s {
			s[i] = r[i] - alpha*v[i]
		}
		if res := Norm2(s) / normB; res < tol {
			Axpy(alpha, phat, x)
			stats.Residual = res
			stats.Converged = true
			if o.OnIteration != nil {
				o.OnIteration(it, res)
			}
			return x, stats, nil
		}
		prec.Apply(s, shat)
		a.MulVec(shat, t)
		tt := Dot(t, t)
		if tt == 0 {
			return x, stats, fmt.Errorf("linalg: BiCGSTAB breakdown (t=0) at iter %d", it)
		}
		omega = Dot(t, s) / tt
		Axpy(alpha, phat, x)
		Axpy(omega, shat, x)
		for i := range r {
			r[i] = s[i] - omega*t[i]
		}
		res := Norm2(r) / normB
		stats.Residual = res
		if o.OnIteration != nil {
			o.OnIteration(it, res)
		}
		if res < tol {
			stats.Converged = true
			return x, stats, nil
		}
		if math.Abs(omega) < 1e-300 {
			return x, stats, fmt.Errorf("linalg: BiCGSTAB breakdown (omega≈0) at iter %d", it)
		}
		if o.Stop != nil && o.Stop() {
			return x, stats, fmt.Errorf("linalg: BiCGSTAB %w after %d iterations (residual %.3g)", ErrStopped, stats.Iterations, stats.Residual)
		}
	}
	return x, stats, fmt.Errorf("linalg: BiCGSTAB did not converge in %d iterations (residual %.3g)", maxIter, stats.Residual)
}
