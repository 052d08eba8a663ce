package linalg

import (
	"fmt"
	"math"
	"sort"
)

// EigenSym computes all eigenvalues and eigenvectors of a symmetric matrix
// using the cyclic Jacobi rotation method.  Eigenpairs are returned in
// ascending eigenvalue order; column j of the returned matrix is the
// eigenvector for eigenvalue j.  The input matrix is not modified.
//
// Jacobi is O(n³) per sweep but unconditionally stable and exact enough for
// the few-hundred-DOF modal problems aeropack solves; it also gives
// orthogonal vectors to machine precision, which the modal superposition
// code relies on.
func EigenSym(a *Dense, tol float64, maxSweeps int) ([]float64, *Dense, error) {
	if a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("linalg: EigenSym requires a square matrix")
	}
	if !a.IsSymmetric(1e-8 * (1 + NormInf(a.Data))) {
		return nil, nil, fmt.Errorf("linalg: EigenSym requires a symmetric matrix")
	}
	n := a.Rows
	w := a.Clone()
	v := NewDense(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	if tol <= 0 {
		tol = 1e-12
	}
	if maxSweeps <= 0 {
		maxSweeps = 100
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += w.At(i, j) * w.At(i, j)
			}
		}
		scale := 0.0
		for i := 0; i < n; i++ {
			scale += w.At(i, i) * w.At(i, i)
		}
		if off <= tol*tol*(scale+off+1e-300) {
			return extractEigen(w, v)
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := w.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := w.At(p, p), w.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Apply rotation J(p,q,θ) on both sides of w.
				for k := 0; k < n; k++ {
					wkp, wkq := w.At(k, p), w.At(k, q)
					w.Set(k, p, c*wkp-s*wkq)
					w.Set(k, q, s*wkp+c*wkq)
				}
				for k := 0; k < n; k++ {
					wpk, wqk := w.At(p, k), w.At(q, k)
					w.Set(p, k, c*wpk-s*wqk)
					w.Set(q, k, s*wpk+c*wqk)
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	return nil, nil, fmt.Errorf("linalg: Jacobi eigensolver did not converge in %d sweeps", maxSweeps)
}

// extractEigen pulls the diagonal of w as eigenvalues and sorts eigenpairs
// ascending.
func extractEigen(w, v *Dense) ([]float64, *Dense, error) {
	n := w.Rows
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = w.At(i, i)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return vals[order[a]] < vals[order[b]] })
	sortedVals := make([]float64, n)
	sortedVecs := NewDense(n, n)
	for newJ, oldJ := range order {
		sortedVals[newJ] = vals[oldJ]
		for i := 0; i < n; i++ {
			sortedVecs.Set(i, newJ, v.At(i, oldJ))
		}
	}
	return sortedVals, sortedVecs, nil
}

// EigenGeneral solves the symmetric generalized eigenproblem
// K·x = λ·M·x with K symmetric and M symmetric positive definite — the
// structural-dynamics modal problem.  It reduces to a standard problem via
// the Cholesky factor of M and returns eigenvalues ascending with
// M-orthonormal eigenvectors as columns.
func EigenGeneral(k, m *Dense, tol float64, maxSweeps int) ([]float64, *Dense, error) {
	if k.Rows != k.Cols || m.Rows != m.Cols || k.Rows != m.Rows {
		return nil, nil, fmt.Errorf("linalg: EigenGeneral dimension mismatch")
	}
	n := k.Rows
	chol, err := FactorCholesky(m)
	if err != nil {
		return nil, nil, fmt.Errorf("linalg: mass matrix not SPD: %w", err)
	}
	l := chol.L()
	// C = L⁻¹·K·L⁻ᵀ in two triangular-solve passes.
	c := NewDense(n, n)
	// B = L⁻¹·K (solve L·B = K column-wise).
	b := NewDense(n, n)
	tmp := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			tmp[i] = k.At(i, j)
		}
		x := SolveLowerTri(l, tmp)
		for i := 0; i < n; i++ {
			b.Set(i, j, x[i])
		}
	}
	// C = B·L⁻ᵀ  ⇔  Cᵀ = L⁻¹·Bᵀ (solve L·Cᵀ = Bᵀ column-wise).
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			tmp[i] = b.At(j, i)
		}
		x := SolveLowerTri(l, tmp)
		for i := 0; i < n; i++ {
			c.Set(j, i, x[i])
		}
	}
	// Symmetrize to kill round-off asymmetry before Jacobi.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			avg := 0.5 * (c.At(i, j) + c.At(j, i))
			c.Set(i, j, avg)
			c.Set(j, i, avg)
		}
	}
	vals, y, err := EigenSym(c, tol, maxSweeps)
	if err != nil {
		return nil, nil, err
	}
	// x = L⁻ᵀ·y per column.
	vecs := NewDense(n, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			tmp[i] = y.At(i, j)
		}
		x := SolveUpperTriT(l, tmp)
		for i := 0; i < n; i++ {
			vecs.Set(i, j, x[i])
		}
	}
	return vals, vecs, nil
}

// tridiagMaxSweeps bounds the implicit QL sweeps spent on one eigenvalue;
// two or three suffice in practice.
const tridiagMaxSweeps = 60

// eigenTridiag computes every eigenpair of the symmetric tridiagonal
// matrix with diagonal d and couplings off (off[i] joins rows i and
// i+1; len(off) = len(d), the last entry ignored) by the implicit QL
// method with Wilkinson shifts.  On return d holds the eigenvalues in
// ascending order and w (n×n) the orthonormal eigenvectors as rows:
// w[q*n+i] is component i of vector q.  Storing vectors as rows keeps
// every plane rotation on two contiguous rows.  off is overwritten.
func eigenTridiag(d, off, w []float64) error {
	n := len(d)
	off[n-1] = 0
	clear(w)
	for i := 0; i < n; i++ {
		w[i*n+i] = 1
	}
	for l := 0; l < n; l++ {
		for sweep := 0; ; sweep++ {
			// Split off d[l] once the coupling below it is negligible.
			m := l
			for ; m < n-1; m++ {
				if math.Abs(off[m]) <= 0x1p-53*(math.Abs(d[m])+math.Abs(d[m+1])) {
					break
				}
			}
			if m == l {
				break
			}
			if sweep == tridiagMaxSweeps {
				return fmt.Errorf("linalg: tridiagonal eigensolver did not converge in %d sweeps at row %d", sweep, l)
			}
			// Wilkinson shift from the leading 2×2 block, then chase the
			// bulge from row m up to row l with plane rotations.
			g := (d[l+1] - d[l]) / (2 * off[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + off[l]/(g+math.Copysign(r, g))
			s, c, p := 1.0, 1.0, 0.0
			deflated := false
			for i := m - 1; i >= l; i-- {
				f, b := s*off[i], c*off[i]
				r = math.Hypot(f, g)
				off[i+1] = r
				if r == 0 {
					// Underflow split the block: take the shift and retry.
					d[i+1] -= p
					off[m] = 0
					deflated = true
					break
				}
				s, c = f/r, g/r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
				wi, wj := w[i*n:i*n+n], w[(i+1)*n:(i+1)*n+n]
				for k, u := range wj {
					v := wi[k]
					wj[k] = s*v + c*u
					wi[k] = c*v - s*u
				}
			}
			if deflated {
				continue
			}
			d[l] -= p
			off[l] = g
			off[m] = 0
		}
	}
	// Selection-sort the pairs ascending; n is an axis length, so the
	// O(n²) comparisons are negligible next to the O(n³) rotations.
	for i := 0; i < n-1; i++ {
		k := i
		for j := i + 1; j < n; j++ {
			if d[j] < d[k] {
				k = j
			}
		}
		if k != i {
			d[i], d[k] = d[k], d[i]
			for c := 0; c < n; c++ {
				w[i*n+c], w[k*n+c] = w[k*n+c], w[i*n+c]
			}
		}
	}
	return nil
}
