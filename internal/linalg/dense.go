// Package linalg implements the dense and sparse linear algebra needed by
// aeropack's finite-volume thermal solver and finite-element structural
// solver: LU and Cholesky factorisations, preconditioned conjugate-gradient
// iterations on CSR matrices, and symmetric (including generalized)
// eigensolvers for modal analysis.
//
// Everything is written against float64 slices with row-major dense storage;
// there are no external dependencies.
package linalg

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewDense allocates a zeroed Rows×Cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid dense dimensions %d×%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i,j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i,j).
func (m *Dense) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec computes y = M·x.
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic("linalg: dimension mismatch in MulVec")
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// Mul returns M·B.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.Cols != b.Rows {
		panic("linalg: dimension mismatch in Mul")
	}
	out := NewDense(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += a * b.At(k, j)
			}
		}
	}
	return out
}

// Transpose returns Mᵀ.
func (m *Dense) Transpose() *Dense {
	t := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// IsSymmetric reports whether the matrix is symmetric to tolerance tol.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// LU holds an LU factorisation with partial pivoting: P·A = L·U.
type LU struct {
	lu   *Dense
	piv  []int
	sign int
}

// FactorLU computes the LU factorisation of a square matrix A with partial
// pivoting.  It returns an error if A is singular to working precision.
func FactorLU(a *Dense) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: LU requires a square matrix, got %d×%d", a.Rows, a.Cols)
	}
	n := a.Rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for k := 0; k < n; k++ {
		// Pivot search.
		p, maxv := k, math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > maxv {
				p, maxv = i, v
			}
		}
		if maxv < 1e-300 {
			return nil, fmt.Errorf("linalg: singular matrix at pivot %d", k)
		}
		if p != k {
			ri, rk := lu.Data[p*n:(p+1)*n], lu.Data[k*n:(k+1)*n]
			for j := range ri {
				ri[j], rk[j] = rk[j], ri[j]
			}
			piv[p], piv[k] = piv[k], piv[p]
			sign = -sign
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			f := lu.At(i, k) / pivot
			lu.Set(i, k, f)
			if f == 0 {
				continue
			}
			rowi := lu.Data[i*n : (i+1)*n]
			rowk := lu.Data[k*n : (k+1)*n]
			for j := k + 1; j < n; j++ {
				rowi[j] -= f * rowk[j]
			}
		}
	}
	return &LU{lu: lu, piv: piv, sign: sign}, nil
}

// Solve returns x with A·x = b.
func (f *LU) Solve(b []float64) []float64 {
	n := f.lu.Rows
	if len(b) != n {
		panic("linalg: dimension mismatch in LU solve")
	}
	x := make([]float64, n)
	for i, p := range f.piv {
		x[i] = b[p]
	}
	// Forward substitution (L has unit diagonal).
	for i := 1; i < n; i++ {
		row := f.lu.Data[i*n : (i+1)*n]
		s := x[i]
		for j := 0; j < i; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Data[i*n : (i+1)*n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	n := f.lu.Rows
	for i := 0; i < n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// SolveDense solves A·x = b via LU for one right-hand side.
func SolveDense(a *Dense, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// Cholesky holds the lower-triangular factor of a symmetric positive
// definite matrix: A = L·Lᵀ.
type Cholesky struct {
	l *Dense
}

// FactorCholesky computes the Cholesky factorisation of an SPD matrix.
func FactorCholesky(a *Dense) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Cholesky requires a square matrix")
	}
	n := a.Rows
	l := NewDense(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			v := l.At(j, k)
			d -= v * v
		}
		if d <= 0 {
			return nil, fmt.Errorf("linalg: matrix not positive definite at row %d (d=%g)", j, d)
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/ljj)
		}
	}
	return &Cholesky{l: l}, nil
}

// Solve returns x with A·x = b.
func (c *Cholesky) Solve(b []float64) []float64 {
	n := c.l.Rows
	if len(b) != n {
		panic("linalg: dimension mismatch in Cholesky solve")
	}
	// L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= c.l.At(i, j) * y[j]
		}
		y[i] = s / c.l.At(i, i)
	}
	// Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= c.l.At(j, i) * x[j]
		}
		x[i] = s / c.l.At(i, i)
	}
	return x
}

// L returns the lower-triangular factor.
func (c *Cholesky) L() *Dense { return c.l }

// SolveLowerTri solves L·x = b for lower-triangular L.
func SolveLowerTri(l *Dense, b []float64) []float64 {
	n := l.Rows
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= l.At(i, j) * x[j]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// SolveUpperTriT solves Lᵀ·x = b for lower-triangular L.
func SolveUpperTriT(l *Dense, b []float64) []float64 {
	n := l.Rows
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= l.At(j, i) * x[j]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// Vector helpers.

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: dimension mismatch in Dot")
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 { return math.Sqrt(Dot(v, v)) }

// NormInf returns the max-abs norm of v.
func NormInf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Axpy computes y ← y + alpha·x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: dimension mismatch in Axpy")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale multiplies v by alpha in place.
func Scale(alpha float64, v []float64) {
	for i := range v {
		v[i] *= alpha
	}
}
