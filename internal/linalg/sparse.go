package linalg

import "sort"

// CSR is a compressed-sparse-row matrix.  Column indices are strictly
// increasing within each row; every builder must keep them so.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// MulVec computes y = M·x, reusing y if it has the right length.
//
// Aliasing contract: y may be the identical slice as x (the product is
// then formed in a scratch buffer and copied back, so m.MulVec(v, v)
// yields the correct product); partially overlapping slices that share
// memory without sharing the first element are not detected and produce
// garbage.
func (m *CSR) MulVec(x, y []float64) []float64 {
	if len(x) != m.Cols {
		panic("linalg: dimension mismatch in CSR MulVec")
	}
	if len(y) != m.Rows {
		y = make([]float64, m.Rows)
	} else if len(y) > 0 && len(x) > 0 && &y[0] == &x[0] {
		// y aliases x: rows would read already-overwritten values, so
		// compute into a fresh buffer first.
		tmp := make([]float64, m.Rows)
		m.mulVecInto(x, tmp)
		copy(y, tmp)
		return y
	}
	m.mulVecInto(x, y)
	return y
}

// mulVecInto computes y = M·x into a non-aliasing y of length Rows.
// Ranging over y keeps the loop bound in a register and proves every
// y[i] store in bounds.
//
//lint:hot
func (m *CSR) mulVecInto(x, y []float64) {
	for i := range y {
		cols, vals := m.ColIdx[m.RowPtr[i]:m.RowPtr[i+1]], m.Val[m.RowPtr[i]:m.RowPtr[i+1]]
		vals = vals[:len(cols)]
		s := 0.0
		for k, c := range cols {
			s += vals[k] * x[c]
		}
		y[i] = s
	}
}

// At returns element (i,j) with a per-row binary search; O(log nnz_row).
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	k := sort.SearchInts(m.ColIdx[lo:hi], j) + lo
	if k < hi && m.ColIdx[k] == j {
		return m.Val[k]
	}
	return 0
}

// Diag extracts the main diagonal with a single ordered row walk:
// column indices are sorted within each row, so scanning each row until
// the column passes i costs O(nnz) overall — the per-element binary
// search it replaces made Jacobi/SSOR preconditioner setup O(n·log nnz).
func (m *CSR) Diag() []float64 {
	d := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			if j := m.ColIdx[k]; j == i {
				d[i] = m.Val[k]
				break
			} else if j > i {
				break
			}
		}
	}
	return d
}

// IsSymmetric reports whether the matrix is structurally and numerically
// symmetric to tolerance tol.  It walks all rows once with a monotone
// cursor per row: as the outer row i advances, the mirror lookups into
// any row j arrive in increasing column order, so each cursor only ever
// moves forward and the whole check is O(nnz) instead of O(nnz·log nnz).
func (m *CSR) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	cur := make([]int, m.Rows)
	copy(cur, m.RowPtr[:m.Rows])
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			j := m.ColIdx[k]
			for cur[j] < m.RowPtr[j+1] && m.ColIdx[cur[j]] < i {
				cur[j]++
			}
			mirror := 0.0
			if cur[j] < m.RowPtr[j+1] && m.ColIdx[cur[j]] == i {
				mirror = m.Val[cur[j]]
			}
			if d := m.Val[k] - mirror; d > tol || d < -tol {
				return false
			}
		}
	}
	return true
}

// ToDense expands the matrix; for tests and small eigenproblems only.
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d.Set(i, m.ColIdx[k], m.Val[k])
		}
	}
	return d
}
