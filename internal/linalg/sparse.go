package linalg

import (
	"fmt"
	"sort"

	"aeropack/internal/parallel"
)

// COO is a coordinate-format sparse matrix builder.  Duplicate entries are
// summed when converting to CSR, which is exactly the accumulation
// behaviour finite-volume and finite-element assembly need.
type COO struct {
	Rows, Cols int
	ri, ci     []int
	v          []float64
}

// NewCOO returns an empty builder for a Rows×Cols matrix.
func NewCOO(rows, cols int) *COO {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid COO dimensions %d×%d", rows, cols))
	}
	return &COO{Rows: rows, Cols: cols}
}

// Add accumulates v at (i,j).
func (c *COO) Add(i, j int, v float64) {
	if i < 0 || i >= c.Rows || j < 0 || j >= c.Cols {
		panic(fmt.Sprintf("linalg: COO index (%d,%d) out of range %d×%d", i, j, c.Rows, c.Cols))
	}
	if v == 0 {
		return
	}
	c.ri = append(c.ri, i)
	c.ci = append(c.ci, j)
	c.v = append(c.v, v)
}

// NNZ returns the number of stored (pre-merge) entries.
func (c *COO) NNZ() int { return len(c.v) }

// ToCSR converts the builder to compressed-sparse-row form, merging
// duplicates by summation and dropping exact zeros produced by
// cancellation, so assembly can never leave explicit zeros in the
// sparsity pattern.
func (c *COO) ToCSR() *CSR {
	n := len(c.v)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if c.ri[ia] != c.ri[ib] {
			return c.ri[ia] < c.ri[ib]
		}
		return c.ci[ia] < c.ci[ib]
	})
	csr := &CSR{Rows: c.Rows, Cols: c.Cols, RowPtr: make([]int, c.Rows+1)}
	rows := make([]int, 0, n)
	lastR, lastC := -1, -1
	for _, idx := range order {
		r, col, v := c.ri[idx], c.ci[idx], c.v[idx]
		if r == lastR && col == lastC {
			csr.Val[len(csr.Val)-1] += v
			continue
		}
		csr.ColIdx = append(csr.ColIdx, col)
		csr.Val = append(csr.Val, v)
		rows = append(rows, r)
		lastR, lastC = r, col
	}
	// Compaction pass: duplicates that summed to exactly zero are
	// structural noise (Add already refuses literal zeros), so the test
	// below is an exact cancellation check, not a tolerance question.
	keep := 0
	for i, v := range csr.Val {
		if v == 0 { // exact cancellation check; zero compares are floatcmp-exempt
			continue
		}
		csr.Val[keep], csr.ColIdx[keep] = v, csr.ColIdx[i]
		csr.RowPtr[rows[i]+1]++
		keep++
	}
	csr.Val, csr.ColIdx = csr.Val[:keep], csr.ColIdx[:keep]
	for i := 0; i < c.Rows; i++ {
		csr.RowPtr[i+1] += csr.RowPtr[i]
	}
	return csr
}

// CSR is a compressed-sparse-row matrix.  Column indices are strictly
// increasing within each row (ToCSR guarantees this; hand-built
// matrices must preserve it).
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64

	// workers is the MulVec parallelism knob set via SetWorkers; 0 or 1
	// keeps the serial path.
	workers int
}

// MulVecParallelNNZ is the stored-entry count above which MulVec uses
// the row-parallel path once SetWorkers has enabled it; below it the
// goroutine fan-out costs more than the product.
const MulVecParallelNNZ = 1 << 14

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// SetWorkers sets the worker budget MulVec may spend on row-parallel
// products when the matrix holds at least MulVecParallelNNZ entries;
// n <= 1 restores the serial path and n <= 0 disables parallelism
// outright.  Rows are partitioned into contiguous blocks and each row's
// accumulation order is unchanged, so the parallel product is
// bitwise-identical to the serial one.  Set the knob before sharing the
// matrix between goroutines — it is not synchronised.
func (m *CSR) SetWorkers(n int) { m.workers = n }

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
//
//lint:hot
func (m *CSR) mulVecInto(x, y []float64) {
	if w := m.workers; w > 1 && m.NNZ() >= MulVecParallelNNZ {
		parallel.Blocks(m.Rows, w, func(_, lo, hi int) {
			m.mulRows(x, y, lo, hi)
		})
		return
	}
	m.mulRows(x, y, 0, m.Rows)
}

// mulRows computes the row range [lo,hi) of y = M·x.
//
//lint:hot
func (m *CSR) mulRows(x, y []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
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
