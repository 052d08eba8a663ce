package linalg

import (
	"fmt"
	"sort"
)

// The COO builder assembles this package's test matrices.  The thermal
// models assemble straight into their own patterns: the FV stencil into
// a CSR, the networks into an LDLᵀ.

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
