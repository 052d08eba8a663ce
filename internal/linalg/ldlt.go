package linalg

import (
	"fmt"
	"slices"
)

// LDLT is a sparse LDLᵀ factorization of a symmetric positive definite
// matrix whose pattern is a graph: unknowns i and j couple when an edge
// joins them.  NewLDLT orders the unknowns and lays out L's fill pattern
// once, and carries no values; Clone gives a factorization values of its
// own over that pattern.  Each Factor is one numeric factorization of the
// values assembled into Diag and Lower, and Solve may then run any
// number of times.  Memory is O(n + nnz(L)).  An LDLT is not safe for
// concurrent use; each concurrent solve factors in a clone of its own.
type LDLT struct {
	// Diag holds the diagonal by unknown, Lower the off-diagonal entries
	// at the slots NewLDLT returned for the edges; repeated edges share a
	// slot, so their values add.  Factor leaves both unchanged.
	Diag, Lower []float64

	perm           []int     // perm[k] is the unknown eliminated k-th
	colPtr, colRow []int     // column k of L: rows colRow[colPtr[k]:colPtr[k+1]], ascending
	l, d, x        []float64 // L by slot and D by position; x is Solve's scratch
}

// PivotError reports a factorization that met a pivot that is not
// positive: the matrix is not positive definite, and Index is the
// unknown whose elimination exposed it.
type PivotError struct {
	Index int
	Pivot float64
}

func (e *PivotError) Error() string {
	return fmt.Sprintf("linalg: LDLᵀ pivot %g at unknown %d (matrix not positive definite)", e.Pivot, e.Index)
}

// NewLDLT orders the n unknowns coupled by edges and lays out L's fill
// pattern.  It returns the pattern, whose Clone is the factorization to
// assemble into, and each edge's slot in Lower.  Edges must join two
// distinct unknowns in [0, n); repeats are allowed.
//
// The order is minimum degree: the next unknown eliminated has the
// fewest uneliminated neighbours, ties going to the lowest index, and its
// neighbours then become a clique (the fill).  It depends only on the
// graph, so factorizations are bitwise reproducible.  A tree eliminates
// leaf first and fills nothing, and a lazy heap over the degrees keeps
// the ordering of a near-tree near-linear.
func NewLDLT(n int, edges [][2]int) (*LDLT, []int) {
	// Sorted neighbour lists, carved from one block; fill grows them.
	deg := make([]int, n+1)
	for _, e := range edges {
		if e[0] == e[1] || min(e[0], e[1]) < 0 || max(e[0], e[1]) >= n {
			panic(fmt.Sprintf("linalg: LDLᵀ edge %v invalid for %d unknowns", e, n))
		}
		deg[e[0]+1]++
		deg[e[1]+1]++
	}
	for i := 0; i < n; i++ {
		deg[i+1] += deg[i]
	}
	block, adj := make([]int, deg[n]), make([][]int, n)
	for i := range adj {
		adj[i] = block[deg[i]:deg[i]:deg[i+1]]
	}
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	ints := make([]int, 3*n+1)
	pos, perm, colPtr := ints[:n], ints[n:n:2*n], ints[2*n:2*n+1]
	heap := make([]uint64, 0, 2*n)
	for i, a := range adj {
		slices.Sort(a)
		adj[i] = slices.Compact(a)
		deg[i], pos[i] = len(adj[i]), -1
		heap = heapPush(heap, uint64(deg[i])<<32|uint64(i))
	}

	colRow, nb := make([]int, 0, len(edges)), make([]int, 0, n)
	for len(perm) < n {
		var key uint64
		key, heap = heapPop(heap)
		v := int(uint32(key))
		if pos[v] >= 0 || int(key>>32) != deg[v] {
			continue // stale: v is gone or its degree has changed
		}
		pos[v] = len(perm)
		perm = append(perm, v)
		nb = nb[:0]
		for _, u := range adj[v] {
			if pos[u] < 0 {
				nb = append(nb, u)
			}
		}
		colRow = append(colRow, nb...)
		colPtr = append(colPtr, len(colRow))
		for _, u := range nb {
			deg[u]--
			for _, w := range nb {
				if at, found := slices.BinarySearch(adj[u], w); w != u && !found {
					adj[u] = slices.Insert(adj[u], at, w)
					deg[u]++
				}
			}
			heap = heapPush(heap, uint64(deg[u])<<32|uint64(u))
		}
	}
	for k := 0; k < n; k++ {
		col := colRow[colPtr[k]:colPtr[k+1]]
		for p, u := range col {
			col[p] = pos[u]
		}
		slices.Sort(col)
	}
	// An edge is the entry of L in its earlier-eliminated end's column.
	slots := make([]int, len(edges))
	for e, ed := range edges {
		i, j := min(pos[ed[0]], pos[ed[1]]), max(pos[ed[0]], pos[ed[1]])
		at, _ := slices.BinarySearch(colRow[colPtr[i]:colPtr[i+1]], j)
		slots[e] = colPtr[i] + at
	}
	return &LDLT{perm: perm, colPtr: colPtr, colRow: colRow}, slots
}

// Clone returns a factorization over f's order and fill pattern, which
// the two share, with zeroed values of its own carved from one block.
// The pattern is never written after NewLDLT, so clones of one LDLT may
// be assembled, factored and solved concurrently.
func (f *LDLT) Clone() *LDLT {
	n, nnz := len(f.perm), len(f.colRow)
	vals := make([]float64, 3*n+2*nnz)
	return &LDLT{Diag: vals[:n:n], Lower: vals[n : n+nnz : n+nnz], perm: f.perm, colPtr: f.colPtr, colRow: f.colRow,
		l: vals[n+nnz : n+2*nnz : n+2*nnz], d: vals[n+2*nnz : 2*n+2*nnz : 2*n+2*nnz], x: vals[2*n+2*nnz:]}
}

// Factor computes L and D from Diag and Lower, eliminating the unknowns
// in order: each pivot updates the entries its column of L couples, then
// scales the column.  A pivot that is not positive, NaN included,
// returns a *PivotError.  Factor allocates nothing.
//
//lint:hot
func (f *LDLT) Factor() error {
	l, d := f.l, f.d
	copy(l, f.Lower)
	for k, v := range f.perm {
		d[k] = f.Diag[v]
	}
	for k, dk := range d {
		if !(dk > 0) {
			return &PivotError{Index: f.perm[k], Pivot: dk}
		}
		rows, col := f.colRow[f.colPtr[k]:f.colPtr[k+1]], l[f.colPtr[k]:f.colPtr[k+1]]
		for p, i := range rows {
			d[i] -= col[p] * col[p] / dk
			for q := p + 1; q < len(rows); q++ {
				at, _ := slices.BinarySearch(f.colRow[f.colPtr[i]:f.colPtr[i+1]], rows[q])
				l[f.colPtr[i]+at] -= col[p] * col[q] / dk
			}
		}
		for p := range col {
			col[p] /= dk
		}
	}
	return nil
}

// Solve overwrites b with the solution of L·D·Lᵀ·x = b from the last
// successful Factor: a forward sweep, then the diagonal and a backward
// sweep.  Solve allocates nothing.
//
//lint:hot
func (f *LDLT) Solve(b []float64) {
	if len(b) != len(f.perm) {
		panic("linalg: dimension mismatch in LDLT Solve")
	}
	x := f.x
	for k, v := range f.perm {
		x[k] = b[v]
	}
	for j, xj := range x {
		for p := f.colPtr[j]; p < f.colPtr[j+1]; p++ {
			x[f.colRow[p]] -= f.l[p] * xj
		}
	}
	for j := len(x) - 1; j >= 0; j-- {
		s := x[j] / f.d[j]
		for p := f.colPtr[j]; p < f.colPtr[j+1]; p++ {
			s -= f.l[p] * x[f.colRow[p]]
		}
		x[j] = s
	}
	for k, v := range f.perm {
		b[v] = x[k]
	}
}

// heapPush and heapPop keep a binary min-heap of degree<<32|unknown keys.
func heapPush(h []uint64, key uint64) []uint64 {
	h = append(h, key)
	for i := len(h) - 1; i > 0 && h[(i-1)/2] > h[i]; i = (i - 1) / 2 {
		h[(i-1)/2], h[i] = h[i], h[(i-1)/2]
	}
	return h
}

func heapPop(h []uint64) (uint64, []uint64) {
	top := h[0]
	h[0] = h[len(h)-1]
	h = h[:len(h)-1]
	for i := 0; ; {
		c := 2*i + 1
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if c >= len(h) || h[i] <= h[c] {
			return top, h
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
