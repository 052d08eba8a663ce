package linalg

import (
	"fmt"
	"math"
)

// ICPrec is an incomplete-Cholesky preconditioner in root-free form:
// A ≈ M = (I+N)·D·(I+N)ᵀ, where N is strictly lower triangular with
// exactly the sparsity of A's strict lower triangle, D is diagonal, and
// every fill-in entry the true factorization would create is dropped.
// For the tree-like resistance networks and tightly-coupled
// finite-volume operators aeropack assembles, the dropped fill is small,
// so M is close to a complete factorization and preconditioned CG
// converges in a handful of iterations where Jacobi needs dozens.
//
// Two variants share the code.  IC(0) (NewICPrec, kind "ic0") simply
// discards the dropped fill.  Modified IC(0) (NewMICPrec, kind "mic0")
// subtracts micOmega times each dropped fill from the two diagonals it
// couples, so M nearly keeps A's row sums; on the FV board operators
// that roughly halves the CG iterations.
//
// Incomplete factorization of an SPD matrix can still break down (a
// pivot d ≤ 0 once fill is discarded — Kershaw's classic example).  The
// constructor then retries on the shifted matrix A + α·diag(A) with a
// growing ladder of shifts; Shift reports the α that succeeded.
//
// Apply is self-contained — the forward solve writes into z and the
// backward solve runs in place on z, so one ICPrec instance may be
// shared by concurrent solves without synchronisation.
type ICPrec struct {
	sym *icSymbolic
	// val holds N in the strict-lower slots of the lower-triangle
	// pattern and 1/D in the diagonal slots, so neither triangular sweep
	// divides.
	val   []float64
	shift float64 // diagonal shift α used (0 for a clean factorization)
}

// icSymbolic is the reusable symbolic part of an incomplete
// factorization: the lower-triangle pattern of A, the mapping from its
// entries back into A's value array, and a column index over the strict
// lower part.  It is immutable after construction, so one instance can
// back many numeric factorizations (SolverSetup shares it across sweep
// points whose matrices have identical structure).
type icSymbolic struct {
	n      int
	rowPtr []int // row i's slots are rowPtr[i]..rowPtr[i+1]-1, the last its diagonal
	colIdx []int
	src    []int // index into a.Val feeding each slot
	// Column j of N is tRow/tSrc[tPtr[j]:tPtr[j+1]]: the rows holding an
	// entry in column j, ascending, and each entry's slot in val.  The
	// backward sweep gathers through it and the numeric factorization
	// runs right-looking over it.
	tPtr, tRow, tSrc []int32
}

// micOmega scales the diagonal compensation of modified IC(0).  1 would
// preserve A's row sums exactly; slightly less keeps the pivots of
// nearly singular operators away from zero.
const micOmega = 0.95

// icShifts is the diagonal-shift ladder tried when the unshifted
// factorization breaks down.
var icShifts = []float64{0, 1e-3, 1e-2, 1e-1, 1, 10}

// NewICPrec builds an IC(0) preconditioner for the symmetric positive
// definite matrix a.  When the factorization breaks down it retries with
// progressively larger diagonal shifts; the error reports the final
// breakdown when even the largest shift fails (callers typically degrade
// to Jacobi — see robust.Chain).
func NewICPrec(a *CSR) (*ICPrec, error) { return newIC(a, 0) }

// NewMICPrec builds a modified IC(0) preconditioner for the symmetric
// positive definite matrix a, with NewICPrec's shift ladder and errors.
func NewMICPrec(a *CSR) (*ICPrec, error) { return newIC(a, micOmega) }

func newIC(a *CSR, omega float64) (*ICPrec, error) {
	t := startLayer()
	defer t.observe("linalg_prec_setup_seconds")
	sym, err := icSymbolicFromCSR(a)
	if err != nil {
		return nil, err
	}
	return sym.factor(a, omega)
}

// icSymbolicFromCSR extracts the lower-triangle pattern and builds its
// column index.  Every row must hold a diagonal entry — an SPD matrix
// always does, and a zero pivot could never be repaired by the
// multiplicative shift anyway.
func icSymbolicFromCSR(a *CSR) (*icSymbolic, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: IC(0) requires a square matrix, got %d×%d", a.Rows, a.Cols)
	}
	if a.NNZ() > math.MaxInt32 {
		return nil, fmt.Errorf("linalg: IC(0) column index overflows int32 at %d entries", a.NNZ())
	}
	n := a.Rows
	lower := (a.NNZ() + n) / 2 // exact for a symmetric pattern
	s := &icSymbolic{n: n, rowPtr: make([]int, n+1), tPtr: make([]int32, n+1),
		colIdx: make([]int, 0, lower), src: make([]int, 0, lower)}
	for i := 0; i < n; i++ {
		hasDiag := false
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			if j > i {
				break // columns are sorted within a row
			}
			s.colIdx = append(s.colIdx, j)
			s.src = append(s.src, k)
			if j == i {
				hasDiag = true
			} else {
				s.tPtr[j+1]++
			}
		}
		if !hasDiag {
			return nil, fmt.Errorf("linalg: IC(0) row %d has no diagonal entry", i)
		}
		s.rowPtr[i+1] = len(s.colIdx)
	}
	for j := 0; j < n; j++ {
		s.tPtr[j+1] += s.tPtr[j]
	}
	s.tRow = make([]int32, s.tPtr[n])
	s.tSrc = make([]int32, s.tPtr[n])
	next := append([]int32(nil), s.tPtr[:n]...)
	for i := 0; i < n; i++ {
		for k := s.rowPtr[i]; k < s.rowPtr[i+1]-1; k++ {
			e := next[s.colIdx[k]]
			s.tRow[e], s.tSrc[e] = int32(i), int32(k)
			next[s.colIdx[k]]++
		}
	}
	return s, nil
}

// factor runs the numeric factorization against a, walking the shift
// ladder on breakdown; omega is the fill compensation (0 for IC(0)).
// The matrix must have the pattern the symbolic phase was built from
// (SolverSetup guarantees this by content hash; direct callers get it
// from newIC).
func (s *icSymbolic) factor(a *CSR, omega float64) (*ICPrec, error) {
	val := make([]float64, len(s.colIdx))
	var lastErr error
	for _, alpha := range icShifts {
		if err := s.factorShifted(a, alpha, omega, val); err != nil {
			lastErr = err
			continue
		}
		return &ICPrec{sym: s, val: val, shift: alpha}, nil
	}
	return nil, fmt.Errorf("linalg: IC(0) breakdown persists through shift ladder: %w", lastErr)
}

// factorShifted computes N and 1/D for A + alpha·diag(A) into val,
// right-looking: column j's pivot d scales the column into N, then each
// pair of its entries (i, k), i ≥ k, updates (i, k) by N_ij·d·N_kj.  An
// update falling outside the pattern is dropped fill; omega times it is
// subtracted from both diagonals it couples.  It returns an error on
// pivot breakdown (d ≤ 0 or non-finite).
func (s *icSymbolic) factorShifted(a *CSR, alpha, omega float64, val []float64) error {
	for k, q := range s.src {
		val[k] = a.Val[q]
	}
	for i := 0; i < s.n; i++ {
		di := s.rowPtr[i+1] - 1
		val[di] += alpha * val[di]
	}
	for j := 0; j < s.n; j++ {
		dj := s.rowPtr[j+1] - 1
		d := val[dj]
		if d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
			return fmt.Errorf("linalg: IC(0) pivot %g at row %d (shift %g)", d, j, alpha)
		}
		lo, hi := s.tPtr[j], s.tPtr[j+1]
		for e := lo; e < hi; e++ {
			i, p := int(s.tRow[e]), int(s.tSrc[e])
			l := val[p] / d
			val[p] = l
			di := s.rowPtr[i+1] - 1
			val[di] -= l * d * l
			// Earlier entries of column j sit in rows k < i; row i's
			// slots past p are sorted, so one cursor finds each (i, k).
			q := p + 1
			for f := lo; f < e; f++ {
				k := int(s.tRow[f])
				fill := l * d * val[s.tSrc[f]]
				for s.colIdx[q] < k {
					q++
				}
				if s.colIdx[q] == k {
					val[q] -= fill
					continue
				}
				val[di] -= omega * fill
				val[s.rowPtr[k+1]-1] -= omega * fill
			}
		}
		val[dj] = 1 / d
	}
	return nil
}

// Shift reports the diagonal shift α the factorization needed; 0 means
// the unshifted factorization succeeded.
func (p *ICPrec) Shift() float64 { return p.shift }

// Apply computes z = M⁻¹·r: a forward substitution (I+N)·y = r into z,
// then an in-place backward substitution (I+N)ᵀ·z = D⁻¹·y that gathers
// each column of N.  Neither sweep divides, and the D⁻¹ multiply only
// reads y, so it stays off the backward sweep's loop-carried chain.  No
// scratch state is touched, so concurrent Apply calls on a shared
// instance are safe.
func (p *ICPrec) Apply(r, z []float64) {
	s := p.sym
	lo := 0
	for i := 0; i < s.n; i++ {
		hi := s.rowPtr[i+1] - 1
		cols, vals := s.colIdx[lo:hi], p.val[lo:hi]
		vals = vals[:len(cols)]
		v := r[i]
		for k, c := range cols {
			v -= vals[k] * z[c]
		}
		z[i] = v
		lo = hi + 1
	}
	for i := s.n - 1; i >= 0; i-- {
		v := z[i] * p.val[s.rowPtr[i+1]-1]
		rows, srcs := s.tRow[s.tPtr[i]:s.tPtr[i+1]], s.tSrc[s.tPtr[i]:s.tPtr[i+1]]
		srcs = srcs[:len(rows)]
		for e, k := range rows {
			v -= p.val[srcs[e]] * z[k]
		}
		z[i] = v
	}
}

// matches reports whether a has exactly the lower-triangle pattern this
// symbolic factorization was built from.
func (s *icSymbolic) matches(a *CSR) bool {
	if a.Rows != s.n || a.Cols != s.n {
		return false
	}
	k := 0
	for i := 0; i < s.n; i++ {
		for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
			j := a.ColIdx[q]
			if j > i {
				break
			}
			if k >= s.rowPtr[i+1] || s.colIdx[k] != j || s.src[k] != q {
				return false
			}
			k++
		}
		if k != s.rowPtr[i+1] {
			return false
		}
	}
	return true
}
