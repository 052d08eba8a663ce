package linalg

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
)

// Axis is one direction of a separable operator: a symmetric tridiagonal
// T, the conductance per unit cross-section along the axis, and a
// positive diagonal M, the cell sizes.  Diag[i] = T_ii and Off[i] =
// T_{i,i+1} = T_{i+1,i}, so len(Off) = len(Diag)−1 = len(Mass)−1.
type Axis struct {
	Diag, Off, Mass []float64
}

// FDMPrec is the fast-diagonalization inverse (Lynch, Rice & Thomas,
// 1964) of the Kronecker sum of three axes,
//
//	A = M_z⊗M_y⊗T_x + M_z⊗T_y⊗M_x + T_z⊗M_y⊗M_x,
//
// over cells numbered i + n_x·(j + n_y·k), x fastest — the FV conduction
// operator of a single-material box with whole-face boundary conditions.
// Two axes are diagonalized by their M-orthonormal generalized
// eigenvectors (T·V = M·V·Λ, VᵀMV = I), which turns A into one
// tridiagonal system T_c + (λ_a+λ_b)·M_c along the third axis c per
// mode pair; each is LDLᵀ-factored once.  Apply is then the exact A⁻¹
// (to rounding) at 2n(n_a+n_b) multiply-adds plus two O(n) sweeps, half
// that along an axis that splits (see newAxisEigen).  The longest axis
// is kept as c, which minimizes that cost.
//
// Apply claims its one scratch vector through an atomic slot, like
// SSORPrec, so a shared instance is safe for concurrent use.
type FDMPrec struct {
	dims [3]int
	keep int           // the axis solved by the tridiagonal factors
	eig  [3]*axisEigen // nil for keep
	// l and dinv hold, per cell in grid order, the LDLᵀ multiplier
	// coupling the cell to its predecessor along keep (0 for the first
	// cell of each line) and the inverse pivot of its mode's factor.
	l, dinv []float64
	scratch atomic.Pointer[[]float64]
}

// axisEigen is the generalized eigendecomposition of one axis, shared
// read-only between the FDMPrec instances that reuse it.  Its modes form
// one block of n, or, on a split axis, an even block of half = ⌈n/2⌉
// and an odd one of n − half; V is then P·Q, with P the butterfly
// (FDMPrec.mirror) and Q block diagonal, and fwd and bwd hold Q alone.
type axisEigen struct {
	axis   Axis      // as given, for NewFDMPrec's bitwise reuse check
	half   int       // modes in the first block: n unless the axis splits
	lambda []float64 // per mode, ascending within each block
	// fwd and bwd hold each block's Qᵀ and Q, row-major, the first
	// block's half² entries, then the second's: for a block of m modes
	// from mode r0, fwd[p*m+i] = bwd[i*m+p] = Q_{r0+i, r0+p}.
	fwd, bwd []float64
}

// split reports whether the axis was diagonalized as two blocks.
func (e *axisEigen) split() bool { return e.half < len(e.lambda) }

// block returns block b's first mode, its size and the offset of its
// matrices in fwd and bwd; the second block is empty unless the axis
// splits.
func (e *axisEigen) block(b int) (r0, m, base int) {
	if b == 0 {
		return 0, e.half, 0
	}
	return e.half, len(e.lambda) - e.half, e.half * e.half
}

// fdmPivotTol rejects a tridiagonal pivot that falls below this fraction
// of its row's diagonal: the mode is singular to working precision, as
// the constant mode is when no face of the box exchanges heat.
const fdmPivotTol = 1e-12

// mirrorTol is the relative distance within which an axis entry counts
// as equal to its mirror image (Axis.Mirrored).  Uniform cells and equal
// end conditions differ from their mirrors only by rounding, about
// 1e-14 on a mesh.Uniform grid.
const mirrorTol = 1e-12

// NewFDMPrec builds the fast-diagonalization preconditioner for the
// Kronecker sum of axes (x, y, z).  prev, when non-nil, lends its
// eigendecompositions to every axis whose factors are bitwise unchanged,
// so a rebuild after one face's conductance moved re-diagonalizes only
// that face's axis.  The instance keeps the axes for that comparison,
// so callers must not modify them afterwards.  It fails if an axis is
// malformed, the eigensolver does not converge, or a mode's shifted
// system is not positive definite.
//
// NewFDMPrec consumes prev, whatever its shape: the new instance takes
// over prev's per-cell arrays (the factors and Apply's scratch vector)
// wherever they are long enough and overwrites them, so prev must not
// be applied again.  It can still lend its eigendecompositions to a
// later build.
func NewFDMPrec(axes [3]Axis, prev *FDMPrec) (*FDMPrec, error) {
	t := startLayer()
	defer t.observe("linalg_prec_setup_seconds")
	p := &FDMPrec{}
	for d, ax := range axes {
		n := len(ax.Diag)
		if n == 0 || len(ax.Off) != n-1 || len(ax.Mass) != n {
			return nil, fmt.Errorf("linalg: FDM axis %d has %d diagonal, %d coupling and %d mass entries", d, n, len(ax.Off), len(ax.Mass))
		}
		for _, m := range ax.Mass {
			if !(m > 0) || math.IsInf(m, 0) {
				return nil, fmt.Errorf("linalg: FDM axis %d mass %g is not positive and finite", d, m)
			}
		}
		p.dims[d] = n
		if n >= p.dims[p.keep] {
			p.keep = d
		}
	}
	if prev != nil {
		// factor and Apply resize what they take over.
		p.l, p.dinv = prev.l, prev.dinv
		prev.l, prev.dinv = nil, nil
		p.scratch.Store(prev.scratch.Swap(nil))
	}
	for d := range axes {
		if d == p.keep {
			continue
		}
		if prev != nil && prev.eig[d] != nil && prev.eig[d].axis.equal(axes[d]) {
			p.eig[d] = prev.eig[d]
			continue
		}
		e, err := newAxisEigen(axes[d])
		if err != nil {
			return nil, fmt.Errorf("linalg: FDM axis %d: %w", d, err)
		}
		p.eig[d] = e
	}
	if err := p.factor(axes[p.keep]); err != nil {
		return nil, err
	}
	return p, nil
}

// equal reports whether two axes hold bitwise-identical factors.
func (a Axis) equal(b Axis) bool {
	same := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
	}
	return same(a.Diag, b.Diag) && same(a.Off, b.Off) && same(a.Mass, b.Mass)
}

// Mirrored reports whether the axis equals its mirror image: every entry
// of Diag, Off and Mass lies within 1e-12 of its mirror's, relative to
// the larger of the two, as on uniform cells with equal conditions at
// both ends.  NewFDMPrec splits every diagonalized axis that is
// Mirrored (see newAxisEigen).
func (a Axis) Mirrored() bool {
	for _, s := range [3][]float64{a.Diag, a.Off, a.Mass} {
		for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
			if !(math.Abs(s[i]-s[j]) <= mirrorTol*math.Max(math.Abs(s[i]), math.Abs(s[j]))) {
				return false
			}
		}
	}
	return true
}

// newAxisEigen solves T·v = λ·M·v through the symmetric tridiagonal
// S = M^{-1/2}·T·M^{-1/2}, whose orthonormal eigenvectors w give the
// M-orthonormal v = M^{-1/2}·w.
//
// A Mirrored axis is diagonalized as its mirror average, whose S
// commutes with the exchange of rows i and n−1−i, and splits in two
// (Cantoni & Butler, "Eigenvalues and eigenvectors of symmetric
// centrosymmetric matrices", Linear Algebra Appl. 13, 1976).  The
// orthonormal butterfly P/√2 maps each row pair (i, n−1−i), i < n/2, to
// its sum and difference and keeps an odd n's middle row, and turns S
// into two tridiagonal blocks: the even modes on rows [0, h) and the
// odd ones on rows [h, n), mirrored, h = ⌈n/2⌉.  The blocks are S's own
// leading and trailing ones, uncoupled, with the middle coupling c
// folded in: an even n adds c to row h−1 and subtracts it from row h,
// and an odd n, whose row h−1 is the middle, scales the coupling into it
// by √2.  Each block's vectors, scaled by M^{-1/2} and the butterfly's
// 1/√2 on paired rows, are Q, so each block costs an eighth of the
// whole axis's eigensolve.
func newAxisEigen(ax Axis) (*axisEigen, error) {
	n := len(ax.Diag)
	e := &axisEigen{axis: ax, half: n}
	// at reads entry i of one of the axis's arrays; a split axis reads
	// its mirror average, which equals its mirror image bitwise.
	at := func(s []float64, i int) float64 { return s[i] }
	if ax.Mirrored() {
		e.half = (n + 1) / 2
		at = func(s []float64, i int) float64 { return (s[i] + s[len(s)-1-i]) / 2 }
	}
	buf := make([]float64, 3*n)
	rs, d, off := buf[:n], buf[n:2*n], buf[2*n:] // rs = M^{-1/2}
	for i := range rs {
		rs[i] = 1 / math.Sqrt(at(ax.Mass, i))
		d[i] = at(ax.Diag, i) * rs[i] * rs[i]
	}
	for i := range ax.Off {
		off[i] = at(ax.Off, i) * rs[i] * rs[i+1]
	}
	e.lambda = d
	if h := e.half; e.split() {
		if n%2 == 0 {
			d[h-1] += off[h-1]
			d[h] -= off[h-1]
		} else {
			off[h-2] *= math.Sqrt2
		}
		for i := range rs {
			if n%2 == 0 || i != h-1 {
				rs[i] /= math.Sqrt2
			}
		}
	}
	_, m1, _ := e.block(1)
	size := e.half*e.half + m1*m1
	vecs := make([]float64, 2*size)
	e.fwd, e.bwd = vecs[:size], vecs[size:]
	for b := 0; b < 2; b++ {
		r0, m, base := e.block(b)
		if m == 0 {
			continue
		}
		fwd, bwd := e.fwd[base:base+m*m], e.bwd[base:base+m*m]
		// eigenTridiag ignores a block's last coupling, so the leading
		// block drops the one that joined it to the trailing block.
		if err := eigenTridiag(d[r0:r0+m], off[r0:r0+m], fwd); err != nil {
			return nil, err
		}
		for q := 0; q < m; q++ {
			for i := 0; i < m; i++ {
				v := fwd[q*m+i] * rs[r0+i]
				fwd[q*m+i] = v
				bwd[i*m+q] = v
			}
		}
	}
	return e, nil
}

// factor LDLᵀ-factors T_c + (λ_a+λ_b)·M_c along the kept axis for every
// mode pair.  It walks the kept axis's positions outermost and, at each,
// every line's cell in grid order, so a cell's previous pivot along its
// line was computed a whole sweep of lines before: no cell waits on the
// division of the cell just before it, as each line's next one would.
// Each cell's terms are the ones a walk in grid order computes, so the
// factors are the same, bit for bit.
//
// The arrays may be another instance's (NewFDMPrec), so every entry
// either sweep of Apply reads is written here, each line's first l
// included.
func (p *FDMPrec) factor(ax Axis) error {
	n := p.dims[0] * p.dims[1] * p.dims[2]
	p.l, p.dinv = resize(p.l, n), resize(p.dinv, n)
	// The lines run along keep; a and b, the diagonalized axes, a the
	// faster, number them, and a line's mode sum is λ_a + λ_b.
	a, b := (p.keep+1)%3, (p.keep+2)%3
	if a > b {
		a, b = b, a
	}
	la, lb := p.eig[a].lambda, p.eig[b].lambda
	sk, sa, sb := p.stride(p.keep), p.stride(a), p.stride(b)
	for t := range p.dims[p.keep] {
		dt, mt := ax.Diag[t], ax.Mass[t]
		for jb, lamB := range lb {
			for ja, lamA := range la {
				q := t*sk + ja*sa + jb*sb
				diag := dt + (lamA+lamB)*mt
				piv := diag
				if t > 0 {
					off := ax.Off[t-1]
					p.l[q] = off * p.dinv[q-sk]
					piv -= p.l[q] * off
				} else {
					p.l[q] = 0
				}
				if !(piv > fdmPivotTol*diag) || math.IsInf(piv, 0) {
					what := "is not positive"
					if piv > 0 {
						what = fmt.Sprintf("is under %g of its diagonal", fdmPivotTol)
					}
					return fmt.Errorf("linalg: FDM pivot %g of diagonal %g at cell %d %s: the operator is singular to working precision", piv, diag, q, what)
				}
				p.dinv[q] = 1 / piv
			}
		}
	}
	return nil
}

// resize returns s resliced to n entries when it can hold them, and a
// new array otherwise; the entries are stale.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// stride is the index distance between neighbouring cells along axis d.
func (p *FDMPrec) stride(d int) int {
	s := 1
	for _, n := range p.dims[:d] {
		s *= n
	}
	return s
}

// Apply computes z = A⁻¹·r: transform r into the eigenbases of the two
// diagonalized axes, solve every mode's tridiagonal system along the
// kept axis, and transform back.  Along a split axis, Vᵀ is Qᵀ after
// the butterfly and V is Q before it; r is read-only, so the first
// butterfly writes into z, which is free until the solve.
func (p *FDMPrec) Apply(r, z []float64) {
	n := len(p.dinv)
	var buf []float64
	if t := p.scratch.Swap(nil); t != nil && cap(*t) >= n {
		buf = (*t)[:n]
	} else {
		buf = make([]float64, n)
	}
	a, b := (p.keep+1)%3, (p.keep+2)%3
	ea, eb := p.eig[a], p.eig[b]
	x := r
	if ea.split() {
		p.mirror(a, z, r)
		x = z
	}
	p.modeMul(a, ea.fwd, ea.bwd, x, buf)
	p.mirror(b, buf, buf)
	p.modeMul(b, eb.fwd, eb.bwd, buf, z)
	if sc := p.stride(p.keep); sc == 1 {
		p.sweepRows(z)
	} else {
		for q := sc; q < n; q++ {
			z[q] -= p.l[q] * z[q-sc]
		}
		for q := n - 1; q >= n-sc; q-- {
			z[q] *= p.dinv[q]
		}
		for q := n - sc - 1; q >= 0; q-- {
			z[q] = z[q]*p.dinv[q] - p.l[q+sc]*z[q+sc]
		}
	}
	p.modeMul(b, eb.bwd, eb.fwd, z, buf)
	p.mirror(b, buf, buf)
	p.modeMul(a, ea.bwd, ea.fwd, buf, z)
	p.mirror(a, z, z)
	p.scratch.Store(&buf)
}

// sweepRows runs Apply's two tridiagonal sweeps when the kept axis's
// stride is 1 (it is x, or every axis before it is one cell long), so
// its lines are rows of m contiguous cells: four rows at a time, so
// the four recurrences overlap instead of each cell waiting on the one
// before it.  Each cell's terms are the ones a single sweep over all n
// cells computes, bit for bit, but for the 0·z that sweep subtracts
// across each line boundary (a line's first l is 0): the rows modeMul
// writes start from +0, so no entry here is −0 and that term changes
// nothing.
//
//lint:hot
func (p *FDMPrec) sweepRows(z []float64) {
	m, l, d := p.dims[p.keep], p.l, p.dinv
	q := 0
	for ; q+4*m <= len(z); q += 4 * m {
		z0, z1, z2, z3 := z[q:q+m], z[q+m:q+2*m], z[q+2*m:q+3*m], z[q+3*m:q+4*m]
		l0, l1, l2, l3 := l[q:q+m], l[q+m:q+2*m], l[q+2*m:q+3*m], l[q+3*m:q+4*m]
		d0, d1, d2, d3 := d[q:q+m], d[q+m:q+2*m], d[q+2*m:q+3*m], d[q+3*m:q+4*m]
		for t := 1; t < m; t++ {
			z0[t] -= l0[t] * z0[t-1]
			z1[t] -= l1[t] * z1[t-1]
			z2[t] -= l2[t] * z2[t-1]
			z3[t] -= l3[t] * z3[t-1]
		}
		z0[m-1] *= d0[m-1]
		z1[m-1] *= d1[m-1]
		z2[m-1] *= d2[m-1]
		z3[m-1] *= d3[m-1]
		for t := m - 2; t >= 0; t-- {
			z0[t] = z0[t]*d0[t] - l0[t+1]*z0[t+1]
			z1[t] = z1[t]*d1[t] - l1[t+1]*z1[t+1]
			z2[t] = z2[t]*d2[t] - l2[t+1]*z2[t+1]
			z3[t] = z3[t]*d3[t] - l3[t+1]*z3[t+1]
		}
	}
	for ; q < len(z); q += m {
		zr, lr, dr := z[q:q+m], l[q:q+m], d[q:q+m]
		for t := 1; t < m; t++ {
			zr[t] -= lr[t] * zr[t-1]
		}
		zr[m-1] *= dr[m-1]
		for t := m - 2; t >= 0; t-- {
			zr[t] = zr[t]*dr[t] - lr[t+1]*zr[t+1]
		}
	}
}

// modeMul sets out = W applied along axis d of x, W block diagonal over
// the axis's eigenblocks, given each block's matrix in w and its
// transpose in wt (laid out as axisEigen's fwd and bwd): with m cells
// along d, stride inner and a block of mb modes from r0,
// out[o,r0+i,j] = Σ_t W_b[i*mb+t]·x[o,r0+t,j].  Both forms sum scaled
// contiguous rows, so no loop carries a dependency through one
// accumulator; along x (inner 1) the rows are wt's, scaled by x.
func (p *FDMPrec) modeMul(d int, w, wt, x, out []float64) {
	e, m, inner := p.eig[d], p.dims[d], p.stride(d)
	for b := 0; b < 2; b++ {
		r0, mb, base := e.block(b)
		if mb == 0 {
			continue
		}
		wb, wtb := w[base:base+mb*mb], wt[base:base+mb*mb]
		if inner == 1 {
			for o := r0; o < len(x); o += m {
				axpyRows(out[o:o+mb], wtb, x[o:o+mb])
			}
			continue
		}
		lo, hi := r0*inner, (r0+mb)*inner
		for o := 0; o < len(x); o += m * inner {
			xs, os := x[o+lo:o+hi], out[o+lo:o+hi]
			for i := 0; i < mb; i++ {
				axpyRows(os[i*inner:i*inner+inner], xs, wb[i*mb:i*mb+mb])
			}
		}
	}
}

// mirror sets dst = P·src along axis d when the axis splits, and does
// nothing otherwise.  P, the butterfly, replaces each mirrored row pair
// (i, m−1−i), i < m/2, with its sum and difference, and keeps an odd
// axis's middle row, a row being the stride cells at one position along
// d.  P is symmetric, so it serves both transforms; dst may be src.
func (p *FDMPrec) mirror(d int, dst, src []float64) {
	if !p.eig[d].split() {
		return
	}
	m, inner := p.dims[d], p.stride(d)
	for o := 0; o < len(src); o += m * inner {
		for i := 0; i < m/2; i++ {
			lo, hi := o+i*inner, o+(m-1-i)*inner
			s0, s1 := src[lo:lo+inner], src[hi:hi+inner]
			d0, d1 := dst[lo:lo+inner], dst[hi:hi+inner]
			for t, u := range s0 {
				v := s1[t]
				d0[t], d1[t] = u+v, u-v
			}
		}
		if m%2 == 1 {
			mid := o + m/2*inner
			copy(dst[mid:mid+inner], src[mid:mid+inner])
		}
	}
}

// axpyRows sets dst = Σ_t c[t]·rows[t·L : (t+1)·L] with L = len(dst),
// four rows per pass over dst.  Each row is resliced to len(dst), so
// the element loops index every slice within a length the compiler
// knows and carry no bounds check.
//
//lint:hot
func axpyRows(dst, rows, c []float64) {
	n := len(dst)
	clear(dst)
	t := 0
	for ; t+4 <= len(c); t += 4 {
		c0, c1, c2, c3 := c[t], c[t+1], c[t+2], c[t+3]
		r := rows[t*n : t*n+4*n]
		r0, r1, r2, r3 := r[:n], r[n:2*n], r[2*n:3*n], r[3*n:4*n]
		r0, r1, r2, r3 = r0[:len(dst)], r1[:len(dst)], r2[:len(dst)], r3[:len(dst)]
		for j := range dst {
			dst[j] += c0*r0[j] + c1*r1[j] + c2*r2[j] + c3*r3[j]
		}
	}
	for ; t < len(c); t++ {
		ct, rt := c[t], rows[t*n:t*n+n]
		rt = rt[:len(dst)]
		for j := range dst {
			dst[j] += ct * rt[j]
		}
	}
}
