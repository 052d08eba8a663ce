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
// (to rounding) at 2n(n_a+n_b) multiply-adds plus two O(n) sweeps.  The
// longest axis is kept as c, which minimizes that cost.
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
// read-only between the FDMPrec instances that reuse it.
type axisEigen struct {
	axis   Axis
	lambda []float64 // ascending
	fwd    []float64 // Vᵀ, row-major: fwd[p*n+i] = V_ip
	bwd    []float64 // V, row-major: bwd[i*n+p] = V_ip
}

// fdmPivotTol rejects a tridiagonal pivot that falls below this fraction
// of its row's diagonal: the mode is singular to working precision, as
// the constant mode is when no face of the box exchanges heat.
const fdmPivotTol = 1e-12

// NewFDMPrec builds the fast-diagonalization preconditioner for the
// Kronecker sum of axes (x, y, z).  prev, when non-nil, lends its
// eigendecompositions to every axis whose factors are bitwise unchanged,
// so a rebuild after one face's conductance moved re-diagonalizes only
// that face's axis.  The instance keeps the axes for that comparison,
// so callers must not modify them afterwards.  It fails if an axis is
// malformed, the eigensolver does not converge, or a mode's shifted
// system is not positive definite; callers degrade to an incomplete
// factorization.
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

// newAxisEigen solves T·v = λ·M·v through the symmetric tridiagonal
// S = M^{-1/2}·T·M^{-1/2}, whose orthonormal eigenvectors w give the
// M-orthonormal v = M^{-1/2}·w.
func newAxisEigen(ax Axis) (*axisEigen, error) {
	n := len(ax.Diag)
	buf := make([]float64, 3*n)
	rs, d, e := buf[:n], buf[n:2*n], buf[2*n:] // rs = M^{-1/2}
	for i, m := range ax.Mass {
		rs[i] = 1 / math.Sqrt(m)
		d[i] = ax.Diag[i] * rs[i] * rs[i]
	}
	for i, v := range ax.Off {
		e[i] = v * rs[i] * rs[i+1]
	}
	vecs := make([]float64, 2*n*n)
	fwd, bwd := vecs[:n*n], vecs[n*n:]
	if err := eigenTridiag(d, e, fwd); err != nil {
		return nil, err
	}
	for q := 0; q < n; q++ {
		for i := 0; i < n; i++ {
			v := fwd[q*n+i] * rs[i]
			fwd[q*n+i] = v
			bwd[i*n+q] = v
		}
	}
	return &axisEigen{axis: ax, lambda: d, fwd: fwd, bwd: bwd}, nil
}

// factor LDLᵀ-factors T_c + (λ_a+λ_b)·M_c along the kept axis for every
// mode pair, walking the cells in grid order so each line's previous
// pivot is already in place.
func (p *FDMPrec) factor(ax Axis) error {
	nx, ny, nz := p.dims[0], p.dims[1], p.dims[2]
	n := nx * ny * nz
	p.l = make([]float64, n)
	p.dinv = make([]float64, n)
	stride := p.stride(p.keep)
	// The kept axis contributes zeros, so each cell's sum of the three
	// entries is its mode's λ_a+λ_b.
	var lam [3][]float64
	for d, e := range p.eig {
		if e != nil {
			lam[d] = e.lambda
		} else {
			lam[d] = make([]float64, p.dims[d])
		}
	}
	c := [3]int{}
	q := 0
	for c[2] = 0; c[2] < nz; c[2]++ {
		for c[1] = 0; c[1] < ny; c[1]++ {
			for c[0] = 0; c[0] < nx; c[0]++ {
				s := lam[0][c[0]] + lam[1][c[1]] + lam[2][c[2]]
				t := c[p.keep]
				diag := ax.Diag[t] + s*ax.Mass[t]
				piv := diag
				if t > 0 {
					off := ax.Off[t-1]
					p.l[q] = off * p.dinv[q-stride]
					piv -= p.l[q] * off
				}
				if !(piv > fdmPivotTol*diag) || math.IsInf(piv, 0) {
					return fmt.Errorf("linalg: FDM pivot %g of diagonal %g at cell %d is not positive: the operator is singular to working precision", piv, diag, q)
				}
				p.dinv[q] = 1 / piv
				q++
			}
		}
	}
	return nil
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
// kept axis, and transform back.
func (p *FDMPrec) Apply(r, z []float64) {
	n := len(p.dinv)
	var buf []float64
	if t := p.scratch.Swap(nil); t != nil {
		buf = *t
	} else {
		buf = make([]float64, n)
	}
	a, b := (p.keep+1)%3, (p.keep+2)%3
	p.modeMul(a, p.eig[a].fwd, p.eig[a].bwd, r, buf)
	p.modeMul(b, p.eig[b].fwd, p.eig[b].bwd, buf, z)
	sc := p.stride(p.keep)
	for q := sc; q < n; q++ {
		z[q] -= p.l[q] * z[q-sc]
	}
	for q := n - 1; q >= n-sc; q-- {
		z[q] *= p.dinv[q]
	}
	for q := n - sc - 1; q >= 0; q-- {
		z[q] = z[q]*p.dinv[q] - p.l[q+sc]*z[q+sc]
	}
	p.modeMul(b, p.eig[b].bwd, p.eig[b].fwd, z, buf)
	p.modeMul(a, p.eig[a].bwd, p.eig[a].fwd, buf, z)
	p.scratch.Store(&buf)
}

// modeMul sets out = W applied along axis d of x, given W and its
// transpose wt: with m cells along d and stride inner,
// out[o,i,j] = Σ_t W[i*m+t]·x[o,t,j].  Both forms sum scaled contiguous
// rows, so no loop carries a dependency through one accumulator; along
// x (inner 1) the rows are wt's, scaled by x.
func (p *FDMPrec) modeMul(d int, w, wt, x, out []float64) {
	m, inner := p.dims[d], p.stride(d)
	if inner == 1 {
		for o := 0; o < len(x); o += m {
			axpyRows(out[o:o+m], wt, x[o:o+m])
		}
		return
	}
	block := m * inner
	for o := 0; o < len(x); o += block {
		xs, os := x[o:o+block], out[o:o+block]
		for i := 0; i < m; i++ {
			axpyRows(os[i*inner:i*inner+inner], xs, w[i*m:i*m+m])
		}
	}
}

// axpyRows sets dst = Σ_t c[t]·rows[t·L : (t+1)·L] with L = len(dst),
// four rows per pass over dst.
func axpyRows(dst, rows, c []float64) {
	n := len(dst)
	clear(dst)
	t := 0
	for ; t+4 <= len(c); t += 4 {
		c0, c1, c2, c3 := c[t], c[t+1], c[t+2], c[t+3]
		r := rows[t*n : t*n+4*n]
		r0, r1, r2, r3 := r[:n], r[n:2*n], r[2*n:3*n], r[3*n:4*n]
		for j := range dst {
			dst[j] += c0*r0[j] + c1*r1[j] + c2*r2[j] + c3*r3[j]
		}
	}
	for ; t < len(c); t++ {
		ct, rt := c[t], rows[t*n:t*n+n]
		for j := range dst {
			dst[j] += ct * rt[j]
		}
	}
}
