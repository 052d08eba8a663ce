package linalg

// KronSum is the operator
//
//	A = M_z⊗M_y⊗T_x + M_z⊗T_y⊗M_x + T_z⊗M_y⊗M_x + diag(Diag)
//
// over cells numbered i + n_x·(j + n_y·k), x fastest: the Kronecker sum
// of three axes that FDMPrec inverts, plus a diagonal per cell.  The FV
// conduction operator of a single-material box is one, with the
// interior face conductances on the axes and each boundary cell's
// conductance to its ambient on Diag, whatever it varies with.
//
// MulVec reads the axes and Diag and writes nothing else, so one
// instance serves concurrent products.
type KronSum struct {
	Axes [3]Axis
	Diag []float64 // per cell, in grid order
}

// Order returns the operator's cell count, n_x·n_y·n_z.
func (k *KronSum) Order() int {
	return len(k.Axes[0].Diag) * len(k.Axes[1].Diag) * len(k.Axes[2].Diag)
}

// MulVec computes y = A·x, reusing y if it has the right length.  It
// follows CSR.MulVec's contract: y may be the identical slice as x (the
// product is then formed in a scratch buffer and copied back), and
// partially overlapping slices produce garbage.
func (k *KronSum) MulVec(x, y []float64) []float64 {
	n := k.Order()
	if len(x) != n || len(k.Diag) != n {
		panic("linalg: dimension mismatch in KronSum MulVec")
	}
	for _, ax := range k.Axes {
		if len(ax.Off) != len(ax.Diag)-1 || len(ax.Mass) != len(ax.Diag) {
			panic("linalg: malformed axis in KronSum MulVec")
		}
	}
	if len(y) != n {
		y = make([]float64, n)
	} else if n > 0 && &y[0] == &x[0] {
		tmp := make([]float64, n)
		k.mulVecInto(x, tmp)
		copy(y, tmp)
		return y
	}
	k.mulVecInto(x, y)
	return y
}

// mulVecInto computes y = A·x into a non-aliasing y of the operator's
// order in three passes over rows of n_x cells, none of which branches
// per cell: each row along x, with Diag, weighted by its cross-section
// M_y·M_z; then each row with its ±y neighbours, weighted by M_x·M_z;
// then each row with its ±z neighbours, weighted by M_x·M_y.  At
// either end of an axis the missing neighbour is the row itself with a
// zero coupling, which adds an exact zero for finite x.
//
//lint:hot
func (k *KronSum) mulVecInto(x, y []float64) {
	ax, ay, az := &k.Axes[0], &k.Axes[1], &k.Axes[2]
	nx, ny, nz := len(ax.Diag), len(ay.Diag), len(az.Diag)
	for r := 0; r < ny*nz; r++ {
		o := r * nx
		xRow(y[o:o+nx], k.Diag[o:o+nx], x[o:o+nx], ax, ay.Mass[r%ny]*az.Mass[r/ny])
	}
	for r := 0; r < ny*nz; r++ {
		couple(y, x, ax.Mass, ay, r%ny, r*nx, nx, az.Mass[r/ny])
	}
	for r := 0; r < ny*nz; r++ {
		couple(y, x, ax.Mass, az, r/ny, r*nx, nx*ny, ay.Mass[r%ny])
	}
}

// couple adds m[i]·s·(T·x)_c along ax to each cell i of the row at
// offset o, which sits at position c along ax with its neighbours
// stride apart; a neighbour past either end is the row itself with a
// zero coupling.
func couple(y, x, m []float64, ax *Axis, c, o, stride int, s float64) {
	n := len(m)
	lo, hi, cl, ch := o, o, 0.0, 0.0
	if c > 0 {
		lo, cl = o-stride, ax.Off[c-1]
	}
	if c+1 < len(ax.Diag) {
		hi, ch = o+stride, ax.Off[c]
	}
	stripe(y[o:o+n], m, x[o:o+n], x[lo:lo+n], x[hi:hi+n], s*ax.Diag[c], s*cl, s*ch)
}

// xRow sets y = diag(d)·x + w·T·x along one row, T the tridiagonal of
// ax: the row's two end cells apart from its interior ones, so the
// interior loop reads both neighbours unconditionally.
func xRow(y, d, x []float64, ax *Axis, w float64) {
	n := len(y)
	d, x = d[:n], x[:n]
	td, off := ax.Diag[:n], ax.Off[:n-1]
	if n == 1 {
		y[0] = (d[0] + w*td[0]) * x[0]
		return
	}
	y[0] = (d[0]+w*td[0])*x[0] + w*off[0]*x[1]
	for i := 1; i < n-1; i++ {
		y[i] = (d[i]+w*td[i])*x[i] + w*(off[i-1]*x[i-1]+off[i]*x[i+1])
	}
	y[n-1] = (d[n-1]+w*td[n-1])*x[n-1] + w*off[n-2]*x[n-2]
}

// stripe adds m[i]·(c0·x0[i] + cl·xl[i] + ch·xh[i]) to every y[i].
func stripe(y, m, x0, xl, xh []float64, c0, cl, ch float64) {
	n := len(y)
	m, x0, xl, xh = m[:n], x0[:n], xl[:n], xh[:n]
	for i := range y {
		y[i] += m[i] * (c0*x0[i] + cl*xl[i] + ch*xh[i])
	}
}
