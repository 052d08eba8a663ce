package thermal

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"aeropack/internal/linalg"
	"aeropack/internal/mesh"
	"aeropack/internal/obs"
	"aeropack/internal/robust"
)

// Result is a solved temperature field.
type Result struct {
	T []float64 // cell temperatures, K, indexed by Grid.Index
	g *mesh.Grid
	// Iterations performed by the linear solver on the last (outer) pass.
	Iterations int
	// OuterIterations counts radiation linearisation passes.
	OuterIterations int
}

// At returns the temperature of cell (i,j,k).
func (r *Result) At(i, j, k int) float64 { return r.T[r.g.Index(i, j, k)] }

// Max returns the hottest cell temperature.
func (r *Result) Max() float64 {
	m := math.Inf(-1)
	for _, t := range r.T {
		if t > m {
			m = t
		}
	}
	return m
}

// Min returns the coldest cell temperature.
func (r *Result) Min() float64 {
	m := math.Inf(1)
	for _, t := range r.T {
		if t < m {
			m = t
		}
	}
	return m
}

// Mean returns the volume-weighted mean temperature: MeanInBox over the
// whole grid.
func (r *Result) Mean() float64 {
	g := r.g
	return r.MeanInBox(g.XEdges[0], g.XEdges[g.Nx], g.YEdges[0], g.YEdges[g.Ny], g.ZEdges[0], g.ZEdges[g.Nz])
}

// MaxInBox returns the hottest temperature among cells with centroids in
// the physical box — used to probe component regions.
//
// Non-finite (NaN/Inf) inputs propagate to the result (nanguard: propagates).
func (r *Result) MaxInBox(x0, x1, y0, y1, z0, z1 float64) float64 {
	b := r.g.LocateBox(x0, x1, y0, y1, z0, z1)
	m := math.Inf(-1)
	for k := b.K0; k < b.K1; k++ {
		for j := b.J0; j < b.J1; j++ {
			for i := b.I0; i < b.I1; i++ {
				if t := r.T[r.g.Index(i, j, k)]; t > m {
					m = t
				}
			}
		}
	}
	return m
}

// MeanInBox returns the volume-weighted mean temperature in the box.
//
// Non-finite (NaN/Inf) inputs propagate to the result (nanguard: propagates).
func (r *Result) MeanInBox(x0, x1, y0, y1, z0, z1 float64) float64 {
	sumVT, sumV := 0.0, 0.0
	b := r.g.LocateBox(x0, x1, y0, y1, z0, z1)
	boxRows(r.g, b, make([]float64, b.I1-b.I0), func(idx int, v []float64) {
		// Local sums keep the row's additions, still in cell order, out
		// of memory.
		vt, vs, t := sumVT, sumV, r.T[idx:idx+len(v)]
		for i, vi := range v {
			vt += vi * t[i]
			vs += vi
		}
		sumVT, sumV = vt, vs
	})
	if sumV == 0 {
		return math.NaN()
	}
	return sumVT / sumV
}

// boxRows calls fn for every row of box b along x, k slowest, with the
// index of the row's first cell and its cells' volumes, written into v
// (b.I1 − b.I0 long) and lent for the call.  A cell's volume is
// DX(i)·dy·dz, with dy and dz taken once per row and layer.
func boxRows(g *mesh.Grid, b mesh.Box, v []float64, fn func(idx int, v []float64)) {
	for k := b.K0; k < b.K1; k++ {
		dz := g.DZ(k)
		for j := b.J0; j < b.J1; j++ {
			dy := g.DY(j)
			for i := range v {
				v[i] = g.DX(b.I0+i) * dy * dz
			}
			fn(g.Index(b.I0, j, k), v)
		}
	}
}

// CG runs each pass to a relative residual of cgTol, within cgMaxIter
// iterations.  The radiation linearisation runs at most maxPicardPasses
// passes and stops once no cell moves more than picardTolK between
// passes.
const (
	cgTol           = 1e-9
	maxPicardPasses = 40
	picardTolK      = 0.01
)

// cgMaxIter is CG's iteration cap on an operator of order n,
// 20·n^(2/3) + 2000.
func cgMaxIter(n int) int {
	return 20*int(math.Cbrt(float64(n))*math.Cbrt(float64(n))) + 2000
}

// SolveSteady solves the steady conduction problem.  Radiative boundaries
// make the problem mildly nonlinear.  Each pass linearizes the radiating
// film by Newton's method (see assemble), the first about the uniform
// energy-balance temperature (balanceT) and every later one about the
// last pass's field, and solves the linear system; the passes stop once
// no cell moves more than picardTolK.  Its span carries the passes run
// and, on a radiating model, the last pass's largest update (delta_k).
//
// ctx is the caller's budget (robust.Stop): every linear solve polls it
// once per CG iteration, and SolveSteady polls it between Picard passes.
// Once it fires the solve ends with an error wrapping linalg.ErrStopped.
// The solver's spans (thermal.SolveSteady → thermal.assemble /
// thermal.linSolve) nest under the span ctx carries.
//
// The model picks each pass's operator and preconditioner: on an
// unpainted model, every cell holding Mats[0] (every level-2 board,
// patched or not), CG runs on the operator's Kronecker-sum form
// (linalg.KronSum) preconditioned by fast diagonalization
// (linalg.FDMPrec), and on a painted one on the assembled CSR
// preconditioned by MIC(0).  Each pass builds that preconditioner and
// runs one CG solve; a failed build or solve is the solve's error.  A model with no
// face exchanging heat has no steady state, and SolveSteady says so
// rather than solving it.
//
// The solve runs in a stencil workspace from the process's free list,
// or in a fresh one when the list is empty, and the workspace goes back
// on return: nothing SolveSteady returns refers to it.
func (m *Model) SolveSteady(ctx context.Context) (*Result, error) {
	n := m.Grid.NumCells()
	ctx, sp := obs.StartContext(ctx, "thermal.SolveSteady")
	defer sp.End()
	sp.AttrInt("cells", n)
	stop := robust.Stop(ctx)

	ws := takeWorkspace()
	defer giveWorkspace(ws)
	st := newStencil(m, ws)
	sp.Attr("prec", st.kind())

	// The field the film is linearized about, kept in the workspace: the
	// uniform energy-balance temperature, then a copy of each pass's
	// answer.  Only a radiating cell reads it, so a model without one
	// has none.
	radiating := ws.films.radiating()
	var T []float64
	if radiating {
		ws.lin = fit(ws.lin, n)
		T = ws.lin
		t0 := ws.films.balanceT(m.TotalSourcePower())
		for i := range T {
			T[i] = t0
		}
	}

	// x is the one field a solve allocates: the first pass's answer,
	// which every later pass starts from and overwrites.
	res := &Result{g: m.Grid}
	var x []float64
	for outer := 0; outer < maxPicardPasses; outer++ {
		// The budget is polled between passes as well as inside the
		// linear solver, so a tripped request stops at the next pass
		// boundary instead of running the remaining passes.
		if stop != nil && outer > 0 && stop() {
			return nil, fmt.Errorf("thermal: FV %w after %d Picard passes", linalg.ErrStopped, outer)
		}
		res.OuterIterations = outer + 1
		op, b := st.assembleObs(ctx, T)
		if !st.grounded {
			return nil, errors.New("thermal: no face of the FV model exchanges heat; steady problem is singular")
		}
		t, stats, err := linSolve(ctx, op, b, x, st)
		res.Iterations = stats.Iterations
		if err != nil {
			return nil, err
		}
		x = t
		if !radiating {
			sp.AttrInt("passes", 1)
			res.T = t
			return res, nil
		}
		delta := 0.0
		for i := range t {
			if d := math.Abs(t[i] - T[i]); d > delta {
				delta = d
			}
		}
		if delta < picardTolK {
			sp.AttrInt("passes", res.OuterIterations)
			sp.AttrF("delta_k", delta)
			res.T = t
			return res, nil
		}
		copy(T, t)
	}
	return nil, fmt.Errorf("thermal: radiation linearisation did not converge in %d passes", maxPicardPasses)
}

// separable reports whether the model's interior operator is a
// Kronecker sum of three 1-D factors: the model is unpainted.  Its
// boundary terms, patched or not, touch only the KronSum's diagonal.
func (m *Model) separable() bool { return m.mat == nil }

// assembleObs wraps assemble with a child span and the assembly metrics
// (thermal_matrix_nnz gauge, thermal_assembly_seconds histogram); the
// first pass's observation includes the symbolic phase.  With telemetry
// disabled it reduces to the bare assemble call plus two nil checks.
func (s *stencil) assembleObs(ctx context.Context, T []float64) (linalg.Operator, []float64) {
	parent, reg := obs.FromContext(ctx), obs.Default()
	if parent == nil && reg == nil {
		return s.assemble(T)
	}
	start := time.Now()
	a, b := s.assembleSpan(parent, T)
	if reg != nil {
		reg.Gauge("thermal_matrix_nnz").Set(float64(s.nnz()))
		reg.Histogram("thermal_assembly_seconds", assemblyBuckets).Observe(time.Since(start).Seconds())
	}
	return a, b
}

// assembleSpan runs assemble under a thermal.assemble child of parent,
// annotated with the 7-point pattern's entry count, which a separable
// pass never lays out.
func (s *stencil) assembleSpan(parent *obs.Span, T []float64) (linalg.Operator, []float64) {
	sp := parent.Start("thermal.assemble")
	defer sp.End()
	a, b := s.assemble(T)
	sp.AttrInt("nnz", s.nnz())
	return a, b
}

// assemblyBuckets span 1 µs to 1000 s, one decade per bucket.
var assemblyBuckets = obs.ExpBuckets(1e-6, 10, 9)

// linSolve solves the pass st last assembled, op·x = b from x0, by CG
// preconditioned by what st.prec builds, with CG's work vectors lent
// from st's workspace, polling ctx's budget once per iteration.  A
// non-nil x0 receives the answer (linalg.CG); a nil one starts from
// zero in a fresh array.  Nothing retries a failed build or solve: its
// error is the caller's.
func linSolve(ctx context.Context, op linalg.Operator, b, x0 []float64, st *stencil) ([]float64, linalg.IterStats, error) {
	sp := obs.Start(obs.FromContext(ctx), "thermal.linSolve")
	defer sp.End()
	kind := st.kind()
	sp.Attr("prec", kind)
	prec, err := st.prec()
	if err != nil {
		return nil, linalg.IterStats{}, fmt.Errorf("thermal: %s preconditioner: %w", kind, err)
	}
	x, stats, err := linalg.CGOpt(op, b, x0, &linalg.IterOptions{
		Tol: cgTol, MaxIter: cgMaxIter(op.Order()), Prec: prec, Stop: robust.Stop(ctx), Work: st.ws.cg,
	})
	sp.AttrInt("iterations", stats.Iterations)
	sp.AttrF("residual", stats.Residual)
	if err != nil {
		// The wrapped linalg error already carries the iteration count
		// and final residual; prefixing only the preconditioned method
		// keeps the figures from appearing twice in the message.
		err = fmt.Errorf("thermal: cg-%s solve failed: %w", kind, err)
	}
	return x, stats, err
}

// kind names the preconditioner every pass of the model runs under:
// "fdm" on an unpainted model, "mic0" on a painted one.
func (s *stencil) kind() string {
	if s.kron != nil {
		return "fdm"
	}
	return "mic0"
}

// prec builds a new preconditioner of s.kind for the pass s last
// assembled.  The model picks the kind, not the caller: a separable
// stencil's pass gets fast diagonalization, built at the pass's
// linearization field over the workspace's last one (which lends its
// eigendecompositions to the axes that did not move and its per-cell
// arrays to the build), and every other model's pass gets MIC(0) of its
// CSR.  A build that fails is the pass's error; no weaker kind stands
// in for it.
func (s *stencil) prec() (linalg.Preconditioner, error) {
	if s.kron == nil {
		return linalg.NewMICPrec(&s.a)
	}
	p, err := linalg.NewFDMPrec(s.fdmAxes(), s.ws.fdm)
	if err != nil {
		return nil, err
	}
	s.ws.fdm = p
	return p, nil
}

// stencil assembles one model's FV operator, once per Picard pass, in
// one of two forms.
//
// An unpainted (separable) model's passes run on its Kronecker-sum
// form, a linalg.KronSum: the interior face conductances per unit
// cross-section as three axes, computed once per SolveSteady call
// (interiorAxes), plus a per-cell diagonal, the boundary terms, patches
// included.  A pass writes only those n values and the right-hand side.
//
// A painted model runs on the 7-point CSR, assembled in two phases.
// The symbolic phase (build) runs once per SolveSteady call: the CSR
// pattern, each row's diagonal slot, the interior face conductances,
// written once as the off-diagonal values, and each row's sum of them,
// its interior diagonal; all depend only on grid and the model's
// material map.  The numeric phase runs once per pass: it resets the n
// diagonal values to the interior ones and adds the boundary terms, the
// only part of the operator that moves with the surface temperature and
// that touches nothing but the diagonal.
//
// Every pass assembles into the same arrays: no preconditioner keeps a
// reference to them (MIC(0) and fast diagonalization copy what they
// keep).  The arrays live in a workspace that outlives the solve:
// SolveSteady lends the stencil one from the process's free list, and
// newStencil and build resize every array they use to the model and
// write every entry that assemble, CG or a preconditioner reads
// (assemble writes the diagonal and the right-hand side, CG and
// NewFDMPrec overwrite what they are lent), so nothing of an earlier
// model survives.
//
// Every diagonal sums its terms in one fixed order: the −z, −y, −x,
// +x, +y and +z faces, then the boundary faces XMin…ZMax.  That is the
// order a cell-by-cell face loop visits them, so the operator does not
// depend on how the pattern is traversed.
type stencil struct {
	m  *Model
	ws *workspace // the system's arrays
	// kron is an unpainted model's operator, whose Diag is ws.bnd; nil
	// on a painted one.
	kron *linalg.KronSum
	a    linalg.CSR // the assembled CSR over ws's arrays, one Val for every pass
	// grounded records whether the last assemble added a nonzero
	// boundary conductance; without one the steady operator is singular.
	grounded bool
	// faceG holds, per boundary face, the total G + D the last assemble
	// added to its cells' diagonals, in the order it visited them.
	faceG [mesh.NumFaces]float64
}

// workspace holds one solve's arrays: the model's boundary films; the
// CSR's rowPtr, colIdx and val, and per row its diagonal's position in
// colIdx and its interior-face diagonal sum; a separable pass's
// boundary diagonal; the right-hand side; one row of cell volumes and
// each volumetric source's box volume, for the source spread; a
// radiating model's linearization field; CG's three work vectors, 3n
// floats; and the last fast diagonalization built in it, whose per-cell
// arrays the next build takes over.
type workspace struct {
	films                                       films
	rowPtr, colIdx, diag                        []int
	val, interior, bnd, b, vol, srcVol, lin, cg []float64
	fdm                                         *linalg.FDMPrec
}

// free is the list of workspaces kept between solves, a leaky buffer:
// SolveSteady takes one, or makes a fresh one when the list is empty,
// and gives it back on return, and a workspace given to a full list is
// left to the collector.  Its capacity is one per P as the process
// starts, the most solves that compute at once, so a pool of GOMAXPROCS
// workers (aeropackd's, or a parallel.Map fan-out) finds a workspace
// for every solve, and a burst of more concurrent solves allocates the
// extra ones and drops them.  An 80×80×2 level-2 board, the largest,
// which builds no CSR, keeps 0.8 MB in its workspace (eight arrays of n
// floats, nine when it radiates); a painted model of that size adds
// about 1.6 MB.
var free = make(chan *workspace, runtime.GOMAXPROCS(0))

// takeWorkspace returns a workspace from the free list, or a new one
// when the list is empty.
func takeWorkspace() *workspace {
	select {
	case ws := <-free:
		return ws
	default:
		return new(workspace)
	}
}

// giveWorkspace puts ws back on the free list, or drops it when the
// list is full.
func giveWorkspace(ws *workspace) {
	select {
	case free <- ws:
	default:
	}
}

// fit returns s resized to n entries, reusing its array when it holds
// enough.  The entries are stale: the caller writes every one it reads.
func fit[T int | float64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// newStencil returns m's stencil over ws, or over a fresh workspace
// when ws is nil.  Its boundary films, each volumetric source's box
// volume, and an unpainted model's interior axes, on whose KronSum its
// passes run, are computed here once.
func newStencil(m *Model, ws *workspace) *stencil {
	if ws == nil {
		ws = new(workspace)
	}
	s := &stencil{m: m, ws: ws}
	n := m.Grid.NumCells()
	ws.films.build(m)
	ws.vol = fit(ws.vol, m.Grid.Nx)
	ws.srcVol = fit(ws.srcVol, len(m.sources))
	for q, src := range m.sources {
		vol := 0.0
		boxRows(m.Grid, src.box, ws.vol[:src.box.I1-src.box.I0], func(_ int, v []float64) {
			for _, vi := range v {
				vol += vi
			}
		})
		ws.srcVol[q] = vol
	}
	ws.cg = fit(ws.cg, 3*n)
	if m.separable() {
		ws.bnd, ws.b = fit(ws.bnd, n), fit(ws.b, n)
		s.kron = &linalg.KronSum{Axes: m.interiorAxes(), Diag: ws.bnd}
	}
	return s
}

// nnz is the entry count of the model's 7-point pattern.
func (s *stencil) nnz() int {
	g := s.m.Grid
	nx, ny, nz := g.Nx, g.Ny, g.Nz
	return nx*ny*nz + 2*((nx-1)*ny*nz+nx*(ny-1)*nz+nx*ny*(nz-1))
}

// build runs the symbolic phase of a painted model: row by row,
// entries in ascending column order (−z, −y, −x, diagonal, +x, +y, +z).
// Each face conductance is faceConductance(area, Δ₁, k₁, Δ₂, k₂) of the
// two cells' sizes along the axis and conductivities across it, the
// sizes those the films took once per axis and the conductivities taken
// once per material before the cell loop, the materials read from the
// model's map.
func (s *stencil) build() {
	m, g := s.m, s.m.Grid
	nx, ny, nz := g.Nx, g.Ny, g.Nz
	nxy, n, nnz := nx*ny, g.NumCells(), s.nnz()
	ws := s.ws
	ws.rowPtr, ws.colIdx, ws.diag = fit(ws.rowPtr, n+1), fit(ws.colIdx, nnz), fit(ws.diag, n)
	ws.val, ws.interior, ws.b = fit(ws.val, nnz), fit(ws.interior, n), fit(ws.b, n)
	s.a = linalg.CSR{Rows: n, Cols: n, RowPtr: ws.rowPtr, ColIdx: ws.colIdx, Val: ws.val}

	dx, dy, dz := ws.films.size[0], ws.films.size[1], ws.films.size[2]
	kxy, kz := make([]float64, len(m.Mats)), make([]float64, len(m.Mats))
	for q := range m.Mats {
		kxy[q], kz[q] = kDir(&m.Mats[q], 0), kDir(&m.Mats[q], 2)
	}
	mat, col, val := m.mat, s.a.ColIdx, s.a.Val
	p := 0
	// off appends the coupling −gf to column c of the current row and
	// returns gf for the row's diagonal sum.
	off := func(c int, gf float64) float64 {
		col[p], val[p] = c, -gf
		p++
		return gf
	}
	s.a.RowPtr[0] = 0
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				idx := g.Index(i, j, k)
				c := mat[idx]
				d := 0.0
				if k > 0 {
					d += off(idx-nxy, faceConductance(dx[i]*dy[j], dz[k-1], kz[mat[idx-nxy]], dz[k], kz[c]))
				}
				if j > 0 {
					d += off(idx-nx, faceConductance(dx[i]*dz[k], dy[j-1], kxy[mat[idx-nx]], dy[j], kxy[c]))
				}
				if i > 0 {
					d += off(idx-1, faceConductance(dy[j]*dz[k], dx[i-1], kxy[mat[idx-1]], dx[i], kxy[c]))
				}
				ws.diag[idx] = p
				col[p] = idx
				p++
				if i+1 < nx {
					d += off(idx+1, faceConductance(dy[j]*dz[k], dx[i], kxy[c], dx[i+1], kxy[mat[idx+1]]))
				}
				if j+1 < ny {
					d += off(idx+nx, faceConductance(dx[i]*dz[k], dy[j], kxy[c], dy[j+1], kxy[mat[idx+nx]]))
				}
				if k+1 < nz {
					d += off(idx+nxy, faceConductance(dx[i]*dy[j], dz[k], kz[c], dz[k+1], kz[mat[idx+nxy]]))
				}
				ws.interior[idx] = d
				s.a.RowPtr[idx+1] = p
			}
		}
	}
}

// assemble runs one pass: the steady FV system A·T = b linearized about
// the field T, written over the previous pass's.  It returns the
// KronSum of an unpainted model and the CSR of a painted one, building
// the CSR's symbolic phase on first use.
//
// A boundary cell at Ts loses G(Ts)·(Ts − Ta) through its face.  A
// radiating film linearizes that by Newton's method: the cell adds
// G + D to its diagonal and G·Ta + D·Ts to its right-hand side, with
// D = max(0, dG/dTs·(Ts − Ta)).  At Ts = T the system's residual is the
// nonlinear one, so the fixed point is the same as with D = 0; D only
// shortens the way there.  The clamp keeps the operator an SPD
// M-matrix, as FDM, MIC(0) and CG require.
func (s *stencil) assemble(T []float64) (linalg.Operator, []float64) {
	if s.kron != nil {
		clear(s.ws.bnd)
		s.boundary(T, s.ws.bnd, nil)
		return s.kron, s.ws.b
	}
	return s.assembleCSR(T), s.ws.b
}

// assembleCSR runs one pass's numeric phase on the CSR.
func (s *stencil) assembleCSR(T []float64) *linalg.CSR {
	if s.a.RowPtr == nil {
		s.build()
	}
	val, diag := s.a.Val, s.ws.diag
	for i, p := range diag {
		val[p] = s.ws.interior[i]
	}
	s.boundary(T, val, diag)
	return &s.a
}

// boundary adds each boundary cell's G + D at the field T to its
// diagonal, entry slot[i] of dst for cell i, or entry i when slot is
// nil, and rebuilds the right-hand side: the boundary terms, face by
// face (films.add), then the volumetric sources.  Only a radiating cell
// reads T, so a model without a radiating face may pass a nil T.
func (s *stencil) boundary(T, dst []float64, slot []int) {
	m, g, b := s.m, s.m.Grid, s.ws.b
	clear(b)
	s.grounded = false
	for f := mesh.XMin; f < mesh.NumFaces; f++ {
		// A face that added a conductance has a nonzero total.
		total := s.ws.films.add(f, T, dst, slot, b)
		s.faceG[f] = total
		s.grounded = s.grounded || total != 0
	}

	// Volumetric sources, each spread by cell volume fraction of its
	// box's volume (newStencil).
	for q, src := range m.sources {
		vol := s.ws.srcVol[q]
		if vol == 0 {
			continue
		}
		boxRows(g, src.box, s.ws.vol[:src.box.I1-src.box.I0], func(idx int, v []float64) {
			for i, vi := range v {
				b[idx+i] += src.power * vi / vol
			}
		})
	}
}

// interiorAxes factors an unpainted model's interior conduction, every
// cell of Mats[0], into its three axes: per unit cross-section, the face
// conductances between neighbouring cells along each axis, and the cell
// sizes as masses.  Its boundary faces are each pass's: the KronSum's
// per-cell diagonal and fdmAxes' end terms.
func (m *Model) interiorAxes() [3]linalg.Axis {
	g := m.Grid
	mat := &m.Mats[0]
	var axes [3]linalg.Axis
	for d, edges := range [3][]float64{g.XEdges, g.YEdges, g.ZEdges} {
		n := len(edges) - 1
		k := kDir(mat, d)
		buf := make([]float64, 3*n-1)
		ax := linalg.Axis{Mass: buf[:n], Diag: buf[n : 2*n], Off: buf[2*n:]}
		for i := range ax.Mass {
			ax.Mass[i] = edges[i+1] - edges[i]
		}
		for i := range ax.Off {
			gf := faceConductance(1, ax.Mass[i], k, ax.Mass[i+1], k)
			ax.Off[i] = -gf
			ax.Diag[i] += gf
			ax.Diag[i+1] += gf
		}
		axes[d] = ax
	}
	return axes
}

// fdmAxes returns the axes of an unpainted model's last pass for fast
// diagonalization: the interior ones plus, at each end, the conductance
// per unit area of that boundary face, its faceG over its area.  On an
// unpatched adiabatic, FixedT or Convection face that is the same at
// every cell, so their Kronecker sum is exactly the pass's operator; a
// radiating or patched face contributes its face mean of the terms the
// KronSum applies cell by cell.
// Only Diag is new: Off and Mass are the interior axes', which nothing
// modifies.
func (s *stencil) fdmAxes() [3]linalg.Axis {
	g, axes := s.m.Grid, s.kron.Axes
	for d := range axes {
		diag := slices.Clone(axes[d].Diag)
		lo, hi := mesh.Face(2*d), mesh.Face(2*d+1)
		diag[0] += s.faceG[lo] / g.TotalFaceArea(lo)
		diag[len(diag)-1] += s.faceG[hi] / g.TotalFaceArea(hi)
		axes[d].Diag = diag
	}
	return axes
}

// faceConductance is the series (harmonic-mean) conductance between two
// adjacent cell centres through their shared face.
func faceConductance(area, d1, k1, d2, k2 float64) float64 {
	r := d1/(2*k1*area) + d2/(2*k2*area)
	return 1 / r
}

// faceAxis maps a face to its normal axis index.
func faceAxis(f mesh.Face) int {
	switch f {
	case mesh.XMin, mesh.XMax:
		return 0
	case mesh.YMin, mesh.YMax:
		return 1
	default:
		return 2
	}
}

// BoundaryHeatFlow returns the net heat flow (W, positive out of the
// domain) through face f for a solved field — used by energy-conservation
// checks and by exchanger sizing: Σ G·(Ts − Ta) over the face's cells,
// read from its films.
func (m *Model) BoundaryHeatFlow(res *Result, f mesh.Face) float64 {
	var fs films
	fs.build(m)
	return fs.heatFlow(f, res.T)
}
