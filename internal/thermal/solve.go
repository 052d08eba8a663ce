package thermal

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"aeropack/internal/linalg"
	"aeropack/internal/mesh"
	"aeropack/internal/obs"
	"aeropack/internal/robust"
	"aeropack/internal/units"
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

// Mean returns the volume-weighted mean temperature.
func (r *Result) Mean() float64 {
	sumVT, sumV := 0.0, 0.0
	for k := 0; k < r.g.Nz; k++ {
		for j := 0; j < r.g.Ny; j++ {
			for i := 0; i < r.g.Nx; i++ {
				v := r.g.CellVolume(i, j, k)
				sumVT += v * r.T[r.g.Index(i, j, k)]
				sumV += v
			}
		}
	}
	return sumVT / sumV
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
	b := r.g.LocateBox(x0, x1, y0, y1, z0, z1)
	sumVT, sumV := 0.0, 0.0
	for k := b.K0; k < b.K1; k++ {
		for j := b.J0; j < b.J1; j++ {
			for i := b.I0; i < b.I1; i++ {
				v := r.g.CellVolume(i, j, k)
				sumVT += v * r.T[r.g.Index(i, j, k)]
				sumV += v
			}
		}
	}
	if sumV == 0 {
		return math.NaN()
	}
	return sumVT / sumV
}

// SolveOptions tunes the steady and transient FV solves.  The model
// picks the preconditioner itself (see SolveSteady).
type SolveOptions struct {
	Tol     float64 // linear relative residual target (default 1e-9)
	MaxIter int     // linear iteration cap (default 20·n^(2/3)+2000)

	// OnIteration is forwarded to the linear solver (see
	// linalg.IterOptions.OnIteration).  It fires for every inner
	// iteration of every outer pass.
	OnIteration func(it int, residual float64)
}

// The radiation linearisation runs at most maxPicardPasses passes and
// stops once no cell moves more than picardTolK between passes.
const (
	maxPicardPasses = 40
	picardTolK      = 0.01
)

func (o *SolveOptions) defaults(n int) {
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 20*int(math.Cbrt(float64(n))*math.Cbrt(float64(n))) + 2000
	}
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
// The model picks each pass's preconditioner: fast diagonalization
// (linalg.FDMPrec) when every cell holds one material and no patch
// overrides a face, as on every level-2 board, and MIC(0) otherwise.
// Each pass is one preconditioned CG solve; a failed one is the solve's
// error.  A model with no face exchanging heat has no steady state, and
// SolveSteady says so rather than solving it.
func (m *Model) SolveSteady(ctx context.Context, opts *SolveOptions) (*Result, error) {
	n := m.Grid.NumCells()
	var o SolveOptions
	if opts != nil {
		o = *opts
	}
	o.defaults(n)

	ctx, sp := obs.StartContext(ctx, "thermal.SolveSteady")
	defer sp.End()
	sp.AttrInt("cells", n)
	stop := robust.Stop(ctx)

	// The field the film is linearized about: the uniform energy-balance
	// temperature, then each pass's solution.
	T := make([]float64, n)
	if m.hasRadiation() {
		t0 := m.balanceT()
		for i := range T {
			T[i] = t0
		}
	}

	res := &Result{g: m.Grid}
	st := &stencil{m: m}
	pb := &precBuilder{}
	if m.separable() {
		// Each pass builds its fast-diagonalization preconditioner at the
		// pass's linearization field, lending the last one's
		// eigendecompositions to the axes whose faces did not move.
		var last *linalg.FDMPrec
		pb.fdm = func() (*linalg.FDMPrec, error) {
			p, err := linalg.NewFDMPrec(m.fdmAxes(T), last)
			if err == nil {
				last = p
			}
			return p, err
		}
		sp.Attr("prec", "fdm")
	} else {
		sp.Attr("prec", "mic0")
	}
	var prev []float64
	for outer := 0; outer < maxPicardPasses; outer++ {
		// The budget is polled between passes as well as inside the
		// linear solver, so a tripped request stops at the next pass
		// boundary instead of running the remaining passes.
		if stop != nil && outer > 0 && stop() {
			return nil, fmt.Errorf("thermal: FV %w after %d Picard passes", linalg.ErrStopped, outer)
		}
		res.OuterIterations = outer + 1
		a, b := st.assembleObs(ctx, T)
		if !st.grounded {
			return nil, errors.New("thermal: no face of the FV model exchanges heat; steady problem is singular")
		}
		t, stats, err := linSolve(ctx, a, b, prev, &o, pb)
		res.Iterations = stats.Iterations
		if err != nil {
			return nil, err
		}
		if !m.hasRadiation() {
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
		T, prev = t, t
		if delta < picardTolK {
			sp.AttrInt("passes", res.OuterIterations)
			sp.AttrF("delta_k", delta)
			res.T = t
			return res, nil
		}
	}
	return nil, fmt.Errorf("thermal: radiation linearisation did not converge in %d passes", maxPicardPasses)
}

// balanceT is the uniform temperature T at which the model's faces shed
// its source power P, the field the first Newton pass linearizes about:
//
//	Σ g_c·(T − Ta_c) + σ·Σ ε_c·A_c·(T⁴ − Ta_c⁴) = P
//
// over the non-adiabatic boundary cells c, where g_c is the cell's
// conductance without radiation and ε_c·A_c its radiating area (the
// radiation is taken at the surface, without the half-cell conduction in
// series).  Linearized at the ambient instead, a hot face of low ε
// overshoots by tens of times on the first pass, and Newton then closes
// only about a quarter of the gap per pass.  The left side is increasing
// and convex for T > 0, so Newton's method from the highest ambient
// steps to the right of the root and then falls to it, closing at least
// a quarter of the gap per step: 100 steps cover any overshoot.
func (m *Model) balanceT() float64 {
	g := m.Grid
	var gSum, gTa, eSum, eTa4 float64
	t := math.Inf(-1)
	for f := mesh.XMin; f < mesh.NumFaces; f++ {
		face := f
		g.BoundaryCells(face, func(i, j, k int) {
			bc := m.bcAt(face, i, j, k)
			if bc.Kind == Adiabatic {
				return
			}
			t = max(t, bc.T)
			if bc.Kind == ConvectionRadiation {
				e := bc.emissivity(m.matAt(i, j, k)) * units.StefanBoltzmann * g.FaceArea(face, i, j, k)
				eSum += e
				eTa4 += e * bc.T * bc.T * bc.T * bc.T
				bc.Kind = Convection // g_c: the film's convective part
			}
			gc, _ := m.boundaryG(face, i, j, k, bc, bc.T)
			gSum += gc
			gTa += gc * bc.T
		})
	}
	p := m.TotalSourcePower()
	for it := 0; it < 100; it++ {
		slope := gSum + 4*eSum*t*t*t
		if !(slope > 0) {
			break
		}
		step := (gSum*t - gTa + eSum*t*t*t*t - eTa4 - p) / slope
		t -= step
		if math.Abs(step) < 1e-9*t {
			break
		}
	}
	return t
}

// separable reports whether the model's operator is a Kronecker sum of
// three 1-D factors, so fast diagonalization inverts it: every cell
// holds one material and no patch overrides a face.
func (m *Model) separable() bool {
	if len(m.patches) > 0 {
		return false
	}
	for _, idx := range m.Grid.MatIdx {
		if idx != m.Grid.MatIdx[0] {
			return false
		}
	}
	return true
}

func (m *Model) hasRadiation() bool {
	for f := mesh.XMin; f < mesh.NumFaces; f++ {
		if m.FaceBC[f].Kind == ConvectionRadiation {
			return true
		}
	}
	for _, p := range m.patches {
		if p.bc.Kind == ConvectionRadiation {
			return true
		}
	}
	return false
}

// assembleObs wraps assemble with a child span and the assembly metrics
// (thermal_matrix_nnz gauge, thermal_assembly_seconds histogram); the
// first pass's observation includes the symbolic phase.  With telemetry
// disabled it reduces to the bare assemble call plus two nil checks.
func (s *stencil) assembleObs(ctx context.Context, T []float64) (*linalg.CSR, []float64) {
	parent, reg := obs.FromContext(ctx), obs.Default()
	if parent == nil && reg == nil {
		return s.assemble(T)
	}
	start := time.Now()
	a, b := s.assembleSpan(parent, T)
	if reg != nil {
		reg.Gauge("thermal_matrix_nnz").Set(float64(len(a.Val)))
		reg.Histogram("thermal_assembly_seconds", assemblyBuckets).Observe(time.Since(start).Seconds())
	}
	return a, b
}

// assembleSpan runs assemble under a thermal.assemble child of parent,
// annotated with the matrix's nonzero count.
func (s *stencil) assembleSpan(parent *obs.Span, T []float64) (*linalg.CSR, []float64) {
	sp := parent.Start("thermal.assemble")
	defer sp.End()
	a, b := s.assemble(T)
	sp.AttrInt("nnz", len(a.Val))
	return a, b
}

// assemblyBuckets span 1 µs to 1000 s, one decade per bucket.
var assemblyBuckets = obs.ExpBuckets(1e-6, 10, 9)

// linSolve solves one pass's or step's system by CG, preconditioned by
// what pb builds for a and polling ctx's budget once per iteration.
// Nothing retries a failed solve: its error is the caller's.
func linSolve(ctx context.Context, a *linalg.CSR, b, x0 []float64, o *SolveOptions, pb *precBuilder) ([]float64, linalg.IterStats, error) {
	sp := obs.Start(obs.FromContext(ctx), "thermal.linSolve")
	defer sp.End()
	prec, kind := pb.build(sp, a)
	sp.Attr("prec", kind)
	x, stats, err := linalg.CGOpt(a, b, x0, &linalg.IterOptions{
		Tol: o.Tol, MaxIter: o.MaxIter, Prec: prec, OnIteration: o.OnIteration, Stop: robust.Stop(ctx),
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

// precBuilder builds the preconditioner of every linear solve in one
// solve call.  The model picks its kind, not the caller: fdm, set on a
// separable steady model, builds a pass's fast diagonalization, and
// every other solve gets MIC(0).
type precBuilder struct {
	fdm func() (*linalg.FDMPrec, error)
	// once keeps the first preconditioner for every later solve: a
	// transient step operator without a radiating face never changes.
	once bool
	prec linalg.Preconditioner
	kind string
}

// build returns the preconditioner for a and its kind, "fdm", "mic0" or
// "jacobi".
func (pb *precBuilder) build(sp *obs.Span, a *linalg.CSR) (linalg.Preconditioner, string) {
	if !pb.once || pb.prec == nil {
		pb.prec, pb.kind = pb.fresh(sp, a)
	}
	return pb.prec, pb.kind
}

// fresh builds a new preconditioner for a.  It is the one place a build
// degrades, one step at a time, to a weaker kind that never fails: a
// fast diagonalization with a singular mode to MIC(0), counted on
// thermal_fdm_degraded_total, and a MIC(0) factor that breaks down
// through the whole shift ladder to Jacobi, counted on
// thermal_ic0_degraded_total.
func (pb *precBuilder) fresh(sp *obs.Span, a *linalg.CSR) (linalg.Preconditioner, string) {
	if pb.fdm != nil {
		p, err := pb.fdm()
		if err == nil {
			return p, "fdm"
		}
		degrade(sp, "fdm", "mic0", "thermal_fdm_degraded_total", err)
	}
	p, err := linalg.NewMICPrec(a)
	if err == nil {
		return p, "mic0"
	}
	degrade(sp, "mic0", "jacobi", "thermal_ic0_degraded_total", err)
	return linalg.NewJacobiPrec(a), "jacobi"
}

// degrade counts one preconditioner degrade on counter, records it as a
// degrade event with its cause and marks sp with the kind it fell to.
func degrade(sp *obs.Span, from, to, counter string, cause error) {
	obs.Default().Counter(counter).Add(1)
	if rec := obs.CurrentRecorder(); rec != nil {
		rec.Record("degrade", "thermal.linSolve",
			obs.Attr{Key: "from", Value: from},
			obs.Attr{Key: "to", Value: to},
			obs.Attr{Key: "cause", Value: cause.Error()})
	}
	sp.Attr("prec_degraded", to)
}

// stencil assembles one model's FV operator in two phases.  The
// symbolic phase (build) runs once per SolveSteady/SolveTransient call:
// the 7-point CSR pattern, each row's diagonal slot and the interior
// face conductances, which depend only on grid and materials.  The
// numeric phase (assemble) runs once per Picard pass or time step: it
// copies the interior values and adds the boundary terms, the only part
// of the operator that moves with the surface temperature.  Every pass
// assembles into the same value array and right-hand side: no
// preconditioner keeps a reference to them (MIC(0), Jacobi and fast
// diagonalization copy what they keep).
//
// Every diagonal sums its terms in one fixed order: the −z, −y, −x,
// +x, +y and +z faces, then the boundary faces XMin…ZMax.  That is the
// order a cell-by-cell face loop visits them, so the operator does not
// depend on how the pattern is traversed.
type stencil struct {
	m        *Model
	diag     []int      // position of row i's diagonal in a.ColIdx
	interior []float64  // interior-face operator values
	a        linalg.CSR // the assembled operator, one Val for every pass
	b        []float64  // the assembled right-hand side
	// grounded records whether the last assemble added a nonzero
	// boundary conductance; without one the steady operator is singular.
	grounded bool
}

// build runs the symbolic phase: row by row, entries in ascending
// column order (−z, −y, −x, diagonal, +x, +y, +z).
func (s *stencil) build() {
	m, g := s.m, s.m.Grid
	nx, ny, nz := g.Nx, g.Ny, g.Nz
	n := g.NumCells()
	nnz := n + 2*((nx-1)*ny*nz+nx*(ny-1)*nz+nx*ny*(nz-1))
	s.a = linalg.CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1), ColIdx: make([]int, 0, nnz)}
	s.diag = make([]int, n)
	s.interior = make([]float64, 0, nnz)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				idx := g.Index(i, j, k)
				d := 0.0
				if k > 0 {
					d += s.offDiag(idx-nx*ny, m.faceG(2, i, j, k-1))
				}
				if j > 0 {
					d += s.offDiag(idx-nx, m.faceG(1, i, j-1, k))
				}
				if i > 0 {
					d += s.offDiag(idx-1, m.faceG(0, i-1, j, k))
				}
				dpos := len(s.a.ColIdx)
				s.diag[idx] = dpos
				s.a.ColIdx = append(s.a.ColIdx, idx)
				s.interior = append(s.interior, 0)
				if i+1 < nx {
					d += s.offDiag(idx+1, m.faceG(0, i, j, k))
				}
				if j+1 < ny {
					d += s.offDiag(idx+nx, m.faceG(1, i, j, k))
				}
				if k+1 < nz {
					d += s.offDiag(idx+nx*ny, m.faceG(2, i, j, k))
				}
				s.interior[dpos] = d
				s.a.RowPtr[idx+1] = len(s.a.ColIdx)
			}
		}
	}
	s.a.Val = make([]float64, len(s.interior))
	s.b = make([]float64, n)
}

// offDiag appends the coupling −gf to column col of the current row and
// returns gf for the row's diagonal sum.
func (s *stencil) offDiag(col int, gf float64) float64 {
	s.a.ColIdx = append(s.a.ColIdx, col)
	s.interior = append(s.interior, -gf)
	return gf
}

// faceG is the series (harmonic-mean) conductance of the interior face
// between cell (i,j,k) and its neighbour one cell further along axis
// (0 x, 1 y, 2 z).
func (m *Model) faceG(axis, i, j, k int) float64 {
	g := m.Grid
	switch axis {
	case 0:
		return faceConductance(g.DY(j)*g.DZ(k), g.DX(i), kDir(m.matAt(i, j, k), 0), g.DX(i+1), kDir(m.matAt(i+1, j, k), 0))
	case 1:
		return faceConductance(g.DX(i)*g.DZ(k), g.DY(j), kDir(m.matAt(i, j, k), 1), g.DY(j+1), kDir(m.matAt(i, j+1, k), 1))
	default:
		return faceConductance(g.DX(i)*g.DY(j), g.DZ(k), kDir(m.matAt(i, j, k), 2), g.DZ(k+1), kDir(m.matAt(i, j, k+1), 2))
	}
}

// assemble runs the numeric phase, building the symbolic one on first
// use: the steady FV system A·T = b linearized about the field T, written
// over the previous pass's.
//
// A boundary cell at Ts loses G(Ts)·(Ts − Ta) through its face.  A
// radiating film linearizes that by Newton's method: the cell adds
// G + D to its diagonal and G·Ta + D·Ts to its right-hand side, with
// D = max(0, dG/dTs·(Ts − Ta)).  At Ts = T the system's residual is the
// nonlinear one, so the fixed point is the same as with D = 0; D only
// shortens the way there.  The clamp keeps the operator an SPD
// M-matrix, as FDM, MIC(0), Jacobi and CG require.
func (s *stencil) assemble(T []float64) (*linalg.CSR, []float64) {
	if s.a.RowPtr == nil {
		s.build()
	}
	m, g := s.m, s.m.Grid
	a, b := &s.a, s.b
	copy(a.Val, s.interior)
	clear(b)
	s.grounded = false

	// Boundary conditions.
	for f := mesh.XMin; f < mesh.NumFaces; f++ {
		face := f
		g.BoundaryCells(face, func(i, j, k int) {
			bc := m.bcAt(face, i, j, k)
			if bc.Kind == Adiabatic {
				return
			}
			idx := g.Index(i, j, k)
			ts := T[idx]
			gTot, d := m.boundaryG(face, i, j, k, bc, ts)
			if gTot == 0 {
				return
			}
			a.Val[s.diag[idx]] += gTot + d
			b[idx] += gTot*bc.T + d*ts
			s.grounded = true
		})
	}

	// Volumetric sources.
	for _, src := range m.sources {
		// Spread power by cell volume fraction.
		vol := 0.0
		for k := src.box.K0; k < src.box.K1; k++ {
			for j := src.box.J0; j < src.box.J1; j++ {
				for i := src.box.I0; i < src.box.I1; i++ {
					vol += g.CellVolume(i, j, k)
				}
			}
		}
		if vol == 0 {
			continue
		}
		for k := src.box.K0; k < src.box.K1; k++ {
			for j := src.box.J0; j < src.box.J1; j++ {
				for i := src.box.I0; i < src.box.I1; i++ {
					b[g.Index(i, j, k)] += src.power * g.CellVolume(i, j, k) / vol
				}
			}
		}
	}

	return a, b
}

// boundaryG is the conductance G (W/K) from the centre of boundary cell
// (i,j,k) through face f to the ambient of a non-adiabatic bc, with the
// radiative film taken at surface temperature Ts, and the Newton term
// D (W/K) assemble adds to it.  G = 1/(rCond + 1/(h·A)) with the film
// h = H + εσ(Ts² + Ta²)(Ts + Ta), so dG/dTs = G²·h′/(h²·A) with
// h′ = εσ(3Ts² + 2Ts·Ta + Ta²), and D = max(0, dG/dTs·(Ts − Ta)); D is 0
// unless the face radiates.  Both are 0 when the film coefficient is not
// positive: the face then exchanges no heat.
func (m *Model) boundaryG(f mesh.Face, i, j, k int, bc BC, Ts float64) (G, D float64) {
	g := m.Grid
	area := g.FaceArea(f, i, j, k)
	mat := m.matAt(i, j, k)
	rCond := 0.5 * cellExtent(g, f, i, j, k) / (kDir(mat, faceAxis(f)) * area)
	if bc.Kind == FixedT {
		return 1 / rCond, 0
	}
	h, dh := bc.H, 0.0
	if bc.Kind == ConvectionRadiation {
		es := bc.emissivity(mat) * units.StefanBoltzmann
		h += es * (Ts*Ts + bc.T*bc.T) * (Ts + bc.T)
		dh = es * (3*Ts*Ts + 2*Ts*bc.T + bc.T*bc.T)
	}
	if h <= 0 {
		return 0, 0
	}
	G = 1 / (rCond + 1/(h*area))
	return G, max(0, G*G*dh/(h*h*area)*(Ts-bc.T))
}

// addCapacity turns one step's assembled system into the backward-Euler
// one, (C/dt + A)·T^{n+1} = C/dt·T^n + b: it adds C/dt to A's diagonal
// in place and writes the right-hand side into rhs.
func (s *stencil) addCapacity(a *linalg.CSR, b, capDt, T, rhs []float64) {
	for i, c := range capDt {
		a.Val[s.diag[i]] += c
		rhs[i] = b[i] + c*T[i]
	}
}

// fdmAxes factors a separable model's operator, linearized about the
// field T, into its three axes: per unit cross-section, the interior
// face conductances along each axis plus, at each end, the conductance
// of that boundary face.  An adiabatic, FixedT or Convection face has
// the same conductance per unit area at every cell, so the sum is
// exactly the assembled operator; a ConvectionRadiation face contributes
// the face mean of the film and its Newton term, which the stencil
// applies cell by cell.
func (m *Model) fdmAxes(T []float64) [3]linalg.Axis {
	g := m.Grid
	mat := &m.Mats[g.MatIdx[0]]
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
		ax.Diag[0] += m.faceFilm(mesh.Face(2*d), T)
		ax.Diag[n-1] += m.faceFilm(mesh.Face(2*d+1), T)
		axes[d] = ax
	}
	return axes
}

// faceFilm is boundary face f's diagonal conductance per unit area at
// the field T: the total over its cells of G plus the Newton term D that
// assemble adds, divided by the face area.
func (m *Model) faceFilm(f mesh.Face, T []float64) float64 {
	bc := m.FaceBC[f]
	if bc.Kind == Adiabatic {
		return 0
	}
	g := m.Grid
	total := 0.0
	g.BoundaryCells(f, func(i, j, k int) {
		gc, d := m.boundaryG(f, i, j, k, bc, T[g.Index(i, j, k)])
		total += gc + d
	})
	return total / g.TotalFaceArea(f)
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

// cellExtent returns the cell size normal to face f.
func cellExtent(g *mesh.Grid, f mesh.Face, i, j, k int) float64 {
	switch f {
	case mesh.XMin, mesh.XMax:
		return g.DX(i)
	case mesh.YMin, mesh.YMax:
		return g.DY(j)
	default:
		return g.DZ(k)
	}
}

// BoundaryHeatFlow returns the net heat flow (W, positive out of the
// domain) through face f for a solved field — used by energy-conservation
// checks and by exchanger sizing.
func (m *Model) BoundaryHeatFlow(res *Result, f mesh.Face) float64 {
	g := m.Grid
	total := 0.0
	g.BoundaryCells(f, func(i, j, k int) {
		bc := m.bcAt(f, i, j, k)
		if bc.Kind == Adiabatic {
			return
		}
		idx := g.Index(i, j, k)
		if gTot, _ := m.boundaryG(f, i, j, k, bc, res.T[idx]); gTot != 0 {
			total += gTot * (res.T[idx] - bc.T)
		}
	})
	return total
}

// TransientOptions tunes the transient solver.
type TransientOptions struct {
	SolveOptions
	Dt    float64 // time step, s (required)
	Steps int     // number of steps (required)
	// Snapshot, if non-nil, is called after every step with the time and
	// current field (aliased — copy if retained).
	Snapshot func(t float64, T []float64)
}

// SolveTransient integrates ∂(ρc_p T)/∂t = ∇·(k∇T) + q with implicit
// (backward) Euler from a uniform initial temperature T0.  Radiative BCs
// are Newton-linearized about the previous step's field (see assemble).
// Every step's linear solve is preconditioned by MIC(0).  ctx budgets
// every step's linear solve and parents the solver's spans, as in
// SolveSteady.
func (m *Model) SolveTransient(ctx context.Context, T0 float64, opts *TransientOptions) (*Result, error) {
	if opts == nil || opts.Dt <= 0 || opts.Steps <= 0 {
		return nil, fmt.Errorf("thermal: transient solve requires positive Dt and Steps")
	}
	g := m.Grid
	n := g.NumCells()
	o := opts.SolveOptions
	o.defaults(n)

	T := make([]float64, n)
	for i := range T {
		T[i] = T0
	}
	// Per-cell heat capacity over the step, C/dt = rho·cp·V/dt.
	capDt := make([]float64, n)
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				mat := m.matAt(i, j, k)
				capDt[g.Index(i, j, k)] = mat.VolumetricHeatCapacity() * g.CellVolume(i, j, k) / opts.Dt
			}
		}
	}

	ctx, sp := obs.StartContext(ctx, "thermal.SolveTransient")
	defer sp.End()
	sp.AttrInt("cells", n)
	sp.AttrInt("steps", opts.Steps)

	res := &Result{g: g}
	st := &stencil{m: m}
	// Without a radiating face the step operator C/dt + A never changes,
	// so one MIC(0) factor serves every step; with one, each step
	// factors its own.
	pb := &precBuilder{once: !m.hasRadiation()}
	rhs := make([]float64, n)
	t := 0.0
	for step := 0; step < opts.Steps; step++ {
		a, b := st.assembleObs(ctx, T)
		st.addCapacity(a, b, capDt, T, rhs)
		Tn, stats, err := linSolve(ctx, a, rhs, T, &o, pb)
		res.Iterations = stats.Iterations
		if err != nil {
			return nil, fmt.Errorf("thermal: transient step %d: %w", step, err)
		}
		copy(T, Tn)
		t += opts.Dt
		if opts.Snapshot != nil {
			opts.Snapshot(t, T)
		}
	}
	res.T = T
	res.OuterIterations = opts.Steps
	return res, nil
}
