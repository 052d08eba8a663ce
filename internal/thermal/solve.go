package thermal

import (
	"fmt"
	"math"
	"time"

	"aeropack/internal/linalg"
	"aeropack/internal/mesh"
	"aeropack/internal/obs"
	"aeropack/internal/parallel"
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

// SolveOptions tunes the steady solver.
type SolveOptions struct {
	Tol        float64 // linear relative residual target (default 1e-9)
	MaxIter    int     // linear iteration cap (default 20·n^(2/3)+2000)
	MaxOuter   int     // radiation linearisation passes (default 12)
	RadTol     float64 // outer convergence on max |ΔT| in K (default 0.01)
	InitialT   float64 // initial field guess, K (default: mean of BC temps or 300)
	Solver     string  // "cg-mic0" (default), "cg-ic0", "cg", "cg-jacobi", "cg-ssor", "bicgstab"
	SSOROmega  float64 // relaxation for cg-ssor (default 1.2)
	ReturnLast bool    // if true, return best-effort field on non-convergence

	// Fallback routes the linear solve through the robust fallback
	// chain (robust.ChainFor): when the configured Solver fails, the
	// remaining rungs of the default ladder are tried before the solve
	// is reported failed.  A solve that succeeds on the first rung is
	// bitwise-identical to a non-Fallback solve, so enabling it only
	// changes behaviour on systems that would otherwise error out.
	Fallback bool

	// Parallel enables row-parallel matrix-vector products, which are
	// bitwise-identical to the serial ones (see DESIGN.md "Parallel
	// execution"), but serial stays the default so the baseline remains
	// trivially verifiable.
	Parallel bool
	// Workers bounds the worker count when Parallel is set; <= 0 means
	// runtime.GOMAXPROCS.
	Workers int

	// Span, when non-nil, is the parent under which the solver's
	// telemetry spans (thermal.SolveSteady → thermal.assemble /
	// thermal.linSolve) are recorded.  When nil, the solver span attaches
	// to the process-global tracer — and costs one atomic load when
	// tracing is disabled.
	Span *obs.Span
	// OnIteration is forwarded to the linear solver (see
	// linalg.IterOptions.OnIteration).  It fires for every inner
	// iteration of every outer pass; pair with linalg.ConvergenceLog to
	// capture convergence traces.
	OnIteration func(it int, residual float64)
	// Stop is forwarded to the linear solver (see
	// linalg.IterOptions.Stop), or to the robust chain under Fallback,
	// and polled between Picard passes.  When nil, a defaultSolveBudget
	// wall-clock guard is installed (under Fallback, each rung's own
	// guard), so one near-singular operator in a sweep aborts with
	// linalg.ErrStopped instead of wedging the campaign.
	Stop func() bool
}

// defaultSolveBudget is the wall-clock ceiling applied to linear solves
// whose caller supplies no Stop of its own.
const defaultSolveBudget = 5 * time.Minute

// defaultSolveStop returns a fresh wall-clock guard for one solve.
func defaultSolveStop() func() bool {
	deadline := time.Now().Add(defaultSolveBudget)
	return func() bool { return time.Now().After(deadline) }
}

// workerCount resolves the matrix-vector worker budget: 1 unless
// Parallel is set.
func (o *SolveOptions) workerCount() int {
	if !o.Parallel {
		return 1
	}
	return parallel.Workers(o.Workers)
}

func (o *SolveOptions) defaults(n int) {
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 20*int(math.Cbrt(float64(n))*math.Cbrt(float64(n))) + 2000
	}
	if o.MaxOuter <= 0 {
		o.MaxOuter = 40
	}
	if o.RadTol <= 0 {
		o.RadTol = 0.01
	}
	if o.Solver == "" {
		// MIC(0)-preconditioned CG is the default: on the FV conduction
		// operators it converges in about half the iterations of IC(0),
		// itself an order of magnitude fewer than Jacobi or SSOR, and
		// breakdown degrades to Jacobi inside linSolve rather than
		// failing the solve.
		o.Solver = "cg-mic0"
	}
	if o.SSOROmega <= 0 || o.SSOROmega >= 2 {
		o.SSOROmega = 1.2
	}
}

// SolveSteady solves the steady conduction problem.  Radiative boundaries
// make the problem mildly nonlinear; they are handled by Picard iteration
// on a linearised radiation coefficient.
func (m *Model) SolveSteady(opts *SolveOptions) (*Result, error) {
	n := m.Grid.NumCells()
	var o SolveOptions
	if opts != nil {
		o = *opts
	}
	o.defaults(n)

	sp := obs.Start(o.Span, "thermal.SolveSteady")
	defer sp.End()
	sp.AttrInt("cells", n)
	sp.Attr("solver", o.Solver)

	// Initial surface-temperature estimate for radiation linearisation.
	Tinit := o.InitialT
	if Tinit <= 0 {
		Tinit = m.guessInitialT()
	}
	Tsurf := make([]float64, n)
	for i := range Tsurf {
		Tsurf[i] = Tinit
	}

	w := o.workerCount()
	res := &Result{g: m.Grid}
	setup := m.solverSetup()
	st := &stencil{m: m}
	var prev []float64
	for outer := 0; outer < o.MaxOuter; outer++ {
		// The budget is polled between passes as well as inside the
		// linear solver, so a tripped request stops at the next pass
		// boundary instead of running the remaining passes.
		if o.Stop != nil && outer > 0 && o.Stop() {
			return nil, fmt.Errorf("thermal: FV %w after %d Picard passes", linalg.ErrStopped, outer)
		}
		res.OuterIterations = outer + 1
		a, b := st.assembleObs(Tsurf, sp)
		a.SetWorkers(w)
		t, stats, err := m.linSolve(a, b, prev, &o, setup, sp)
		res.Iterations = stats.Iterations
		if err != nil {
			if o.ReturnLast && t != nil {
				res.T = t
				return res, err
			}
			return nil, err
		}
		if !m.hasRadiation() {
			res.T = t
			return res, nil
		}
		// Outer convergence check on the radiating surface estimate, with
		// under-relaxation to damp the h_rad(T⁴) oscillation.
		maxDelta := 0.0
		for i := range t {
			if d := math.Abs(t[i] - Tsurf[i]); d > maxDelta {
				maxDelta = d
			}
			Tsurf[i] = 0.5*Tsurf[i] + 0.5*t[i]
		}
		prev = t
		if maxDelta < o.RadTol {
			res.T = t
			return res, nil
		}
	}
	if o.ReturnLast {
		res.T = Tsurf
		return res, fmt.Errorf("thermal: radiation linearisation did not converge in %d passes", o.MaxOuter)
	}
	return nil, fmt.Errorf("thermal: radiation linearisation did not converge in %d passes", o.MaxOuter)
}

func (m *Model) guessInitialT() float64 {
	sum, cnt := 0.0, 0
	for f := mesh.XMin; f < mesh.NumFaces; f++ {
		if bc := m.FaceBC[f]; bc.Kind != Adiabatic {
			sum += bc.T
			cnt++
		}
	}
	for _, p := range m.patches {
		if p.bc.Kind != Adiabatic {
			sum += p.bc.T
			cnt++
		}
	}
	if cnt == 0 {
		return 300
	}
	return sum / float64(cnt)
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
func (s *stencil) assembleObs(Tsurf []float64, parent *obs.Span) (*linalg.CSR, []float64) {
	sp := parent.Start("thermal.assemble")
	reg := obs.Default()
	if sp == nil && reg == nil {
		return s.assemble(Tsurf)
	}
	start := time.Now()
	a, b := s.assemble(Tsurf)
	nnz := len(a.Val)
	sp.AttrInt("nnz", nnz)
	sp.End()
	if reg != nil {
		reg.Gauge("thermal_matrix_nnz").Set(float64(nnz))
		reg.Histogram("thermal_assembly_seconds", assemblyBuckets).Observe(time.Since(start).Seconds())
	}
	return a, b
}

// assemblyBuckets span 1 µs to 1000 s, one decade per bucket.
var assemblyBuckets = obs.ExpBuckets(1e-6, 10, 9)

// solverSetup returns the setup one solve call should thread through its
// inner linear solves: the persistent one when EnableSolverReuse was
// called, otherwise a fresh private instance (still shared by all Picard
// passes and transient steps of that call).
func (m *Model) solverSetup() *linalg.SolverSetup {
	if m.setup != nil {
		return m.setup
	}
	return linalg.NewSolverSetup()
}

// precKindFor maps a SolveOptions.Solver name to the preconditioner kind
// its primary attempt uses.
func precKindFor(solver string) string {
	switch solver {
	case "cg-jacobi", "bicgstab":
		return "jacobi"
	case "cg-ssor":
		return "ssor"
	case "cg-ic0":
		return "ic0"
	case "cg-mic0":
		return "mic0"
	default:
		return ""
	}
}

// solveLabel keys the result cache with everything beyond the system
// content that can change the outcome of a solve.
func solveLabel(o *SolveOptions) string {
	return fmt.Sprintf("thermal:%s:omega=%g:fallback=%t:maxiter=%d", o.Solver, o.SSOROmega, o.Fallback, o.MaxIter)
}

func (m *Model) linSolve(a *linalg.CSR, b []float64, x0 []float64, o *SolveOptions, setup *linalg.SolverSetup, parent *obs.Span) ([]float64, linalg.IterStats, error) {
	switch o.Solver {
	case "cg", "cg-jacobi", "cg-ssor", "cg-ic0", "cg-mic0", "bicgstab":
	default:
		return nil, linalg.IterStats{}, fmt.Errorf("thermal: unknown solver %q", o.Solver)
	}
	sp := parent.Start("thermal.linSolve")
	sp.Attr("solver", o.Solver)

	// Exact-content repeats (a transient stepper that has reached steady
	// state, replayed sweep points) skip the solve outright.  The cache
	// is bypassed when the caller installed per-iteration hooks: a hit
	// performs no iterations, so OnIteration traces would silently go
	// missing and a fault-injection Stop would never be polled.
	useCache := o.OnIteration == nil && o.Stop == nil
	var key linalg.SolveKey
	if useCache {
		key = setup.Key(solveLabel(o), a, b, x0, o.Tol)
		if x, stats, ok := setup.Cached(key); ok {
			sp.Attr("cache", "hit")
			sp.AttrInt("iterations", 0)
			sp.AttrF("residual", stats.Residual)
			sp.End()
			return x, stats, nil
		}
	}

	var (
		x     []float64
		stats linalg.IterStats
		err   error
	)
	if o.Fallback {
		// The chain builds its own preconditioners and guards each rung
		// with a wall-clock budget, so the caller's Stop is all it needs.
		chain := robust.ChainFor(o.Solver, o.SSOROmega, o.Tol, o.MaxIter)
		chain.Span = sp
		chain.OnIteration = o.OnIteration
		chain.Stop = o.Stop
		chain.Setup = setup
		var out robust.Outcome
		x, out, err = chain.Solve(a, b, x0)
		stats = out.Stats
		if out.Fallbacks > 0 {
			sp.AttrInt("fallbacks", out.Fallbacks)
		}
	} else {
		io := &linalg.IterOptions{Tol: o.Tol, MaxIter: o.MaxIter, OnIteration: o.OnIteration, Stop: o.Stop}
		if io.Stop == nil {
			io.Stop = defaultSolveStop()
		}
		if kind := precKindFor(o.Solver); kind != "" {
			prec, perr := setup.PrecFor(kind, a, o.SSOROmega)
			if perr != nil {
				// Only IC(0) and MIC(0) can fail (breakdown through the
				// whole shift ladder); degrade to Jacobi — weaker, never
				// failing.
				obs.Default().Counter("thermal_ic0_degraded_total").Add(1)
				if rec := obs.CurrentRecorder(); rec != nil {
					rec.Record("degrade", "thermal.linSolve",
						obs.Attr{Key: "from", Value: kind},
						obs.Attr{Key: "to", Value: "jacobi"},
						obs.Attr{Key: "cause", Value: perr.Error()})
				}
				sp.Attr("prec_degraded", "jacobi")
				prec, _ = setup.PrecFor("jacobi", a, o.SSOROmega)
			}
			io.Prec = prec
		}
		if o.Solver == "bicgstab" {
			x, stats, err = linalg.BiCGSTABOpt(a, b, x0, io)
		} else {
			x, stats, err = linalg.CGOpt(a, b, x0, io)
		}
	}
	sp.AttrInt("iterations", stats.Iterations)
	sp.AttrF("residual", stats.Residual)
	sp.End()
	if err != nil {
		// The wrapped linalg error already carries the iteration count
		// and final residual; prefixing only the failing solver name
		// keeps the figures from appearing twice in the message.
		err = fmt.Errorf("thermal: %s solve failed: %w", o.Solver, err)
	} else if useCache {
		setup.Store(key, x, stats)
	}
	return x, stats, err
}

// stencil assembles one model's FV operator in two phases.  The
// symbolic phase (build) runs once per SolveSteady/SolveTransient call:
// the 7-point CSR pattern, each row's diagonal slot and the interior
// face conductances, which depend only on grid and materials.  The
// numeric phase (assemble) runs once per Picard pass or time step: it
// copies the interior values and adds the boundary terms, the only part
// of the operator that moves with the surface temperature.
//
// Every diagonal sums its terms in one fixed order: the −z, −y, −x,
// +x, +y and +z faces, then the boundary faces XMin…ZMax.  That is the
// order a cell-by-cell face loop visits them, so the operator does not
// depend on how the pattern is traversed.
type stencil struct {
	m              *Model
	rowPtr, colIdx []int     // shared, read-only, by every pass's CSR
	diag           []int     // position of row i's diagonal in colIdx
	interior       []float64 // interior-face operator values
}

// build runs the symbolic phase: row by row, entries in ascending
// column order (−z, −y, −x, diagonal, +x, +y, +z).
func (s *stencil) build() {
	m, g := s.m, s.m.Grid
	nx, ny, nz := g.Nx, g.Ny, g.Nz
	n := g.NumCells()
	nnz := n + 2*((nx-1)*ny*nz+nx*(ny-1)*nz+nx*ny*(nz-1))
	s.rowPtr = make([]int, n+1)
	s.colIdx = make([]int, 0, nnz)
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
				dpos := len(s.colIdx)
				s.diag[idx] = dpos
				s.colIdx = append(s.colIdx, idx)
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
				s.rowPtr[idx+1] = len(s.colIdx)
			}
		}
	}
}

// offDiag appends the coupling −gf to column col of the current row and
// returns gf for the row's diagonal sum.
func (s *stencil) offDiag(col int, gf float64) float64 {
	s.colIdx = append(s.colIdx, col)
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
// use: the steady FV system A·T = b given the current surface
// temperature estimate (for radiation linearisation).  A owns a fresh
// copy of the values, because cached preconditioners may hold on to an
// earlier pass's matrix.
func (s *stencil) assemble(Tsurf []float64) (*linalg.CSR, []float64) {
	if s.rowPtr == nil {
		s.build()
	}
	m, g := s.m, s.m.Grid
	n := g.NumCells()
	a := &linalg.CSR{Rows: n, Cols: n, RowPtr: s.rowPtr, ColIdx: s.colIdx,
		Val: append([]float64(nil), s.interior...)}
	b := make([]float64, n)

	// Boundary conditions.
	for f := mesh.XMin; f < mesh.NumFaces; f++ {
		face := f
		g.BoundaryCells(face, func(i, j, k int) {
			bc := m.bcAt(face, i, j, k)
			if bc.Kind == Adiabatic {
				return
			}
			idx := g.Index(i, j, k)
			if gTot := m.boundaryG(face, i, j, k, bc, Tsurf[idx]); gTot != 0 {
				a.Val[s.diag[idx]] += gTot
				b[idx] += gTot * bc.T
			}
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

// boundaryG is the conductance (W/K) from the centre of boundary cell
// (i,j,k) through face f to the ambient of a non-adiabatic bc, with
// radiation linearised about surface temperature Ts.  It is 0 when the
// film coefficient is not positive: the face then exchanges no heat.
func (m *Model) boundaryG(f mesh.Face, i, j, k int, bc BC, Ts float64) float64 {
	g := m.Grid
	area := g.FaceArea(f, i, j, k)
	mat := m.matAt(i, j, k)
	rCond := 0.5 * cellExtent(g, f, i, j, k) / (kDir(mat, faceAxis(f)) * area)
	if bc.Kind == FixedT {
		return 1 / rCond
	}
	h := bc.H
	if bc.Kind == ConvectionRadiation {
		eps := bc.Emiss
		if eps == 0 {
			eps = mat.Emiss
		}
		h += eps * units.StefanBoltzmann * (Ts*Ts + bc.T*bc.T) * (Ts + bc.T)
	}
	if h <= 0 {
		return 0
	}
	return 1 / (rCond + 1/(h*area))
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
		if gTot := m.boundaryG(f, i, j, k, bc, res.T[idx]); gTot != 0 {
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
// are linearised about the previous step's field.
func (m *Model) SolveTransient(T0 float64, opts *TransientOptions) (*Result, error) {
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

	sp := obs.Start(o.Span, "thermal.SolveTransient")
	defer sp.End()
	sp.AttrInt("cells", n)
	sp.AttrInt("steps", opts.Steps)

	w := o.workerCount()
	res := &Result{g: g}
	setup := m.solverSetup()
	st := &stencil{m: m}
	rhs := make([]float64, n)
	t := 0.0
	for step := 0; step < opts.Steps; step++ {
		a, b := st.assembleObs(T, sp)
		st.addCapacity(a, b, capDt, T, rhs)
		a.SetWorkers(w)
		Tn, stats, err := m.linSolve(a, rhs, T, &o, setup, sp)
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
