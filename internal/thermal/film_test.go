package thermal

import (
	"math"
	"math/rand"
	"testing"

	"aeropack/internal/materials"
	"aeropack/internal/mesh"
	"aeropack/internal/units"
)

// The cell-by-cell boundary walk the films replaced, kept here as the
// tests' reference: each boundary cell resolves its own BC (later
// patches win), material, face area and thickness.

// boundaryCells invokes fn for every cell adjacent to face f, in
// mesh.Grid.Index order.
func boundaryCells(g *mesh.Grid, f mesh.Face, fn func(i, j, k int)) {
	switch f {
	case mesh.XMin, mesh.XMax:
		i := 0
		if f == mesh.XMax {
			i = g.Nx - 1
		}
		for k := 0; k < g.Nz; k++ {
			for j := 0; j < g.Ny; j++ {
				fn(i, j, k)
			}
		}
	case mesh.YMin, mesh.YMax:
		j := 0
		if f == mesh.YMax {
			j = g.Ny - 1
		}
		for k := 0; k < g.Nz; k++ {
			for i := 0; i < g.Nx; i++ {
				fn(i, j, k)
			}
		}
	default:
		k := 0
		if f == mesh.ZMax {
			k = g.Nz - 1
		}
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				fn(i, j, k)
			}
		}
	}
}

// cellFaceArea returns the area of the boundary face of cell (i,j,k)
// lying on grid face f.
func cellFaceArea(g *mesh.Grid, f mesh.Face, i, j, k int) float64 {
	switch f {
	case mesh.XMin, mesh.XMax:
		return g.DY(j) * g.DZ(k)
	case mesh.YMin, mesh.YMax:
		return g.DX(i) * g.DZ(k)
	default:
		return g.DX(i) * g.DY(j)
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

// cellVolume returns the volume of cell (i,j,k).
func cellVolume(g *mesh.Grid, i, j, k int) float64 {
	return g.DX(i) * g.DY(j) * g.DZ(k)
}

// coords inverts Grid.Index.
func coords(g *mesh.Grid, idx int) (i, j, k int) {
	return idx % g.Nx, (idx / g.Nx) % g.Ny, idx / (g.Nx * g.Ny)
}

// bcAt resolves the effective BC for boundary cell (i,j,k) on face f,
// honouring patch overrides (later patches win).
func (m *Model) bcAt(f mesh.Face, i, j, k int) BC {
	bc := m.FaceBC[f]
	for _, p := range m.patches {
		if p.face != f {
			continue
		}
		if i >= p.box.I0 && i < p.box.I1 &&
			j >= p.box.J0 && j < p.box.J1 &&
			k >= p.box.K0 && k < p.box.K1 {
			bc = p.bc
		}
	}
	return bc
}

// matAt returns the material of cell (i,j,k).
func (m *Model) matAt(i, j, k int) *materials.Material {
	if m.mat == nil {
		return &m.Mats[0]
	}
	return &m.Mats[m.mat[m.Grid.Index(i, j, k)]]
}

// boundaryG is the per-cell formula assembly used before the films:
// the conductance G (W/K) from the centre of boundary cell (i,j,k)
// through face f to the ambient of a non-adiabatic bc, with the
// radiative film taken at surface temperature Ts, and the Newton term
// D (W/K).  G = 1/(rCond + 1/(h·A)) with the film
// h = H + εσ(Ts² + Ta²)(Ts + Ta), so dG/dTs = G²·h′/(h²·A) with
// h′ = εσ(3Ts² + 2Ts·Ta + Ta²), and D = max(0, dG/dTs·(Ts − Ta)); D is 0
// unless the face radiates.  Both are 0 when the film coefficient is not
// positive: the face then exchanges no heat.
func (m *Model) boundaryG(f mesh.Face, i, j, k int, bc BC, Ts float64) (G, D float64) {
	g := m.Grid
	area := cellFaceArea(g, f, i, j, k)
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

// cellFilm is the film formula at one boundary cell of a non-adiabatic
// bc: G = A·g, or radFilm on a radiating face, with the cell's own face
// area A and film; bit for bit what films.add adds for the cell.
func (m *Model) cellFilm(f mesh.Face, i, j, k int, bc BC, Ts float64) (G, D float64) {
	g := m.Grid
	run := newFilm(bc, m.matAt(i, j, k), faceAxis(f), cellExtent(g, f, i, j, k))
	a := cellFaceArea(g, f, i, j, k)
	if run.rad {
		return radFilm(a, run.r, run.h, run.es, run.ta, Ts)
	}
	return a * run.g, 0
}

// balanceT is the energy-balance temperature of m's films.
func (m *Model) balanceT() float64 {
	var fs films
	fs.build(m)
	return fs.balanceT(m.TotalSourcePower())
}

// randomFilmModel draws one of randomStencilModel's models, unpainted
// (on its KronSum) half the time, with H = 0 on about half its
// radiating faces and patches, and up to two more patches over one
// random face, which overlap each other and often the earlier ones.
func randomFilmModel(t *testing.T, rng *rand.Rand) (*Model, []float64) {
	t.Helper()
	m, T := randomStencilModel(t, rng)
	if rng.Intn(2) == 0 {
		m.mat = nil
	}
	g := m.Grid
	lx, ly, lz := g.XEdges[g.Nx], g.YEdges[g.Ny], g.ZEdges[g.Nz]
	span := func(l float64) (float64, float64) {
		a, b := l*rng.Float64(), l*rng.Float64()
		return min(a, b), max(a, b) + 0.3*l
	}
	f := mesh.Face(rng.Intn(int(mesh.NumFaces)))
	for p := rng.Intn(3); p > 0; p-- {
		x0, x1 := span(lx)
		y0, y1 := span(ly)
		z0, z1 := span(lz)
		bc := m.FaceBC[(int(f)+p)%int(mesh.NumFaces)]
		bc.T += 10
		m.AddPatchBC(f, x0, x1, y0, y1, z0, z1, bc)
	}
	noH := func(bc *BC) {
		if bc.Kind == ConvectionRadiation && rng.Intn(2) == 0 {
			bc.H = 0
		}
	}
	for f := range m.FaceBC {
		noH(&m.FaceBC[f])
	}
	for p := range m.patches {
		noH(&m.patches[p].bc)
	}
	return m, T
}

// TestBoundaryFilmMatchesCellFormula holds the film runs to the
// per-cell formula they replaced (boundaryG, one cell at a time through
// bcAt, matAt, cellFaceArea and cellExtent) on 600 random models: every
// BC kind, radiating faces with H = 0 and with an ε override, graded
// grids, painted two-material models on the CSR and unpainted ones on
// the KronSum (and on the CSR of their painted twin), and overlapping
// patches, each assembled at a random field.  The boundary diagonal,
// the right-hand side and each face's total G + D lie within 1e-12
// relative of the formula's, and BoundaryHeatFlow within 1e-12 of the
// face's Σ |G·(Ts − Ta)|.
func TestBoundaryFilmMatchesCellFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	near := func(trial int, what string, got, want, scale float64) {
		t.Helper()
		if !(math.Abs(got-want) <= 1e-12*scale) {
			t.Fatalf("model %d: %s = %v, the per-cell formula %v (%.3g apart, scale %.3g)", trial, what, got, want, got-want, scale)
		}
	}
	kron := 0
	for trial := 0; trial < 600; trial++ {
		m, T := randomFilmModel(t, rng)
		g, n := m.Grid, m.Grid.NumCells()
		bnd, rhs := make([]float64, n), make([]float64, n)
		var faceG, heat, heatScale [mesh.NumFaces]float64
		for f := mesh.XMin; f < mesh.NumFaces; f++ {
			boundaryCells(g, f, func(i, j, k int) {
				bc := m.bcAt(f, i, j, k)
				if bc.Kind == Adiabatic {
					return
				}
				idx := g.Index(i, j, k)
				ts := T[idx]
				gc, d := m.boundaryG(f, i, j, k, bc, ts)
				bnd[idx] += gc + d
				rhs[idx] += gc*bc.T + d*ts
				faceG[f] += gc + d
				heat[f] += gc * (ts - bc.T)
				heatScale[f] += math.Abs(gc * (ts - bc.T))
			})
		}
		for _, src := range m.sources {
			vol := 0.0
			b := src.box
			for k := b.K0; k < b.K1; k++ {
				for j := b.J0; j < b.J1; j++ {
					for i := b.I0; i < b.I1; i++ {
						vol += cellVolume(g, i, j, k)
					}
				}
			}
			for k := b.K0; k < b.K1; k++ {
				for j := b.J0; j < b.J1; j++ {
					for i := b.I0; i < b.I1; i++ {
						rhs[g.Index(i, j, k)] += src.power * cellVolume(g, i, j, k) / vol
					}
				}
			}
		}

		st := newStencil(m, nil)
		_, b := st.assemble(T)
		for f := mesh.XMin; f < mesh.NumFaces; f++ {
			near(trial, "face "+f.String()+" G + D", st.faceG[f], faceG[f], math.Abs(faceG[f]))
			near(trial, "face "+f.String()+" heat flow", m.BoundaryHeatFlow(&Result{T: T, g: g}, f), heat[f], heatScale[f])
		}
		if st.kron != nil {
			kron++
			for i, d := range st.ws.bnd {
				near(trial, "KronSum boundary diagonal", d, bnd[i], bnd[i])
			}
			for i := range rhs {
				near(trial, "KronSum rhs", b[i], rhs[i], rhs[i])
			}
			st.csr(T) // the painted twin's CSR, rewriting the same right-hand side
		}
		for i, p := range st.ws.diag {
			want := st.ws.interior[i] + bnd[i]
			near(trial, "CSR diagonal", st.a.Val[p], want, want)
		}
		for i := range rhs {
			near(trial, "CSR rhs", b[i], rhs[i], rhs[i])
		}
	}
	if kron < 200 {
		t.Errorf("%d of 600 models assembled on the KronSum, want at least 200", kron)
	}
}

// TestWarmAssembleAllocatesNothing checks that a warm radiating pass
// allocates nothing: the films, the boundary diagonal, the right-hand
// side and the source spread's row of volumes live in the workspace.
// Both forms run, the free-convection E2 board on its KronSum and its
// painted twin on the CSR.
func TestWarmAssembleAllocatesNothing(t *testing.T) {
	board, twin := e2FreeConvectionBoard(t), e2FreeConvectionBoard(t)
	g := twin.Grid
	if n, err := twin.PaintRegion(0, g.XEdges[g.Nx], 0, g.YEdges[g.Ny], 0, g.ZEdges[g.Nz], 0); n != g.NumCells() || err != nil {
		t.Fatalf("whole-box paint covered %d cells: %v", n, err)
	}
	for _, m := range []*Model{board, twin} {
		st := newStencil(m, nil)
		T := make([]float64, g.NumCells())
		t0 := m.balanceT()
		for i := range T {
			T[i] = t0 + float64(i%7)
		}
		st.assemble(T)
		if a := testing.AllocsPerRun(20, func() { st.assemble(T) }); a != 0 {
			t.Errorf("a warm %s pass allocated %v times, want 0", st.kind(), a)
		}
	}
}
