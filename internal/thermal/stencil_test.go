package thermal

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"aeropack/internal/linalg"
	"aeropack/internal/materials"
	"aeropack/internal/mesh"
)

// triplet is one (row, column, value) contribution to the FV operator.
type triplet struct {
	r, c int
	v    float64
}

// tripletReference builds the steady FV system the way triplet (COO)
// assembly did: a cell-by-cell loop appends each cell's +x, +y and +z
// faces as four entries, then the boundary faces XMin…ZMax add their
// diagonal terms.  It is the reference for the stencil's two-phase
// assembly and lives only in this test.
func tripletReference(m *Model, Tsurf []float64) ([]triplet, []float64) {
	g := m.Grid
	var ts []triplet
	add := func(r, c int, v float64) {
		if v != 0 {
			ts = append(ts, triplet{r, c, v})
		}
	}
	pair := func(a, b int, gf float64) {
		add(a, a, gf)
		add(b, b, gf)
		add(a, b, -gf)
		add(b, a, -gf)
	}
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				idx := g.Index(i, j, k)
				if i+1 < g.Nx {
					pair(idx, g.Index(i+1, j, k), faceConductance(g.DY(j)*g.DZ(k),
						g.DX(i), kDir(m.matAt(i, j, k), 0), g.DX(i+1), kDir(m.matAt(i+1, j, k), 0)))
				}
				if j+1 < g.Ny {
					pair(idx, g.Index(i, j+1, k), faceConductance(g.DX(i)*g.DZ(k),
						g.DY(j), kDir(m.matAt(i, j, k), 1), g.DY(j+1), kDir(m.matAt(i, j+1, k), 1)))
				}
				if k+1 < g.Nz {
					pair(idx, g.Index(i, j, k+1), faceConductance(g.DX(i)*g.DY(j),
						g.DZ(k), kDir(m.matAt(i, j, k), 2), g.DZ(k+1), kDir(m.matAt(i, j, k+1), 2)))
				}
			}
		}
	}
	b := make([]float64, g.NumCells())
	for f := mesh.XMin; f < mesh.NumFaces; f++ {
		g.BoundaryCells(f, func(i, j, k int) {
			bc := m.bcAt(f, i, j, k)
			if bc.Kind == Adiabatic {
				return
			}
			idx := g.Index(i, j, k)
			gTot := m.boundaryG(f, i, j, k, bc, Tsurf[idx])
			add(idx, idx, gTot)
			b[idx] += gTot * bc.T
		})
	}
	for _, src := range m.sources {
		vol := 0.0
		for k := src.box.K0; k < src.box.K1; k++ {
			for j := src.box.J0; j < src.box.J1; j++ {
				for i := src.box.I0; i < src.box.I1; i++ {
					vol += g.CellVolume(i, j, k)
				}
			}
		}
		for k := src.box.K0; k < src.box.K1; k++ {
			for j := src.box.J0; j < src.box.J1; j++ {
				for i := src.box.I0; i < src.box.I1; i++ {
					b[g.Index(i, j, k)] += src.power * g.CellVolume(i, j, k) / vol
				}
			}
		}
	}
	return ts, b
}

// csrFromTriplets is COO-to-CSR conversion made deterministic: a stable
// sort by (row, column), duplicates summed in insertion order, exact
// zeros dropped.
func csrFromTriplets(n int, ts []triplet) *linalg.CSR {
	sort.SliceStable(ts, func(a, b int) bool {
		if ts[a].r != ts[b].r {
			return ts[a].r < ts[b].r
		}
		return ts[a].c < ts[b].c
	})
	a := &linalg.CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	for p := 0; p < len(ts); {
		t := ts[p]
		v := t.v
		for p++; p < len(ts) && ts[p].r == t.r && ts[p].c == t.c; p++ {
			v += ts[p].v
		}
		if v == 0 {
			continue
		}
		a.ColIdx = append(a.ColIdx, t.c)
		a.Val = append(a.Val, v)
		a.RowPtr[t.r+1]++
	}
	for i := 0; i < n; i++ {
		a.RowPtr[i+1] += a.RowPtr[i]
	}
	return a
}

// randomStencilModel draws a model over a random graded grid with 1–6
// cells per axis (often one axis a single cell thick), two materials
// (isotropic aluminium, orthotropic PCB laminate) painted per cell, one
// of the four BC kinds on every face, patch overrides and volume
// sources.  It also returns a random surface-temperature field.
func randomStencilModel(t *testing.T, rng *rand.Rand) (*Model, []float64) {
	t.Helper()
	n := [3]int{1 + rng.Intn(6), 1 + rng.Intn(6), 1 + rng.Intn(6)}
	if rng.Intn(3) == 0 {
		n[rng.Intn(3)] = 1
	}
	edges := func(cells int, l float64) []float64 {
		e := make([]float64, cells+1)
		for i := 1; i <= cells; i++ {
			e[i] = e[i-1] + l*(0.5+rng.Float64())/float64(cells)
		}
		return e
	}
	g, err := mesh.FromEdges(edges(n[0], 0.1), edges(n[1], 0.08), edges(n[2], 0.004))
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.MatIdx {
		g.MatIdx[i] = rng.Intn(2)
	}
	m, err := NewModel(g, []materials.Material{materials.Al6061, materials.PCB(8, 1, 0.6, 0.004)})
	if err != nil {
		t.Fatal(err)
	}
	kinds := []BCKind{Adiabatic, FixedT, Convection, ConvectionRadiation}
	randBC := func() BC {
		bc := BC{Kind: kinds[rng.Intn(len(kinds))], T: 280 + 40*rng.Float64(), H: 1 + 50*rng.Float64()}
		if rng.Intn(2) == 0 {
			bc.Emiss = 0.1 + 0.8*rng.Float64() // else the cell material's
		}
		return bc
	}
	for f := mesh.XMin; f < mesh.NumFaces; f++ {
		m.SetFaceBC(f, randBC())
	}
	lx, ly, lz := g.XEdges[n[0]], g.YEdges[n[1]], g.ZEdges[n[2]]
	span := func(l float64) (float64, float64) {
		a, b := l*rng.Float64(), l*rng.Float64()
		return min(a, b), max(a, b) + 0.2*l
	}
	for p := rng.Intn(4); p > 0; p-- {
		x0, x1 := span(lx)
		y0, y1 := span(ly)
		z0, z1 := span(lz)
		m.AddPatchBC(mesh.Face(rng.Intn(int(mesh.NumFaces))), x0, x1, y0, y1, z0, z1, randBC())
	}
	if g.NumCells() == 1 {
		// A lone cell has no interior face: pin one boundary so its
		// operator is not the empty (singular) matrix.
		m.AddPatchBC(mesh.Face(rng.Intn(int(mesh.NumFaces))), 0, lx, 0, ly, 0, lz, BC{Kind: FixedT, T: 300})
	}
	for s := rng.Intn(4); s > 0; s-- {
		x0, x1 := span(lx)
		y0, y1 := span(ly)
		z0, z1 := span(lz)
		m.AddVolumeSource(x0, x1, y0, y1, z0, z1, 1+10*rng.Float64())
	}
	Tsurf := make([]float64, g.NumCells())
	for i := range Tsurf {
		Tsurf[i] = 270 + 150*rng.Float64()
	}
	return m, Tsurf
}

// sameSystem fails unless (a, b) equals the reference bit for bit.
func sameSystem(t *testing.T, what string, a, ref *linalg.CSR, b, refB []float64) {
	t.Helper()
	if !slices.Equal(a.RowPtr, ref.RowPtr) || !slices.Equal(a.ColIdx, ref.ColIdx) {
		t.Fatalf("%s: pattern differs from the triplet reference (nnz %d vs %d)", what, len(a.ColIdx), len(ref.ColIdx))
	}
	for i := range ref.Val {
		if math.Float64bits(a.Val[i]) != math.Float64bits(ref.Val[i]) {
			t.Fatalf("%s: Val[%d] = %v, reference %v", what, i, a.Val[i], ref.Val[i])
		}
	}
	for i := range refB {
		if math.Float64bits(b[i]) != math.Float64bits(refB[i]) {
			t.Fatalf("%s: rhs[%d] = %v, reference %v", what, i, b[i], refB[i])
		}
	}
}

// TestStencilMatchesTripletReference pins the two-phase assembly bit for
// bit against the triplet reference on random models: the steady
// operator of two successive passes (the second pass must not see the
// first one's boundary terms) and the transient step operator.
func TestStencilMatchesTripletReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		m, Tsurf := randomStencilModel(t, rng)
		n := m.Grid.NumCells()
		st := &stencil{m: m}
		for pass := 0; pass < 2; pass++ {
			a, b := st.assemble(Tsurf)
			ts, refB := tripletReference(m, Tsurf)
			sameSystem(t, "steady", a, csrFromTriplets(n, ts), b, refB)

			// Transient: the reference appends C/dt after each row of
			// the steady reference operator.
			capDt := make([]float64, n)
			T := make([]float64, n)
			for i := range capDt {
				capDt[i] = 1e3 * rng.Float64()
				T[i] = 280 + 40*rng.Float64()
			}
			ref := csrFromTriplets(n, ts)
			var tts []triplet
			refRHS := make([]float64, n)
			for i := 0; i < n; i++ {
				for p := ref.RowPtr[i]; p < ref.RowPtr[i+1]; p++ {
					tts = append(tts, triplet{i, ref.ColIdx[p], ref.Val[p]})
				}
				tts = append(tts, triplet{i, i, capDt[i]})
				refRHS[i] = refB[i] + capDt[i]*T[i]
			}
			rhs := make([]float64, n)
			st.addCapacity(a, b, capDt, T, rhs)
			sameSystem(t, "transient", a, csrFromTriplets(n, tts), rhs, refRHS)

			for i := range Tsurf {
				Tsurf[i] += 25 * rng.Float64()
			}
		}
	}
}
