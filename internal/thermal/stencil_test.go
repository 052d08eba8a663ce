package thermal

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"aeropack/internal/linalg"
	"aeropack/internal/materials"
	"aeropack/internal/mesh"
	"aeropack/internal/obs"
)

// triplet is one (row, column, value) contribution to the FV operator.
type triplet struct {
	r, c int
	v    float64
}

// tripletReference builds the steady FV system the way triplet (COO)
// assembly did: a cell-by-cell loop appends each cell's +x, +y and +z
// faces as four entries, then the boundary faces XMin…ZMax add their
// diagonal terms cell by cell, G plus a radiating cell's Newton term D
// by the film formula (cellFilm).  It is the reference for the
// stencil's two-phase assembly and its film runs, and lives only in
// this test.
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
		boundaryCells(g, f, func(i, j, k int) {
			bc := m.bcAt(f, i, j, k)
			if bc.Kind == Adiabatic {
				return
			}
			idx := g.Index(i, j, k)
			ts := Tsurf[idx]
			gTot, d := m.cellFilm(f, i, j, k, bc, ts)
			add(idx, idx, gTot+d)
			b[idx] += gTot*bc.T + d*ts
		})
	}
	for _, src := range m.sources {
		vol := 0.0
		for k := src.box.K0; k < src.box.K1; k++ {
			for j := src.box.J0; j < src.box.J1; j++ {
				for i := src.box.I0; i < src.box.I1; i++ {
					vol += cellVolume(g, i, j, k)
				}
			}
		}
		for k := src.box.K0; k < src.box.K1; k++ {
			for j := src.box.J0; j < src.box.J1; j++ {
				for i := src.box.I0; i < src.box.I1; i++ {
					b[g.Index(i, j, k)] += src.power * cellVolume(g, i, j, k) / vol
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
// (isotropic aluminium, orthotropic PCB laminate) drawn per cell, each
// laminate cell painted (a model that draws no laminate is unpainted),
// one of the four BC kinds on every face, patch overrides and volume
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
	m, err := NewModel(g, []materials.Material{materials.Al6061, materials.PCB(8, 1, 0.6, 0.004)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < g.NumCells(); i++ {
		if q := rng.Intn(2); q != 0 {
			paintCell(t, m, i, q)
		}
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

// paintCell paints cell idx of m with material mat.
func paintCell(t *testing.T, m *Model, idx, mat int) {
	t.Helper()
	x, y, z := m.Grid.CellCenter(coords(m.Grid, idx))
	if n, err := m.PaintRegion(x, x, y, y, z, z, mat); n != 1 || err != nil {
		t.Fatalf("painting cell %d painted %d cells: %v", idx, n, err)
	}
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
// bit against the triplet reference on random models: the operator of
// two successive passes (the second pass must not see the first one's
// boundary terms), each model in a fresh workspace.
func TestStencilMatchesTripletReference(t *testing.T) {
	matchTripletReference(t, nil)
}

// matchTripletReference runs TestStencilMatchesTripletReference's cases,
// every model assembling in ws, or in a fresh workspace when ws is nil.
func matchTripletReference(t *testing.T, ws *workspace) {
	t.Helper()
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 300; trial++ {
		m, Tsurf := randomStencilModel(t, rng)
		n := m.Grid.NumCells()
		st := newStencil(m, ws)
		for pass := 0; pass < 2; pass++ {
			_, b := st.assemble(Tsurf)
			ts, refB := tripletReference(m, Tsurf)
			sameSystem(t, "steady", st.csr(Tsurf), csrFromTriplets(n, ts), b, refB)
			for i := range Tsurf {
				Tsurf[i] += 25 * rng.Float64()
			}
		}
	}
}

// TestMIC0BuildsUnshiftedOnRandomModels pins why a painted model's
// pass needs no fallback preconditioner: on 2,000 random grounded
// painted models, half of them on a silicon/mold-compound table (k 148
// against 0.9 W/m·K), each assembled at its random field, stencil.prec
// builds MIC(0) without a single diagonal shift.
func TestMIC0BuildsUnshiftedOnRandomModels(t *testing.T) {
	reg := obs.NewRegistry()
	prev := obs.SetDefault(reg)
	defer obs.SetDefault(prev)
	rng := rand.New(rand.NewSource(33))
	chip := []materials.Material{materials.Silicon, materials.MoldCompound}
	for built := 0; built < 2000; {
		m, Tsurf := randomStencilModel(t, rng)
		if built%2 == 1 {
			m.Mats = chip
		}
		st := newStencil(m, nil)
		if st.kron != nil {
			continue
		}
		st.assemble(Tsurf)
		if !st.grounded {
			continue
		}
		if _, err := st.prec(); err != nil {
			g := m.Grid
			t.Fatalf("model %d, %d×%d×%d cells, %s: %v", built, g.Nx, g.Ny, g.Nz, m.Mats[0].Name, err)
		}
		built++
	}
	if n := reg.Counter("linalg_ic0_shifted_total").Value(); n != 0 {
		t.Errorf("linalg_ic0_shifted_total = %d, want 0", n)
	}
}

// reuseModels returns the two models TestStencilWorkspaceReuse solves:
// an 80×80×2 conduction board, the largest level-2 grid, which one CG
// iteration under fast diagonalization solves, and a small graded
// two-material plate with a radiating face, which takes several Newton
// passes under MIC(0).
func reuseModels(t *testing.T) (large, small *Model) {
	t.Helper()
	g, err := mesh.Uniform(80, 80, 2, 0.2, 0.16, 0.0016)
	if err != nil {
		t.Fatal(err)
	}
	large, err = NewModel(g, []materials.Material{materials.PCB(6, 1, 0.5, 0.0016)})
	if err != nil {
		t.Fatal(err)
	}
	large.SetFaceBC(mesh.ZMin, BC{Kind: Convection, T: 300, H: 30})
	large.AddVolumeSource(0.02, 0.06, 0.03, 0.07, 0, 0.0016, 8)
	large.AddVolumeSource(0.12, 0.15, 0.09, 0.14, 0, 0.0016, 3)

	g, err = mesh.FromEdges(mesh.GradedEdges(0.1, 7, 1.3), mesh.GradedEdges(0.08, 5, 0.8), mesh.GradedEdges(0.004, 3, 1.5))
	if err != nil {
		t.Fatal(err)
	}
	small, err = NewModel(g, []materials.Material{materials.Al6061, materials.PCB(8, 1, 0.6, 0.004)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < g.NumCells(); i += 2 {
		paintCell(t, small, i, 1)
	}
	small.SetFaceBC(mesh.ZMax, BC{Kind: ConvectionRadiation, T: 290, H: 4, Emiss: 0.8})
	small.SetFaceBC(mesh.XMin, BC{Kind: FixedT, T: 310})
	small.AddVolumeSource(0.03, 0.07, 0.02, 0.06, 0, 0.004, 12)
	return large, small
}

// sameField fails unless got equals want bit for bit.
func sameField(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d cells, want %d", what, len(got), len(want))
		return
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s: T[%d] = %v, first solve %v", what, i, got[i], want[i])
			return
		}
	}
}

// drainFree empties the workspace free list, so the next solve runs in
// a fresh workspace, and returns what it held.
func drainFree() []*workspace {
	var held []*workspace
	for {
		select {
		case ws := <-free:
			held = append(held, ws)
		default:
			return held
		}
	}
}

// TestStencilWorkspaceReuse checks that a solve in a workspace an
// earlier model left behind, larger or smaller, separable or not, gives
// the field a fresh workspace gives, bit for bit.  In sequence, each
// solve must find the workspace the last one gave back: the 80×80×2
// board's holds its boundary diagonal, right-hand side, CG's vectors
// and its fast diagonalization, whose arrays a smaller radiating board
// takes over, and no CSR.  Concurrently, 2×GOMAXPROCS goroutines take
// and give back workspaces (the race detector watches the sharing), and
// the list keeps at most its capacity.  A warm solve of the
// non-radiating board allocates its answer and no linearization field.
// At the assembly level, the triplet-reference cases run in a workspace
// an 80×80×2 model's CSR grew.
func TestStencilWorkspaceReuse(t *testing.T) {
	large, small := reuseModels(t)
	g, err := mesh.Uniform(30, 24, 2, 0.12, 0.09, 0.0016)
	if err != nil {
		t.Fatal(err)
	}
	board, err := NewModel(g, []materials.Material{materials.PCB(4, 1, 0.5, 0.0016)})
	if err != nil {
		t.Fatal(err)
	}
	film := BC{Kind: ConvectionRadiation, T: 295, H: 4}
	board.SetFaceBC(mesh.ZMin, film)
	board.SetFaceBC(mesh.ZMax, film)
	board.AddVolumeSource(0.03, 0.06, 0.02, 0.05, 0, 0.0016, 6)

	solve := func(m *Model) []float64 {
		res, err := m.SolveSteady(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res.T
	}
	cases := []struct {
		name string
		m    *Model
		want []float64
	}{{"large", large, nil}, {"board", board, nil}, {"small", small, nil}}
	for i := range cases {
		drainFree()
		cases[i].want = solve(cases[i].m)
	}

	drainFree()
	sameField(t, "large, fresh workspace", solve(large), cases[0].want)
	held := drainFree()
	if len(held) != 1 {
		t.Fatalf("the large solve gave back %d workspaces, want 1", len(held))
	}
	ws, n := held[0], large.Grid.NumCells()
	if cap(ws.bnd) < n || cap(ws.b) < n || cap(ws.cg) < 3*n || ws.fdm == nil {
		t.Fatal("the large solve gave back a workspace without its arrays or its fast diagonalization")
	}
	if ws.val != nil {
		t.Fatal("the large board, which runs on its KronSum, laid out a CSR")
	}
	free <- ws
	for _, c := range []int{1, 2, 0, 0} {
		sameField(t, cases[c].name+" after the last solve", solve(cases[c].m), cases[c].want)
		if held := drainFree(); len(held) != 1 || held[0] != ws {
			t.Fatalf("the %s solve did not reuse the workspace", cases[c].name)
		}
		free <- ws
	}

	t.Run("no linearization field", func(t *testing.T) {
		solve(large)
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			solve(large)
		}
		runtime.ReadMemStats(&after)
		perSolve := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("warm solve of the non-radiating board: %d B, its answer %d B", perSolve, 8*n)
		// The answer is 8n bytes; a linearization field would be 8n more.
		if limit := uint64(12 * n); perSolve > limit {
			t.Errorf("a warm solve of the non-radiating board allocated %d B, limit %d (its answer is %d B)", perSolve, limit, 8*n)
		}
	})

	t.Run("one field per radiating solve", func(t *testing.T) {
		solve(board)
		nb := board.Grid.NumCells()
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			solve(board)
		}
		runtime.ReadMemStats(&after)
		perSolve := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("warm solve of the radiating board: %d B, its answer %d B", perSolve, 8*nb)
		// Its passes write the answer over one array and keep the
		// linearization field in the workspace, so a solve allocates its
		// answer, 8n bytes, and about 5 KB of axes and factors; one more
		// n-float array, or one per pass, passes 16n.
		if limit := uint64(16 * nb); perSolve > limit {
			t.Errorf("a warm solve of the radiating board allocated %d B, limit %d (its answer is %d B)", perSolve, limit, 8*nb)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		var wg sync.WaitGroup
		for w := 0; w < 2*runtime.GOMAXPROCS(0); w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					c := cases[(w+i)%len(cases)]
					res, err := c.m.SolveSteady(context.Background())
					if err != nil {
						t.Error(err)
						return
					}
					sameField(t, c.name+" concurrent", res.T, c.want)
				}
			}()
		}
		wg.Wait()
		if held := drainFree(); len(held) == 0 || len(held) > cap(free) {
			t.Errorf("the free list kept %d workspaces, want 1 to %d", len(held), cap(free))
		}
	})

	t.Run("assembly", func(t *testing.T) {
		grown := new(workspace)
		st := newStencil(large, grown)
		st.csr(make([]float64, large.Grid.NumCells()))
		matchTripletReference(t, grown)
		if &grown.val[0] != &st.a.Val[0] {
			t.Error("the reference cases grew the workspace past the 80×80×2 model's")
		}
	})
}

// TestBoundaryGDerivative checks the film formula's Newton term D
// (cellFilm, through radFilm) against max(0, dG/dTs·(Ts − Ta)), with
// dG/dTs a central difference of its G, to 1e-6 relative, on every
// boundary cell of a graded plate: radiating films with and without
// convection, the emissivity from the BC and from the cell material,
// and the surface below, at and above ambient (where D is 0 at and
// below it).  A face that does not radiate has D = 0.
func TestBoundaryGDerivative(t *testing.T) {
	g, err := mesh.FromEdges(mesh.GradedEdges(0.12, 5, 1.3), mesh.GradedEdges(0.09, 4, 0.8), mesh.GradedEdges(0.0024, 2, 1.5))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(g, []materials.Material{materials.PCB(8, 1, 0.6, 0.0024)})
	if err != nil {
		t.Fatal(err)
	}
	const ta, step = 290.0, 1e-2
	for _, bc := range []BC{
		{Kind: ConvectionRadiation, T: ta},
		{Kind: ConvectionRadiation, T: ta, H: 10},
		{Kind: ConvectionRadiation, T: ta, Emiss: 0.05},
		{Kind: ConvectionRadiation, T: ta, H: 4, Emiss: 0.9},
	} {
		for f := mesh.XMin; f < mesh.NumFaces; f++ {
			boundaryCells(g, f, func(i, j, k int) {
				for _, ts := range []float64{220, ta, 291, 420} {
					_, d := m.cellFilm(f, i, j, k, bc, ts)
					hi, _ := m.cellFilm(f, i, j, k, bc, ts+step)
					lo, _ := m.cellFilm(f, i, j, k, bc, ts-step)
					dG := (hi - lo) / (2 * step)
					want := max(0, dG*(ts-bc.T))
					if !(dG > 0) || math.Abs(d-want) > 1e-6*want {
						t.Fatalf("%+v, face %v cell (%d,%d,%d), Ts %v K: D %v, central difference %v", bc, f, i, j, k, ts, d, want)
					}
				}
			})
		}
	}
	for _, bc := range []BC{{Kind: FixedT, T: ta}, {Kind: Convection, T: ta, H: 25}} {
		if G, d := m.cellFilm(mesh.ZMax, 0, 0, 1, bc, 350); !(G > 0) || d != 0 {
			t.Errorf("%+v: G %v, D %v, want G > 0 and D = 0", bc, G, d)
		}
	}
}
