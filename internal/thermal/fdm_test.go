package thermal

import (
	"context"
	"math"
	"math/rand"
	"regexp"
	"slices"
	"strings"
	"testing"

	"aeropack/internal/linalg"
	"aeropack/internal/materials"
	"aeropack/internal/mesh"
	"aeropack/internal/obs"
)

// kronSumMulVec computes y = (M_z⊗M_y⊗T_x + M_z⊗T_y⊗M_x + T_z⊗M_y⊗M_x)·x
// over cells numbered i + n_x·(j + n_y·k).
func kronSumMulVec(axes [3]linalg.Axis, x []float64) []float64 {
	nx, ny, nz := len(axes[0].Diag), len(axes[1].Diag), len(axes[2].Diag)
	stride := [3]int{1, nx, nx * ny}
	// tline is row c of axis d's T applied along d at cell q.
	tline := func(d, c, q int) float64 {
		ax, s := axes[d], stride[d]
		v := ax.Diag[c] * x[q]
		if c > 0 {
			v += ax.Off[c-1] * x[q-s]
		}
		if c+1 < len(ax.Diag) {
			v += ax.Off[c] * x[q+s]
		}
		return v
	}
	y := make([]float64, len(x))
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				q := i + nx*(j+ny*k)
				mx, my, mz := axes[0].Mass[i], axes[1].Mass[j], axes[2].Mass[k]
				y[q] = mz*my*tline(0, i, q) + mz*mx*tline(1, j, q) + my*mx*tline(2, k, q)
			}
		}
	}
	return y
}

// faceTotalWalk is the total G + D over boundary face f's cells at the
// field T, each cell's by the film formula (cellFilm), summed by a walk
// of the face cell by cell in index order: the reference for the totals
// assemble records as it adds them.
func faceTotalWalk(m *Model, f mesh.Face, T []float64) float64 {
	bc := m.FaceBC[f]
	if bc.Kind == Adiabatic {
		return 0
	}
	g := m.Grid
	total := 0.0
	boundaryCells(g, f, func(i, j, k int) {
		gc, d := m.cellFilm(f, i, j, k, bc, T[g.Index(i, j, k)])
		total += gc + d
	})
	return total
}

// TestFDMAxesMatchStencil pins a separable model's two operators to its
// assembled CSR on single-material models over random graded grids
// (single-cell axes included), with every boundary kind on every face:
// at a random field as well as a uniform one, the KronSum CG runs on
// times a random vector equals the CSR's product, and at the uniform
// one, where a radiating face's film is the same at every cell and its
// face mean is exact too, so does the Kronecker sum of the derived
// fast-diagonalization axes.  The per-face totals the axes read from
// assemble equal, bit for bit, a separate walk of each face at both
// fields.
func TestFDMAxesMatchStencil(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	kinds := []BC{
		{Kind: Adiabatic},
		{Kind: FixedT, T: 310},
		{Kind: Convection, T: 295, H: 35},
		{Kind: ConvectionRadiation, T: 290, H: 6, Emiss: 0.8},
	}
	pcb := materials.PCB(8, 1, 0.6, 2e-3)
	for trial := 0; trial < 24; trial++ {
		var n [3]int
		for d := range n {
			n[d] = 1 + rng.Intn(7)
		}
		if trial%2 == 0 {
			n[trial/2%3] = 1 // every axis is sometimes a single cell
		}
		ratio := func() float64 { return 0.7 + 0.7*rng.Float64() }
		g, err := mesh.FromEdges(mesh.GradedEdges(0.12, n[0], ratio()), mesh.GradedEdges(0.09, n[1], ratio()), mesh.GradedEdges(0.003, n[2], ratio()))
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewModel(g, []materials.Material{pcb})
		if err != nil {
			t.Fatal(err)
		}
		for f := mesh.XMin; f < mesh.NumFaces; f++ {
			m.SetFaceBC(f, kinds[(trial+int(f))%len(kinds)])
		}
		st := newStencil(m, nil)
		if st.kron == nil {
			t.Fatal("unpainted model is not separable")
		}
		Tsurf, Trand := make([]float64, g.NumCells()), make([]float64, g.NumCells())
		for i := range Tsurf {
			Tsurf[i] = 330
			Trand[i] = 280 + 100*rng.Float64()
		}
		x := make([]float64, g.NumCells())
		near := func(what string, got, want []float64) {
			t.Helper()
			diff := make([]float64, len(want))
			for i := range diff {
				diff[i] = got[i] - want[i]
			}
			if e := linalg.Norm2(diff) / linalg.Norm2(want); e > 1e-13 {
				t.Errorf("trial %d, grid %v: %s differs from the CSR by %.3g relative", trial, n, what, e)
			}
		}
		for _, T := range [][]float64{Trand, Tsurf} {
			op, _ := st.assemble(T)
			for f := mesh.XMin; f < mesh.NumFaces; f++ {
				if got, want := st.faceG[f], faceTotalWalk(m, f, T); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("trial %d, face %d: assemble recorded G + D = %v, the face walk %v", trial, f, got, want)
				}
			}
			for i := range x {
				x[i] = 2*rng.Float64() - 1
			}
			want := st.csr(T).MulVec(x, nil)
			near("the KronSum", op.MulVec(x, nil), want)
			if &T[0] == &Tsurf[0] {
				near("the FDM axes' Kronecker sum", kronSumMulVec(st.fdmAxes(), x), want)
			}
		}
	}
}

// TestPaintSelectsPreconditioner checks the preconditioner rule, whose
// one input is whether the model is painted, on a 10×8×3 plate.  A
// painted model runs every pass under MIC(0), bit for bit the direct
// MIC(0)-preconditioned CG on the assembled system, and both spans name
// it: a two-material plate, and the patched plate's painted twin
// (material 0 over the whole box).  The patched plate, one material
// with a half-face FixedT patch, is unpainted: it runs on its KronSum
// under fast diagonalization, which takes the patched face as its face
// mean, so it converges in more iterations than on an unpatched plate,
// exactly 26.  Both fields lie within 1e-6 K of the twin's 1e-13
// reference field (9.0e-7 and 6.3e-7 K), so within 2e-6 K of each
// other.
func TestPaintSelectsPreconditioner(t *testing.T) {
	build := func() *Model {
		g, err := mesh.Uniform(10, 8, 3, 0.1, 0.08, 0.006)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewModel(g, []materials.Material{materials.Al6061, materials.FR4})
		if err != nil {
			t.Fatal(err)
		}
		m.SetFaceBC(mesh.ZMin, BC{Kind: Convection, T: 300, H: 40})
		m.AddVolumeSource(0.03, 0.07, 0.02, 0.06, 0, 0.006, 6)
		return m
	}
	paint := func(m *Model, x1 float64, mat int) {
		if n, err := m.PaintRegion(0, x1, 0, 0.08, 0, 0.006, mat); n == 0 || err != nil {
			t.Fatalf("paint up to x = %v painted %d cells: %v", x1, n, err)
		}
	}
	patch := func(m *Model) *Model {
		m.AddPatchBC(mesh.ZMax, 0, 0.04, 0, 0.08, 0, 0.006, BC{Kind: FixedT, T: 305})
		return m
	}
	twoMat, patched, twin := build(), patch(build()), patch(build())
	paint(twoMat, 0.05, 1)
	paint(twin, 0.1, 0)

	solve := func(name string, m *Model, prec string) *Result {
		t.Helper()
		tr := obs.NewTrace()
		prev := obs.SetTracer(tr)
		res, err := m.SolveSteady(context.Background())
		obs.SetTracer(prev)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, span := range []string{"thermal.SolveSteady", "thermal.linSolve"} {
			if got := spanAttrs(t, tr, span); len(got) != 1 || got[0]["prec"] != prec {
				t.Errorf("%s: %s attributes %v, want prec %s", name, span, got, prec)
			}
		}
		return res
	}
	var twinRes *Result
	for _, c := range []struct {
		name string
		m    *Model
	}{{"two-material", twoMat}, {"painted twin", twin}} {
		res := solve(c.name, c.m, "mic0")
		a, b, _ := c.m.System()
		p, err := linalg.NewMICPrec(a)
		if err != nil {
			t.Fatal(err)
		}
		want, stats, err := linalg.CG(a, b, nil, p, cgTol, cgMaxIter(c.m.Grid.NumCells()))
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != stats.Iterations {
			t.Errorf("%s: solve took %d iterations, direct MIC(0) CG %d", c.name, res.Iterations, stats.Iterations)
		}
		for i := range want {
			if res.T[i] != want[i] {
				t.Fatalf("%s: cell %d: solve %v, direct MIC(0) CG %v (must be bitwise identical)", c.name, i, res.T[i], want[i])
			}
		}
		twinRes = res
	}

	res := solve("patched", patched, "fdm")
	t.Logf("half-face FixedT patch: FDM %d CG iterations, MIC(0) on the painted twin %d", res.Iterations, twinRes.Iterations)
	if res.Iterations != 26 {
		t.Errorf("patched plate took %d CG iterations under FDM, want exactly 26", res.Iterations)
	}
	ref := referenceField(t, twin, slices.Clone(twinRes.T))
	for name, field := range map[string][]float64{"patched": res.T, "painted twin": twinRes.T} {
		for i := range ref {
			if d := math.Abs(field[i] - ref[i]); d > 1e-6 {
				t.Fatalf("%s: cell %d at %v K, reference %v K (%.3g K apart)", name, i, field[i], ref[i], d)
			}
		}
	}
}

// TestFDMBuildFailureIsError checks that a failed build is the solve's
// error: with the only heat path a 1e-30 W/m²K film, the
// fast-diagonalization build fails its pivot check (the constant mode
// is all but singular: the pivot comes out negative), and the solve
// returns that error, naming the preconditioner, without running CG.
// The pass read as a CSR (csr) is still bit for bit the system of the
// model's painted twin, the same model with material 0 painted over the
// whole box.
func TestFDMBuildFailureIsError(t *testing.T) {
	reg := obs.NewRegistry()
	prevReg := obs.SetDefault(reg)
	defer obs.SetDefault(prevReg)
	tr := obs.NewTrace()
	prevTr := obs.SetTracer(tr)
	defer obs.SetTracer(prevTr)

	build := func() *Model {
		g, err := mesh.Uniform(6, 5, 2, 0.06, 0.05, 0.004)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewModel(g, []materials.Material{materials.Al6061})
		if err != nil {
			t.Fatal(err)
		}
		m.SetFaceBC(mesh.ZMin, BC{Kind: Convection, T: 0, H: 1e-30})
		return m
	}
	res, err := build().SolveSteady(context.Background())
	want := regexp.MustCompile(`^thermal: fdm preconditioner: linalg: FDM pivot -[0-9.e+-]+ of diagonal [0-9.e+]+ at cell [0-9]+ is not positive: the operator is singular to working precision$`)
	if err == nil {
		t.Fatalf("solved to a %.3g K maximum, want the fdm build error", res.Max())
	}
	if !want.MatchString(err.Error()) {
		t.Errorf("err %q does not match %v", err, want)
	}
	if n := reg.Counter("linalg_cg_solves_total").Value(); n != 0 {
		t.Errorf("linalg_cg_solves_total = %d, want 0: a failed build runs no CG", n)
	}
	if got := spanAttrs(t, tr, "thermal.linSolve"); len(got) != 1 || got[0]["prec"] != "fdm" || got[0]["iterations"] != "" {
		t.Errorf("thermal.linSolve attributes %v, want prec fdm and no iterations", got)
	}

	twin := build()
	if n, err := twin.PaintRegion(0, 0.06, 0, 0.05, 0, 0.004, 0); n != twin.Grid.NumCells() || err != nil {
		t.Fatalf("whole-box paint covered %d cells: %v", n, err)
	}
	sep, tw := newStencil(build(), nil), newStencil(twin, nil)
	if sep.kron == nil || tw.kron != nil {
		t.Fatal("the board must run on a KronSum and its twin on the CSR")
	}
	T := make([]float64, twin.Grid.NumCells())
	_, b := sep.assemble(T)
	_, twB := tw.assemble(T)
	sameSystem(t, "separable pass", sep.csr(T), tw.csr(T), b, twB)
}

// TestPatchedBoardsRunFDM checks that patches keep a one-material model
// on fast diagonalization, which takes each patched face as its face
// mean.  On 300 random grounded unpainted boards of 4–24 × 4–24 × 1–3
// cells, each with 1–8 FixedT, Convection or Adiabatic patches over
// faces whose defaults are mostly adiabatic (many boards are grounded
// only through a patch), the build never fails, CG converges within
// cgMaxIter, and the faces shed the source power to 1e-6 relative.  A
// board with no heat path is the singular-problem error.
func TestPatchedBoardsRunFDM(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	bc := func() BC {
		switch rng.Intn(3) {
		case 0:
			return BC{Kind: FixedT, T: 280 + 40*rng.Float64()}
		case 1:
			return BC{Kind: Convection, T: 280 + 40*rng.Float64(), H: 1 + 99*rng.Float64()}
		}
		return BC{}
	}
	span := func(l float64) (float64, float64) {
		a, b := l*rng.Float64(), l*rng.Float64()
		return min(a, b), max(a, b) + 0.1*l
	}
	var iters []int
	for solved := 0; solved < 300; {
		g, err := mesh.Uniform(4+rng.Intn(21), 4+rng.Intn(21), 1+rng.Intn(3), 0.05+0.15*rng.Float64(), 0.05+0.15*rng.Float64(), 0.0016)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewModel(g, []materials.Material{materials.PCB(4+rng.Intn(9), 1, 0.6, 0.0016)})
		if err != nil {
			t.Fatal(err)
		}
		for f := mesh.XMin; f < mesh.NumFaces; f++ {
			if rng.Intn(4) == 0 {
				m.SetFaceBC(f, bc())
			}
		}
		lx, ly, lz := g.XEdges[g.Nx], g.YEdges[g.Ny], g.ZEdges[g.Nz]
		for p := 1 + rng.Intn(8); p > 0; p-- {
			x0, x1 := span(lx)
			y0, y1 := span(ly)
			z0, z1 := span(lz)
			m.AddPatchBC(mesh.Face(rng.Intn(int(mesh.NumFaces))), x0, x1, y0, y1, z0, z1, bc())
		}
		x0, x1 := span(lx)
		y0, y1 := span(ly)
		if power := 1 + 10*rng.Float64(); m.AddVolumeSource(x0, x1, y0, y1, 0, lz, power) == 0 {
			m.AddVolumeSource(0, lx, 0, ly, 0, lz, power)
		}
		if !m.separable() {
			t.Fatal("a patched one-material model is not separable")
		}
		st := newStencil(m, nil)
		st.assemble(nil)
		res, err := m.SolveSteady(context.Background())
		if !st.grounded {
			if err == nil || !strings.Contains(err.Error(), "steady problem is singular") {
				t.Fatalf("board %d with no heat path: err %v, want the singular-problem error", solved, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("board %d, %d×%d×%d cells: %v", solved, g.Nx, g.Ny, g.Nz, err)
		}
		shed := 0.0
		for f := mesh.XMin; f < mesh.NumFaces; f++ {
			shed += m.BoundaryHeatFlow(res, f)
		}
		if p := m.TotalSourcePower(); math.Abs(shed-p) > 1e-6*p {
			t.Fatalf("board %d, %d×%d×%d cells: faces shed %v W of %v W", solved, g.Nx, g.Ny, g.Nz, shed, p)
		}
		iters = append(iters, res.Iterations)
		solved++
	}
	slices.Sort(iters)
	t.Logf("CG iterations under FDM over %d patched boards: p50 %d, p90 %d, max %d", len(iters), iters[len(iters)/2], iters[len(iters)*9/10], iters[len(iters)-1])
}
