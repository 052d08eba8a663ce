package thermal

import (
	"context"
	"math/rand"
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

// TestFDMAxesMatchStencil pins the derived axes to the assembled operator:
// on single-material models over random graded grids (single-cell axes
// included), with every boundary kind on every face, the Kronecker sum of
// the axes times a random vector equals the CSR's product.  The surface
// temperature is uniform, so a radiating face's film is the same at
// every cell and its face mean is exact too.
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
		if !m.separable() {
			t.Fatal("single-material model without patches is not separable")
		}
		Tsurf := make([]float64, g.NumCells())
		for i := range Tsurf {
			Tsurf[i] = 330
		}
		a, _ := (&stencil{m: m}).assemble(Tsurf)
		x := make([]float64, g.NumCells())
		for i := range x {
			x[i] = 2*rng.Float64() - 1
		}
		want := a.MulVec(x, nil)
		got := kronSumMulVec(m.fdmAxes(Tsurf), x)
		diff := make([]float64, len(x))
		for i := range diff {
			diff[i] = got[i] - want[i]
		}
		if e := linalg.Norm2(diff) / linalg.Norm2(want); e > 1e-13 {
			t.Errorf("trial %d, grid %v: Kronecker sum differs from the stencil by %.3g relative", trial, n, e)
		}
	}
}

// TestNonSeparableModelsStayOnMIC0 checks the default-solver rule: a
// two-material model and a patched model are not Kronecker sums, so
// they resolve to "cg-mic0" — bit for bit the explicit solve — and
// naming "cg-fdm" for them is an error.
func TestNonSeparableModelsStayOnMIC0(t *testing.T) {
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
	twoMat := build()
	twoMat.Grid.PaintRegion(0, 0.05, 0, 0.08, 0, 0.006, 1)
	patched := build()
	patched.AddPatchBC(mesh.ZMax, 0, 0.04, 0, 0.08, 0, 0.006, BC{Kind: FixedT, T: 305})
	for name, m := range map[string]*Model{"two-material": twoMat, "patched": patched} {
		def, err := m.SolveSteady(context.Background(), nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mic, err := m.SolveSteady(context.Background(), &SolveOptions{Solver: "cg-mic0"})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if def.Iterations != mic.Iterations {
			t.Errorf("%s: default took %d iterations, cg-mic0 %d", name, def.Iterations, mic.Iterations)
		}
		for i := range def.T {
			if def.T[i] != mic.T[i] {
				t.Fatalf("%s: cell %d: default %v, cg-mic0 %v (must be bitwise identical)", name, i, def.T[i], mic.T[i])
			}
		}
		if _, err := m.SolveSteady(context.Background(), &SolveOptions{Solver: "cg-fdm"}); err == nil || !strings.Contains(err.Error(), "cg-fdm") {
			t.Errorf("%s: cg-fdm err = %v, want a refusal naming the solver", name, err)
		}
	}
	if _, err := build().SolveTransient(context.Background(), 300, &TransientOptions{SolveOptions: SolveOptions{Solver: "cg-fdm"}, Dt: 1, Steps: 1}); err == nil || !strings.Contains(err.Error(), "steady solves only") {
		t.Errorf("transient cg-fdm err = %v, want a steady-only refusal", err)
	}
}

// TestFDMDegradesToMIC0 checks the degrade: with no face exchanging heat
// the fast-diagonalization build fails (the constant mode is singular),
// and the pass runs on MIC(0) instead — bit for bit the explicit solve —
// with the event counted.
func TestFDMDegradesToMIC0(t *testing.T) {
	reg := obs.NewRegistry()
	prev := obs.SetDefault(reg)
	defer obs.SetDefault(prev)
	g, err := mesh.Uniform(6, 5, 2, 0.06, 0.05, 0.004)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(g, []materials.Material{materials.Al6061})
	if err != nil {
		t.Fatal(err)
	}
	def, err := m.SolveSteady(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	mic, err := m.SolveSteady(context.Background(), &SolveOptions{Solver: "cg-mic0"})
	if err != nil {
		t.Fatal(err)
	}
	for i := range def.T {
		if def.T[i] != mic.T[i] {
			t.Fatalf("cell %d: degraded %v, cg-mic0 %v", i, def.T[i], mic.T[i])
		}
	}
	if got := reg.Counter("thermal_fdm_degraded_total").Value(); got != 1 {
		t.Errorf("thermal_fdm_degraded_total = %d, want 1 (one solve, one pass)", got)
	}
}
