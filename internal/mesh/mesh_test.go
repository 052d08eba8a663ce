package mesh

import (
	"math"
	"testing"
	"testing/quick"
)

func TestUniform(t *testing.T) {
	g, err := Uniform(4, 3, 2, 0.4, 0.3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCells() != 24 {
		t.Errorf("NumCells = %d", g.NumCells())
	}
	if !approx(g.DX(0), 0.1) || !approx(g.DY(0), 0.1) || !approx(g.DZ(0), 0.1) {
		t.Errorf("cell sizes: %v %v %v", g.DX(0), g.DY(0), g.DZ(0))
	}
	if g.XEdges[g.Nx] != 0.4 || g.YEdges[g.Ny] != 0.3 || g.ZEdges[g.Nz] != 0.2 {
		t.Errorf("edges end at %v, %v, %v", g.XEdges[g.Nx], g.YEdges[g.Ny], g.ZEdges[g.Nz])
	}
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-12*(1+math.Abs(b)) }

func TestUniformErrors(t *testing.T) {
	if _, err := Uniform(0, 1, 1, 1, 1, 1); err == nil {
		t.Error("expected error for zero cells")
	}
	if _, err := Uniform(1, 1, 1, -1, 1, 1); err == nil {
		t.Error("expected error for negative extent")
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges([]float64{0, 1, 3}, []float64{0, 2}, []float64{0, 0.5, 0.75, 1})
	if err != nil {
		t.Fatal(err)
	}
	if g.Nx != 2 || g.Ny != 1 || g.Nz != 3 {
		t.Errorf("dims %d %d %d", g.Nx, g.Ny, g.Nz)
	}
	if !approx(g.DX(1), 2) || !approx(g.DZ(2), 0.25) {
		t.Error("non-uniform spacing wrong")
	}
	if _, err := FromEdges([]float64{0}, []float64{0, 1}, []float64{0, 1}); err == nil {
		t.Error("expected error for short edges")
	}
	if _, err := FromEdges([]float64{0, 0}, []float64{0, 1}, []float64{0, 1}); err == nil {
		t.Error("expected error for non-increasing edges")
	}
}

// TestIndexRoundTrip decodes random indices by the layout Index
// documents, i fastest, and checks Index maps the cell back.
func TestIndexRoundTrip(t *testing.T) {
	g, _ := Uniform(5, 4, 3, 1, 1, 1)
	f := func(raw uint32) bool {
		idx := int(raw) % g.NumCells()
		i, j, k := idx%g.Nx, idx/g.Nx%g.Ny, idx/(g.Nx*g.Ny)
		return k < g.Nz && g.Index(i, j, k) == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCellCenterAndVolume(t *testing.T) {
	g, _ := Uniform(2, 2, 2, 2, 2, 2)
	x, y, z := g.CellCenter(0, 0, 0)
	if !approx(x, 0.5) || !approx(y, 0.5) || !approx(z, 0.5) {
		t.Errorf("center %v %v %v", x, y, z)
	}
	if v := g.DX(1) * g.DY(1) * g.DZ(1); !approx(v, 1) {
		t.Errorf("volume %v", v)
	}
}

func TestVolumeSum(t *testing.T) {
	// Sum of cell volumes equals the box's volume on non-uniform grids.
	g, _ := FromEdges(
		GradedEdges(0.3, 7, 1.4),
		GradedEdges(0.2, 5, 0.7),
		[]float64{0, 0.001, 0.01, 0.1},
	)
	sum := 0.0
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				sum += g.DX(i) * g.DY(j) * g.DZ(k)
			}
		}
	}
	if total := g.XEdges[g.Nx] * g.YEdges[g.Ny] * g.ZEdges[g.Nz]; !approx(sum, total) {
		t.Errorf("cell volume sum %v vs total %v", sum, total)
	}
}

func TestLocateBox(t *testing.T) {
	g, _ := Uniform(10, 10, 1, 1, 1, 0.01)
	// A central region: centroids 0.25,0.35,…,0.75 qualify in each
	// direction (closed-interval centroid test) → 6×6 cells.
	if b := g.LocateBox(0.25, 0.75, 0.25, 0.75, 0, 0.01); b != (Box{2, 8, 2, 8, 0, 1}) || b.NumCells() != 36 {
		t.Errorf("central box %+v, %d cells, want I,J 2–8 and 36 cells", b, b.NumCells())
	}
	// Half-open style selection avoiding centroid ties.
	if b := g.LocateBox(0.2, 0.7, 0.2, 0.7, 0, 0.01); b.NumCells() != 25 {
		t.Errorf("tie-free selection located %d cells, want 25", b.NumCells())
	}
	// Miss the grid entirely.
	if b := g.LocateBox(5, 6, 5, 6, 0, 1); !b.Empty() || b.NumCells() != 0 {
		t.Errorf("box outside the grid located %+v", b)
	}
}

func TestBoxEmpty(t *testing.T) {
	var b Box
	if !b.Empty() || b.NumCells() != 0 {
		t.Error("zero box should be empty")
	}
	b = Box{I0: 0, I1: 2, J0: 0, J1: 3, K0: 0, K1: 4}
	if b.Empty() || b.NumCells() != 24 {
		t.Error("box counting broken")
	}
}

func TestFaceAreas(t *testing.T) {
	g, _ := Uniform(2, 3, 4, 0.2, 0.3, 0.4)
	if !approx(g.TotalFaceArea(XMin), 0.3*0.4) {
		t.Errorf("x face area %v", g.TotalFaceArea(XMin))
	}
	if !approx(g.TotalFaceArea(YMax), 0.2*0.4) {
		t.Errorf("y face area %v", g.TotalFaceArea(YMax))
	}
	if !approx(g.TotalFaceArea(ZMin), 0.2*0.3) {
		t.Errorf("z face area %v", g.TotalFaceArea(ZMin))
	}
	// The cells' face areas on each face, the products of their two
	// extents across its normal, sum to the total.
	for f := XMin; f < NumFaces; f++ {
		d := [3]func(int) float64{g.DX, g.DY, g.DZ}
		n := [3]int{g.Nx, g.Ny, g.Nz}
		a, b := (int(f)/2+1)%3, (int(f)/2+2)%3
		sum := 0.0
		for p := 0; p < n[b]; p++ {
			for q := 0; q < n[a]; q++ {
				sum += d[a](q) * d[b](p)
			}
		}
		if !approx(sum, g.TotalFaceArea(f)) {
			t.Errorf("face %v: cell areas sum %v vs total %v", f, sum, g.TotalFaceArea(f))
		}
	}
}

func TestFaceString(t *testing.T) {
	names := map[Face]string{XMin: "x-", XMax: "x+", YMin: "y-", YMax: "y+", ZMin: "z-", ZMax: "z+"}
	for f, want := range names {
		if f.String() != want {
			t.Errorf("Face %d string %q", f, f.String())
		}
	}
	if Face(99).String() != "Face(99)" {
		t.Error("unknown face string")
	}
}

func TestGradedEdges(t *testing.T) {
	e := GradedEdges(1.0, 8, 1.5)
	if len(e) != 9 || e[0] != 0 || !approx(e[8], 1.0) {
		t.Fatalf("edges %v", e)
	}
	// Strictly increasing, widths growing by ratio 1.5.
	for i := 1; i < len(e); i++ {
		if e[i] <= e[i-1] {
			t.Fatal("edges not increasing")
		}
	}
	w0 := e[1] - e[0]
	w1 := e[2] - e[1]
	if !approx(w1/w0, 1.5) {
		t.Errorf("growth ratio %v", w1/w0)
	}
	// Degenerate parameters fall back safely.
	e = GradedEdges(1, 0, -1)
	if len(e) != 2 || !approx(e[1], 1) {
		t.Errorf("degenerate edges %v", e)
	}
}

func TestGradedEdgesProperty(t *testing.T) {
	// Property (testing/quick): for any sane (l, n, ratio) the edges span
	// exactly [0, l], strictly increasing.
	f := func(rawL, rawRatio float64, rawN uint8) bool {
		if math.IsNaN(rawL) || math.IsNaN(rawRatio) {
			return true
		}
		l := 0.01 + math.Abs(math.Mod(rawL, 10))
		// Keep ratio^n within float precision of the running sum — the
		// refinement range actually used for boundary-layer grading.
		ratio := 0.5 + math.Abs(math.Mod(rawRatio, 1.5))
		n := int(rawN%20) + 1
		e := GradedEdges(l, n, ratio)
		if len(e) != n+1 || e[0] != 0 {
			return false
		}
		for i := 1; i < len(e); i++ {
			if e[i] <= e[i-1] {
				return false
			}
		}
		return math.Abs(e[n]-l) < 1e-12*l+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
