package thermal

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"aeropack/internal/linalg"
	"aeropack/internal/materials"
	"aeropack/internal/mesh"
	"aeropack/internal/obs"
	"aeropack/internal/robust"
)

func obsTestModel(t *testing.T) *Model {
	t.Helper()
	return plateModel(t, 8, 8, 2)
}

// plateModel is a convection-cooled plate of nx·ny·nz cells with a
// central heat source.
func plateModel(t *testing.T, nx, ny, nz int) *Model {
	t.Helper()
	g, err := mesh.Uniform(nx, ny, nz, 0.08, 0.08, 0.004)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(g, []materials.Material{materials.Al6061})
	if err != nil {
		t.Fatal(err)
	}
	m.SetFaceBC(mesh.ZMin, BC{Kind: Convection, T: 300, H: 50})
	m.AddVolumeSource(0.02, 0.06, 0.02, 0.06, 0, 0.004, 5)
	return m
}

// mic0Twin returns the painted twin of a plateModel: the same operator
// with material 0 painted over the whole box, so every pass is
// preconditioned by MIC(0) instead of fast diagonalization.
func mic0Twin(t *testing.T, nx, ny, nz int) *Model {
	t.Helper()
	m := plateModel(t, nx, ny, nz)
	paintAll(t, m)
	return m
}

// paintAll paints material 0 over every cell of m, so m runs on the
// assembled CSR under MIC(0) with the operator it had unpainted.
func paintAll(t *testing.T, m *Model) {
	t.Helper()
	g := m.Grid
	if n, err := m.PaintRegion(g.XEdges[0], g.XEdges[g.Nx], g.YEdges[0], g.YEdges[g.Ny], g.ZEdges[0], g.ZEdges[g.Nz], 0); n != g.NumCells() || err != nil {
		t.Fatalf("whole-box paint covered %d of %d cells: %v", n, g.NumCells(), err)
	}
}

// TestSolveErrorSurfacesIterStats pins the error contract added for the
// telemetry work: a failed linear solve must name the preconditioned
// method and carry the iteration count and final residual, so a failure
// is diagnosable from the message alone.  The thermal prefix must not
// repeat the figures the wrapped error already carries — the old format
// printed the residual twice, once per layer.  Nothing retries the
// failed solve, so the message has one solver layer.  A poll budget of
// 2 stops the MIC(0) plate's one pass on its third CG iteration, well
// short of convergence.
func TestSolveErrorSurfacesIterStats(t *testing.T) {
	m := mic0Twin(t, 16, 16, 3)
	_, err := m.SolveSteady(robust.WithPollBudget(context.Background(), 2))
	if !errors.Is(err, linalg.ErrStopped) {
		t.Fatalf("err = %v, want a stop on the third CG iteration", err)
	}
	msg := err.Error()
	format := regexp.MustCompile(`^thermal: cg-mic0 solve failed: linalg: CG solve stopped by budget callback after 3 iterations \(residual [0-9.e+-]+\)$`)
	if !format.MatchString(msg) {
		t.Errorf("error %q does not match the deduped format %v", msg, format)
	}
	for _, figure := range []string{"iterations", "residual"} {
		if got := strings.Count(msg, figure); got != 1 {
			t.Errorf("error %q mentions %q %d times, want exactly 1", msg, figure, got)
		}
	}
}

// TestSteadySingularIsError: a plate with every face adiabatic and a
// 5 W source has no steady state, so SolveSteady returns an error
// before any linear solve, whichever preconditioner the plate would
// get.
func TestSteadySingularIsError(t *testing.T) {
	for _, n := range [][3]int{{8, 8, 2}, {16, 16, 3}, {40, 40, 4}} {
		m := plateModel(t, n[0], n[1], n[2])
		m.SetFaceBC(mesh.ZMin, BC{})
		res, err := m.SolveSteady(context.Background())
		if err == nil {
			t.Errorf("%v plate: solved to a %.3g K maximum, want the singular-problem error", n, res.Max())
		} else if !strings.Contains(err.Error(), "steady problem is singular") {
			t.Errorf("%v plate: err %v, want the singular-problem error", n, err)
		}
	}
}

// TestMIC0BuildFailureIsError: a matrix MIC(0) cannot factor even
// through the shift ladder (a negative diagonal) is linSolve's error,
// naming the preconditioner and the breakdown, and no CG solve runs.
func TestMIC0BuildFailureIsError(t *testing.T) {
	reg := obs.NewRegistry()
	prev := obs.SetDefault(reg)
	defer obs.SetDefault(prev)

	a := &linalg.CSR{Rows: 3, Cols: 3, RowPtr: []int{0, 1, 2, 3}, ColIdx: []int{0, 1, 2}, Val: []float64{-2, 1, 1}}
	st := &stencil{a: *a, ws: new(workspace)}
	x, _, err := linSolve(context.Background(), a, []float64{1, 1, 1}, nil, st)
	const want = "thermal: mic0 preconditioner: linalg: IC(0) breakdown persists through shift ladder: "
	if err == nil || !strings.HasPrefix(err.Error(), want) || x != nil {
		t.Errorf("linSolve = %v, %v; want no field and an error starting %q", x, err, want)
	}
	if n := reg.Counter("linalg_cg_solves_total").Value(); n != 0 {
		t.Errorf("linalg_cg_solves_total = %d, want 0: a failed build runs no CG", n)
	}
}

// spanAttrs returns the attributes of every span of tr named name, in
// creation order.
func spanAttrs(t *testing.T, tr *obs.Trace, name string) []map[string]string {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	var out []map[string]string
	for _, ev := range file.TraceEvents {
		if ev.Name == name {
			out = append(out, ev.Args)
		}
	}
	return out
}

// TestSolveSteadySpans checks the solver's span taxonomy: a steady solve
// under an enabled tracer records thermal.SolveSteady with one
// thermal.assemble + thermal.linSolve child pair per outer pass, each
// assemble span carrying the 7-point pattern's entry count, and the
// SolveSteady span carries the passes run and, on a radiating plate,
// the last pass's largest update delta_k, under picardTolK.
func TestSolveSteadySpans(t *testing.T) {
	linear := obsTestModel(t)
	radiating := obsTestModel(t)
	radiating.SetFaceBC(mesh.ZMax, BC{Kind: ConvectionRadiation, T: 300, H: 5, Emiss: 0.8})
	for name, m := range map[string]*Model{"linear": linear, "radiating": radiating} {
		tr := obs.NewTrace()
		prev := obs.SetTracer(tr)
		res, err := m.SolveSteady(context.Background())
		obs.SetTracer(prev)
		if err != nil {
			t.Fatal(err)
		}
		want := "thermal.SolveSteady\n" + strings.Repeat("  thermal.assemble\n  thermal.linSolve\n", res.OuterIterations)
		if got := tr.TreeString(); got != want {
			t.Errorf("%s: span tree = \n%s\nwant\n%s", name, got, want)
		}
		a, _, _ := m.System()
		for _, at := range spanAttrs(t, tr, "thermal.assemble") {
			if at["nnz"] != strconv.Itoa(a.NNZ()) {
				t.Errorf("%s: thermal.assemble nnz %q, want the CSR's %d", name, at["nnz"], a.NNZ())
			}
		}
		attrs := spanAttrs(t, tr, "thermal.SolveSteady")
		if len(attrs) != 1 || attrs[0]["passes"] != strconv.Itoa(res.OuterIterations) {
			t.Fatalf("%s: thermal.SolveSteady attributes %v, want passes %d", name, attrs, res.OuterIterations)
		}
		delta, hasDelta := attrs[0]["delta_k"]
		if m == linear {
			if hasDelta || res.OuterIterations != 1 {
				t.Errorf("linear: %d passes, delta_k %q, want 1 pass and no delta_k", res.OuterIterations, delta)
			}
			continue
		}
		if d, err := strconv.ParseFloat(delta, 64); err != nil || !(d < picardTolK) || res.OuterIterations < 2 {
			t.Errorf("radiating: %d passes, delta_k %q, want ≥ 2 passes and a last update under %v K", res.OuterIterations, delta, picardTolK)
		}
	}
}

// TestSolveMetrics checks the registry side of a steady solve: matrix
// nnz gauge, assembly-, preconditioner-setup- and Krylov-time
// histograms and the linalg solve counters all land under their
// canonical names.  The plate is separable, so it builds no CSR, and
// the gauge still reports its 7-point pattern's entry count.
func TestSolveMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	prev := obs.SetDefault(reg)
	defer obs.SetDefault(prev)

	m := obsTestModel(t)
	res, err := m.SolveSteady(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	a, _, _ := m.System()
	if nnz := reg.Gauge("thermal_matrix_nnz").Value(); nnz != float64(a.NNZ()) {
		t.Errorf("thermal_matrix_nnz = %g, want the CSR's %d", nnz, a.NNZ())
	}
	if n := reg.Histogram("thermal_assembly_seconds", nil).Count(); n != 1 {
		t.Errorf("thermal_assembly_seconds count = %d, want 1", n)
	}
	if n := reg.Counter("linalg_cg_solves_total").Value(); n != 1 {
		t.Errorf("linalg_cg_solves_total = %d, want 1", n)
	}
	for _, name := range []string{"linalg_prec_setup_seconds", "linalg_krylov_seconds"} {
		if n := reg.Histogram(name, nil).Count(); n != 1 {
			t.Errorf("%s count = %d, want 1", name, n)
		}
	}
	if iters := reg.Counter("linalg_solver_iterations_total").Value(); iters != int64(res.Iterations) {
		t.Errorf("linalg_solver_iterations_total = %d, want %d", iters, res.Iterations)
	}
}
