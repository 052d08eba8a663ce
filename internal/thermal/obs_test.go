package thermal

import (
	"bytes"
	"context"
	"encoding/json"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"aeropack/internal/linalg"
	"aeropack/internal/materials"
	"aeropack/internal/mesh"
	"aeropack/internal/obs"
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

// mic0Twin returns the non-separable twin of a plateModel: the same
// operator with the ZMin film repeated as a whole-face patch, so every
// pass is preconditioned by MIC(0) instead of fast diagonalization.
func mic0Twin(t *testing.T, nx, ny, nz int) *Model {
	t.Helper()
	m := plateModel(t, nx, ny, nz)
	m.AddPatchBC(mesh.ZMin, 0, 0.08, 0, 0.08, 0, 0.004, m.FaceBC[mesh.ZMin])
	return m
}

// TestSolveErrorSurfacesIterStats pins the error contract added for the
// telemetry work: a failed linear solve must name the preconditioned
// method and carry the iteration count and final residual, so a failure
// is diagnosable from the message alone.  The thermal prefix must not
// repeat the figures the wrapped error already carries — the old format
// printed the residual twice, once per layer.  Nothing retries the
// failed solve, so the message has one solver layer.
func TestSolveErrorSurfacesIterStats(t *testing.T) {
	m := mic0Twin(t, 16, 16, 3)
	const maxIter = 3
	_, err := m.SolveSteady(context.Background(), &SolveOptions{MaxIter: maxIter, Tol: 1e-14})
	if err == nil {
		t.Fatal("expected non-convergence with MaxIter=3")
	}
	msg := err.Error()
	format := regexp.MustCompile(`^thermal: cg-mic0 solve failed: linalg: CG did not converge in 3 iterations \(residual [0-9.e+-]+\)$`)
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
		res, err := m.SolveSteady(context.Background(), nil)
		if err == nil {
			t.Errorf("%v plate: solved to a %.3g K maximum, want the singular-problem error", n, res.Max())
		} else if !strings.Contains(err.Error(), "steady problem is singular") {
			t.Errorf("%v plate: err %v, want the singular-problem error", n, err)
		}
	}
}

// TestMIC0DegradesToJacobi: a matrix MIC(0) cannot factor even through
// the shift ladder (a negative diagonal) degrades the preconditioner to
// Jacobi, counted, recorded and marked on the span, and still solves.
// b = 0, so CG converges at once under any preconditioner.
func TestMIC0DegradesToJacobi(t *testing.T) {
	reg := obs.NewRegistry()
	prevReg := obs.SetDefault(reg)
	defer obs.SetDefault(prevReg)
	rec := obs.NewRecorder(64)
	prevRec := obs.SetRecorder(rec)
	defer obs.SetRecorder(prevRec)
	tr := obs.NewTrace()
	prevTr := obs.SetTracer(tr)
	defer obs.SetTracer(prevTr)

	a := &linalg.CSR{Rows: 3, Cols: 3, RowPtr: []int{0, 1, 2, 3}, ColIdx: []int{0, 1, 2}, Val: []float64{-2, 1, 1}}
	var o SolveOptions
	o.defaults(3)
	st := &stencil{a: *a, ws: new(workspace)}
	if _, _, err := linSolve(context.Background(), a, make([]float64, 3), nil, &o, st); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("thermal_ic0_degraded_total").Value(); got != 1 {
		t.Errorf("thermal_ic0_degraded_total = %d, want 1", got)
	}
	wantDegrade(t, rec, "mic0", "jacobi")
	if got := spanAttrs(t, tr, "thermal.linSolve"); len(got) != 1 || got[0]["prec"] != "jacobi" || got[0]["prec_degraded"] != "jacobi" {
		t.Errorf("thermal.linSolve attributes %v, want prec and prec_degraded jacobi", got)
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
		res, err := m.SolveSteady(context.Background(), nil)
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

// TestSolveOnIteration checks the convergence-callback plumbing from
// SolveOptions down to the linear solver: residuals arrive in iteration
// order and the last one is at or below the solve tolerance.
func TestSolveOnIteration(t *testing.T) {
	m := obsTestModel(t)
	var its []int
	var residuals []float64
	res, err := m.SolveSteady(context.Background(), &SolveOptions{
		Tol: 1e-9,
		OnIteration: func(it int, r float64) {
			its = append(its, it)
			residuals = append(residuals, r)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(its) == 0 {
		t.Fatal("OnIteration never fired")
	}
	if len(its) < res.Iterations {
		t.Errorf("callback fired %d times for %d iterations", len(its), res.Iterations)
	}
	for i := 1; i < len(its); i++ {
		if its[i] != its[i-1]+1 {
			t.Fatalf("iteration numbers not sequential: %v", its[:i+1])
		}
	}
	if last := residuals[len(residuals)-1]; !(last <= 1e-9) {
		t.Errorf("final residual %g, want ≤ tol 1e-9", last)
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
	res, err := m.SolveSteady(context.Background(), nil)
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
