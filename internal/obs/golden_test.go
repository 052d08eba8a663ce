package obs_test

import (
	"context"
	"testing"

	"aeropack/internal/cosee"
	"aeropack/internal/obs"
	"aeropack/internal/robust"
)

// TestObsGoldenFig10SpanTree pins the span tree produced by a fixed,
// serial Fig. 10 sweep.  The tree depends only on the computation —
// sweep length and the solver call graph — never on timing, so any
// change here is a real change to the instrumented control flow and
// should be reviewed (then reflected in DESIGN.md "Observability").
//
// The test swaps the process-global tracer, so it must not run in
// parallel with other tests.
func TestObsGoldenFig10SpanTree(t *testing.T) {
	run := func() string {
		tr := obs.NewTrace()
		prev := obs.SetTracer(tr)
		defer obs.SetTracer(prev)
		cfg := cosee.Config{UseLHP: true}
		if _, _, err := cfg.Sweep(context.Background(), []float64{20, 60}, robust.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		return tr.TreeString()
	}
	got := run()
	want := "cosee.Sweep\n" +
		"  cosee.Solve\n" +
		"    thermal.Network.SolveSteady\n" +
		"  cosee.Solve\n" +
		"    thermal.Network.SolveSteady\n"
	if got != want {
		t.Errorf("span tree changed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if again := run(); again != got {
		t.Errorf("span tree not deterministic:\n--- first ---\n%s--- second ---\n%s", got, again)
	}
}

// TestObsGoldenCapabilityMetrics runs a capability with a fresh registry
// and checks the cross-package metric contract of the network solve
// (see the DESIGN.md metric-name table): a capability is one COSEE
// solve, the pinned network's, which factors its network once per
// Picard pass, at most 10 times, and no network reaches an iterative
// solver, so the CG and residual metrics stay empty.
func TestObsGoldenCapabilityMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	prev := obs.SetDefault(reg)
	defer obs.SetDefault(prev)

	cfg := cosee.Config{UseLHP: true}
	if _, err := cfg.CapabilityAt(context.Background(), 60); err != nil {
		t.Fatal(err)
	}
	if solves := reg.Counter("cosee_solves_total").Value(); solves != 1 {
		t.Errorf("cosee_solves_total = %d, want 1 (one pinned solve)", solves)
	}
	if f := reg.Counter("thermal_network_factorizations_total").Value(); f < 1 || f > 10 {
		t.Errorf("thermal_network_factorizations_total = %d, want 1 to 10 (one factorization per Picard pass)", f)
	}
	if cg := reg.Counter("linalg_cg_solves_total").Value(); cg != 0 {
		t.Errorf("linalg_cg_solves_total = %d, want 0: networks solve directly", cg)
	}
	if n := reg.Histogram("linalg_residual", nil).Count(); n != 0 {
		t.Errorf("linalg_residual count = %d, want 0: networks solve directly", n)
	}
}
