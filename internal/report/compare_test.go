package report

import (
	"math"
	"strings"
	"testing"
)

func benchSet(entries ...BenchEntry) *BenchSet {
	return &BenchSet{Schema: "aeropack-bench/v1", Benchmarks: entries}
}

func entry(name string, procs int, ns float64, metrics map[string]float64) BenchEntry {
	return BenchEntry{Name: name, Procs: procs, Iterations: 100, NsPerOp: ns, Metrics: metrics}
}

func TestCompareIdenticalSetsPass(t *testing.T) {
	s := benchSet(
		entry("Solve", 8, 1e6, map[string]float64{"B/op": 4096, "allocs/op": 12, "solver_iters/op": 40}),
		entry("Lint", 8, 5e5, map[string]float64{"B/op": 1024, "allocs/op": 3}),
	)
	rep := CompareBenchSets(s, s, DefaultCompareOptions())
	if !rep.OK() {
		t.Fatalf("self-compare regressed: %s", rep)
	}
	if rep.Compared != 2 {
		t.Fatalf("Compared = %d, want 2", rep.Compared)
	}
	if !strings.Contains(rep.String(), "OK: no regressions") {
		t.Fatalf("report = %q", rep.String())
	}
}

func TestCompareCatchesSyntheticTwentyPercentRegression(t *testing.T) {
	// The ISSUE acceptance case: a 20 % ns/op slowdown (above the 10 %
	// threshold and the MinNs floor) must exit the watchdog non-OK.
	old := benchSet(entry("Fig10", 8, 1000, nil))
	cand := benchSet(entry("Fig10", 8, 1200, nil))
	rep := CompareBenchSets(old, cand, DefaultCompareOptions())
	if rep.OK() {
		t.Fatal("20% ns/op regression passed the watchdog")
	}
	if len(rep.Regressions) != 1 {
		t.Fatalf("regressions = %+v", rep.Regressions)
	}
	r := rep.Regressions[0]
	if r.Name != "Fig10-8" || r.Unit != "ns/op" || math.Abs(r.Ratio-1.2) > 1e-9 {
		t.Fatalf("regression = %+v", r)
	}
	if !strings.Contains(rep.String(), "REGRESSION: Fig10-8 ns/op") {
		t.Fatalf("report = %q", rep.String())
	}
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	old := benchSet(entry("Solve", 1, 1000, map[string]float64{"B/op": 100, "allocs/op": 10}))
	cand := benchSet(entry("Solve", 1, 1090, map[string]float64{"B/op": 120, "allocs/op": 10}))
	rep := CompareBenchSets(old, cand, DefaultCompareOptions())
	if !rep.OK() {
		t.Fatalf("within-threshold drift regressed: %s", rep)
	}
}

func TestCompareAllocRegression(t *testing.T) {
	old := benchSet(entry("Hot", 1, 1000, map[string]float64{"allocs/op": 10}))
	cand := benchSet(entry("Hot", 1, 1000, map[string]float64{"allocs/op": 12}))
	rep := CompareBenchSets(old, cand, DefaultCompareOptions())
	if rep.OK() || rep.Regressions[0].Unit != "allocs/op" {
		t.Fatalf("20%% allocs/op growth not caught: %+v", rep.Regressions)
	}
}

func TestCompareZeroToNonzeroAllocsRegresses(t *testing.T) {
	// An allocation appearing on a previously allocation-free path is
	// the canonical silent tax on the solver hot loop.
	old := benchSet(entry("Disabled", 1, 0.5, map[string]float64{"allocs/op": 0}))
	cand := benchSet(entry("Disabled", 1, 0.5, map[string]float64{"allocs/op": 1}))
	rep := CompareBenchSets(old, cand, DefaultCompareOptions())
	if rep.OK() {
		t.Fatal("zero-to-nonzero allocs passed")
	}
	if !math.IsInf(rep.Regressions[0].Ratio, 1) {
		t.Fatalf("ratio = %g, want +Inf", rep.Regressions[0].Ratio)
	}
}

func TestCompareMinNsFloorSkipsGuardBenches(t *testing.T) {
	// The ≤1 ns disabled-path guards jitter by whole multiples while
	// staying inside budget; the ratio watchdog must not flag them.
	old := benchSet(entry("ObsDisabled", 8, 0.4, nil))
	cand := benchSet(entry("ObsDisabled", 8, 0.9, nil)) // 2.25x but both < 5 ns
	rep := CompareBenchSets(old, cand, DefaultCompareOptions())
	if !rep.OK() {
		t.Fatalf("sub-floor ns jitter regressed: %s", rep)
	}
	// But a bench that climbs ABOVE the floor is compared.
	cand2 := benchSet(entry("ObsDisabled", 8, 50, nil))
	if rep := CompareBenchSets(old, cand2, DefaultCompareOptions()); rep.OK() {
		t.Fatal("climb above the MinNs floor not caught")
	}
}

func TestCompareAssemblyLayerGated(t *testing.T) {
	// Each FV solve layer is gated on its own, at 25 %.
	for _, unit := range []string{"assemble_ns/op", "prec_setup_ns/op", "krylov_ns/op"} {
		old := benchSet(entry("E2_Level2", 1, 1e6, map[string]float64{unit: 1e5}))
		within := benchSet(entry("E2_Level2", 1, 1e6, map[string]float64{unit: 1.2e5}))
		if rep := CompareBenchSets(old, within, DefaultCompareOptions()); !rep.OK() {
			t.Fatalf("20%% %s drift regressed: %s", unit, rep)
		}
		worse := benchSet(entry("E2_Level2", 1, 1e6, map[string]float64{unit: 1.3e5}))
		rep := CompareBenchSets(old, worse, DefaultCompareOptions())
		if rep.OK() || rep.Regressions[0].Unit != unit {
			t.Fatalf("30%% %s growth not caught: %+v", unit, rep.Regressions)
		}
	}
}

func TestCompareUncomparedUnitsIgnored(t *testing.T) {
	// Custom units (workers, log10_residual) are configuration echoes or
	// signed quality values — never ratio-compared.
	old := benchSet(entry("Par", 8, 1000, map[string]float64{"workers": 4, "log10_residual": -10}))
	cand := benchSet(entry("Par", 8, 1000, map[string]float64{"workers": 8, "log10_residual": -6}))
	rep := CompareBenchSets(old, cand, DefaultCompareOptions())
	if !rep.OK() {
		t.Fatalf("uncompared units regressed: %s", rep)
	}
}

func TestCompareMissingAndAdded(t *testing.T) {
	old := benchSet(entry("Kept", 1, 100, nil), entry("Dropped", 1, 100, nil))
	cand := benchSet(entry("Kept", 1, 100, nil), entry("Fresh", 1, 100, nil))
	rep := CompareBenchSets(old, cand, DefaultCompareOptions())
	if !rep.OK() {
		t.Fatalf("rename regressed: %s", rep)
	}
	if len(rep.Missing) != 1 || rep.Missing[0] != "Dropped" {
		t.Fatalf("Missing = %v", rep.Missing)
	}
	if len(rep.Added) != 1 || rep.Added[0] != "Fresh" {
		t.Fatalf("Added = %v", rep.Added)
	}
	out := rep.String()
	if !strings.Contains(out, "missing from candidate: Dropped") || !strings.Contains(out, "new in candidate: Fresh") {
		t.Fatalf("report = %q", out)
	}
}

func TestCompareProcsAreDistinct(t *testing.T) {
	// The same name at different GOMAXPROCS is a different measurement.
	old := benchSet(entry("Sweep", 1, 1000, nil), entry("Sweep", 8, 400, nil))
	cand := benchSet(entry("Sweep", 1, 1000, nil), entry("Sweep", 8, 600, nil))
	rep := CompareBenchSets(old, cand, DefaultCompareOptions())
	if rep.OK() || rep.Regressions[0].Name != "Sweep-8" {
		t.Fatalf("per-procs regression not isolated: %+v", rep.Regressions)
	}
}

func TestCompareMetricAbsentFromOneSideSkipped(t *testing.T) {
	// Baseline recorded without -benchmem: no B/op to compare against.
	old := benchSet(entry("Solve", 1, 1000, nil))
	cand := benchSet(entry("Solve", 1, 1000, map[string]float64{"B/op": 4096, "allocs/op": 12}))
	rep := CompareBenchSets(old, cand, DefaultCompareOptions())
	if !rep.OK() {
		t.Fatalf("one-sided metric regressed: %s", rep)
	}
}
