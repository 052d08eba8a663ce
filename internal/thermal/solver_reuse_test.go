package thermal

import (
	"context"
	"math"
	"testing"

	"aeropack/internal/units"
)

// finNetwork is a small conduction chain with one flow-dependent
// resistor, so steady solves take several Picard passes.
func finNetwork(power float64) *Network {
	n := NewNetwork()
	n.SetCapacitance("chip", 20)
	n.SetCapacitance("plate", 120)
	n.AddResistor("chip", "plate", 0.8)
	if err := n.AddVariableResistor("plate", "amb", 1.5, func(Ta, Tb, Q float64) float64 {
		// Convective film whose resistance drops gently with drive.
		return 1.5 / (1 + 0.02*math.Abs(Ta-Tb))
	}); err != nil {
		panic(err)
	}
	n.AddSource("chip", power)
	n.FixT("amb", 300)
	return n
}

// The transient stepper compiles the network once per call — the LDLᵀ
// order and fill pattern, the right-hand side and the output field — and
// each step assembles into that storage, factors and solves in place.
// Pin the marginal allocation count per step at 2, so a step that
// assembles or factors into fresh storage (tens of allocations) fails.
func TestTransientPerStepAllocationsPinned(t *testing.T) {
	n := rcNetwork(200, 2, 10, 300)
	n.SetCapacitance("fin", 40)
	n.AddResistor("mass", "fin", 0.7)
	n.AddResistor("fin", "amb", 1.1)
	run := func(steps int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := n.SolveTransient(context.Background(), 300, 1, steps, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	perStep := (run(250) - run(50)) / 200
	t.Logf("marginal allocations per transient step: %.2f", perStep)
	if perStep > 2 {
		t.Errorf("transient stepper allocates %.2f per step, budget 2 — is a step assembling or factoring into fresh storage again?", perStep)
	}
}

// Warm-started steady solves must (a) reproduce the cold-start solution
// and (b) converge in fewer Picard passes when continuing from a nearby
// operating point — the property the capability bisection leans on.
func TestSolveSteadyWarmMatchesColdWithFewerPasses(t *testing.T) {
	cold10, err := finNetwork(10).SolveSteadyTol(context.Background(), 1e-4, 60)
	if err != nil {
		t.Fatal(err)
	}
	warm := &NetworkState{}
	if _, err := finNetwork(9.5).SolveSteadyWarm(context.Background(), 1e-4, 60, warm); err != nil {
		t.Fatal(err)
	}
	warm10, err := finNetwork(10).SolveSteadyWarm(context.Background(), 1e-4, 60, warm)
	if err != nil {
		t.Fatal(err)
	}
	for name, Tc := range cold10.T {
		if !units.ApproxEqual(warm10.T[name], Tc, 1e-3) {
			t.Errorf("node %s: warm %v vs cold %v", name, warm10.T[name], Tc)
		}
	}
	if warm10.Iterations >= cold10.Iterations {
		t.Errorf("warm start took %d passes, cold start %d — state not being reused", warm10.Iterations, cold10.Iterations)
	}
	// An incompatible state (different topology) must be ignored, not
	// corrupt the solve.
	stale := &NetworkState{T: []float64{1, 2}, Rs: []float64{3}}
	res, err := finNetwork(10).SolveSteadyWarm(context.Background(), 1e-4, 60, stale)
	if err != nil {
		t.Fatal(err)
	}
	for name, Tc := range cold10.T {
		if !units.ApproxEqual(res.T[name], Tc, 1e-3) {
			t.Errorf("node %s after stale warm state: %v vs %v", name, res.T[name], Tc)
		}
	}
}
