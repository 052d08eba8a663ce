package thermal

import (
	"context"
	"math"
	"testing"
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

// TestCompiledNetworkSolvesAtGivenSources: a compiled network solved at
// given source powers is, bit for bit, the network carrying those
// sources solved directly — its own sources are not read — its result
// reads a node by name without allocating, and a power vector of the
// wrong length or with a non-finite entry is an error.
func TestCompiledNetworkSolvesAtGivenSources(t *testing.T) {
	ctx := context.Background()
	c, err := finNetwork(5).Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{3, 10} {
		got, err := c.SolveSteady(ctx, []float64{p, 0, 0}) // chip, plate, amb
		if err != nil {
			t.Fatal(err)
		}
		want, err := finNetwork(p).SolveSteady(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for id := range want.T {
			if math.Float64bits(got.T[id]) != math.Float64bits(want.T[id]) {
				t.Errorf("%g W: node %d at %v, want %v", p, id, got.T[id], want.T[id])
			}
		}
		for i := range want.Flow {
			if math.Float64bits(got.Flow[i]) != math.Float64bits(want.Flow[i]) {
				t.Errorf("%g W: flow %d = %v, want %v", p, i, got.Flow[i], want.Flow[i])
			}
		}
		if chip, ok := got.At("chip"); !ok || chip != got.T[0] || got.Iterations != want.Iterations {
			t.Errorf("%g W: At(chip) = %v, %t and %d passes; want %v, true and %d", p, chip, ok, got.Iterations, got.T[0], want.Iterations)
		}
		if _, ok := got.At("nowhere"); ok {
			t.Error("At found a node the network does not have")
		}
		if a := testing.AllocsPerRun(100, func() { got.At("plate") }); a != 0 {
			t.Errorf("At allocates %v times per call, want 0", a)
		}
	}
	for _, tc := range []struct {
		power []float64
		want  string
	}{
		{[]float64{1, 0}, "thermal: 2 source powers for a network of 3 nodes"},
		{[]float64{math.NaN(), 0, 0}, `thermal: node "chip" has non-finite source NaN W`},
		{[]float64{1, math.Inf(-1), 0}, `thermal: node "plate" has non-finite source -Inf W`},
	} {
		if _, err := c.SolveSteady(ctx, tc.power); err == nil || err.Error() != tc.want {
			t.Errorf("power %v: err %v, want %q", tc.power, err, tc.want)
		}
	}
}
