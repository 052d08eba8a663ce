package thermal

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"aeropack/internal/linalg"
	"aeropack/internal/robust"
	"aeropack/internal/units"
)

// rcNetwork builds the canonical single-RC warm-up problem.
func rcNetwork(c, r, power, Tamb float64) *Network {
	n := NewNetwork()
	n.SetCapacitance("mass", c)
	n.AddResistor("mass", "amb", r)
	n.AddSource("mass", power)
	n.FixT("amb", Tamb)
	return n
}

func TestTransientRCAnalytic(t *testing.T) {
	// T(t) = Tamb + P·R·(1 − e^{−t/RC}); check at t = τ and t = 5τ.
	const (
		c, r, p, Tamb = 200.0, 2.0, 10.0, 300.0
	)
	tau := c * r
	n := rcNetwork(c, r, p, Tamb)
	dt := tau / 200
	res, err := n.SolveTransient(context.Background(), Tamb, dt, 1200, nil)
	if err != nil {
		t.Fatal(err)
	}
	atTau, err := res.At("mass", tau)
	if err != nil {
		t.Fatal(err)
	}
	want := Tamb + p*r*(1-math.Exp(-1))
	if !units.ApproxEqual(atTau, want, 0.01) {
		t.Errorf("T(τ) = %v, want %v", atTau, want)
	}
	final := res.Final()["mass"]
	if !units.ApproxEqual(final, Tamb+p*r, 0.01) {
		t.Errorf("steady limit = %v, want %v", final, Tamb+p*r)
	}
}

func TestTransientMatchesSteady(t *testing.T) {
	// A two-node chain with capacitances must converge to SolveSteady.
	n := NewNetwork()
	n.SetCapacitance("a", 50)
	n.SetCapacitance("b", 80)
	n.AddResistor("a", "b", 1.5)
	n.AddResistor("b", "amb", 2.5)
	n.AddSource("a", 6)
	n.FixT("amb", 295)
	steady, err := n.SolveSteady(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := n.SolveTransient(context.Background(), 295, 5, 2000, nil)
	if err != nil {
		t.Fatal(err)
	}
	fin := tr.Final()
	if !units.ApproxEqual(fin["a"], nodeT(t, steady, "a"), 1e-3) {
		t.Errorf("node a: transient %v vs steady %v", fin["a"], nodeT(t, steady, "a"))
	}
	if !units.ApproxEqual(fin["b"], nodeT(t, steady, "b"), 1e-3) {
		t.Errorf("node b: transient %v vs steady %v", fin["b"], nodeT(t, steady, "b"))
	}
}

func TestTransientMasslessNodesQuasiSteady(t *testing.T) {
	// A massless mid node must track its divider position at every step.
	n := NewNetwork()
	n.SetCapacitance("box", 100)
	n.AddResistor("box", "mid", 1)
	n.AddResistor("mid", "amb", 1)
	n.AddSource("box", 4)
	n.FixT("amb", 300)
	res, err := n.SolveTransient(context.Background(), 300, 2, 300, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, tm := range res.Times {
		box := res.T["box"][i]
		mid := res.T["mid"][i]
		want := 300 + (box-300)/2 + 0*tm
		if math.Abs(mid-want) > 1e-6*(1+math.Abs(want)) {
			t.Fatalf("massless node off divider at t=%v: %v vs %v", tm, mid, want)
		}
	}
}

func TestTransientMonotoneWarmup(t *testing.T) {
	n := rcNetwork(100, 1, 5, 300)
	res, err := n.SolveTransient(context.Background(), 300, 1, 500, nil)
	if err != nil {
		t.Fatal(err)
	}
	hist := res.T["mass"]
	for i := 1; i < len(hist); i++ {
		if hist[i] < hist[i-1]-1e-12 {
			t.Fatal("warm-up must be monotone")
		}
	}
}

func TestTransientScheduledAmbient(t *testing.T) {
	// Thermal-shock style: ambient ramps −45 → +55 °C at 5 °C/min; the
	// mass lags behind the ramp.
	n := NewNetwork()
	n.SetCapacitance("unit", 500)
	n.AddResistor("unit", "chamber", 0.8)
	n.FixT("chamber", units.CToK(-45))
	rate := 5.0 / 60 // K/s
	sched := map[string]func(float64) float64{
		"chamber": func(tm float64) float64 {
			T := units.CToK(-45) + rate*tm
			return math.Min(T, units.CToK(55))
		},
	}
	res, err := n.SolveTransient(context.Background(), units.CToK(-45), 5, 600, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Without schedule: nothing happens.
	if math.Abs(res.Final()["unit"]-units.CToK(-45)) > 1e-6 {
		t.Error("unscheduled chamber should stay cold")
	}
	res, err = n.SolveTransient(context.Background(), units.CToK(-45), 5, 600, sched)
	if err != nil {
		t.Fatal(err)
	}
	// At the end (3000 s) the chamber has finished its 1200 s ramp and the
	// unit must be near +55 °C but always lagging the chamber on the way.
	for i, tm := range res.Times {
		unit := res.T["unit"][i]
		chamber := sched["chamber"](tm)
		if unit > chamber+1e-9 {
			t.Fatalf("unit leads the chamber at t=%v", tm)
		}
	}
	if got := res.Final()["unit"]; !units.ApproxEqual(got, units.CToK(55), 0.01) {
		t.Errorf("final unit T = %v, want ≈328", got)
	}
	// Crossing time of 0 °C is strictly after the chamber's own crossing
	// (900 s into the ramp).
	tc, err := res.TimeToReach("unit", units.CToK(0))
	if err != nil {
		t.Fatal(err)
	}
	if tc <= 540 {
		t.Errorf("unit crossed 0 °C at %v s, should lag the chamber's 540 s", tc)
	}
}

func TestTransientVariableResistor(t *testing.T) {
	// A natural-convection film during warm-up: must still converge to the
	// nonlinear steady state.
	n := NewNetwork()
	n.SetCapacitance("plate", 150)
	const C = 5.0
	n.AddVariableResistor("plate", "air", 2, func(Ta, Tb, Q float64) float64 {
		dT := math.Max(0.1, Ta-Tb)
		return C / math.Pow(dT, 0.25)
	})
	n.AddSource("plate", 20)
	n.FixT("air", 300)
	res, err := n.SolveTransient(context.Background(), 300, 2, 3000, nil)
	if err != nil {
		t.Fatal(err)
	}
	dT := res.Final()["plate"] - 300
	want := math.Pow(20*C, 1/1.25)
	if !units.ApproxEqual(dT, want, 0.02) {
		t.Errorf("nonlinear steady limit %v, want %v", dT, want)
	}
}

func TestTransientErrors(t *testing.T) {
	n := rcNetwork(10, 1, 1, 300)
	if _, err := n.SolveTransient(context.Background(), 300, -1, 10, nil); err == nil {
		t.Error("negative dt should error")
	}
	if _, err := n.SolveTransient(context.Background(), 300, 1, 0, nil); err == nil {
		t.Error("zero steps should error")
	}
	empty := NewNetwork()
	if _, err := empty.SolveTransient(context.Background(), 300, 1, 10, nil); err == nil {
		t.Error("empty network should error")
	}
	noFix := NewNetwork()
	noFix.AddResistor("a", "b", 1)
	if _, err := noFix.SolveTransient(context.Background(), 300, 1, 10, nil); err == nil {
		t.Error("network without fixed node should error")
	}
	bad := NewNetwork()
	bad.SetCapacitance("x", 10)
	bad.AddVariableResistor("x", "amb", 1, func(a, b, q float64) float64 { return -1 })
	bad.FixT("amb", 300)
	if _, err := bad.SolveTransient(context.Background(), 310, 1, 5, nil); err == nil {
		t.Error("invalid variable resistance should error")
	}
}

func TestTransientResultQueries(t *testing.T) {
	n := rcNetwork(10, 1, 1, 300)
	res, err := n.SolveTransient(context.Background(), 300, 1, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.At("nope", 5); err == nil {
		t.Error("unknown node should error")
	}
	if _, err := res.TimeToReach("nope", 301); err == nil {
		t.Error("unknown node should error")
	}
	if _, err := res.TimeToReach("mass", 9999); err == nil {
		t.Error("unreachable target should error")
	}
	empty := &TransientResult{T: map[string][]float64{"x": nil}}
	if _, err := empty.At("x", 0); err == nil {
		t.Error("empty result should error")
	}
}

func TestTimeConstant(t *testing.T) {
	n := rcNetwork(200, 2, 10, 300)
	tau, err := n.TimeConstant("mass")
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(tau, 400, 1e-9) {
		t.Errorf("τ = %v, want 400", tau)
	}
	if _, err := n.TimeConstant("amb"); err == nil {
		t.Error("capacitance-less node should error")
	}
	if _, err := n.TimeConstant("nope"); err == nil {
		t.Error("unknown node should error")
	}
	lone := NewNetwork()
	lone.SetCapacitance("x", 5)
	if _, err := lone.TimeConstant("x"); err == nil {
		t.Error("unattached node should error")
	}
}

// stopAfter returns a budget that fires on its k-th poll and counts its
// polls.
// stopOnPoll returns a context whose budget fires on its k-th poll: a
// poll budget of k−1, or, for k = 1, a context canceled up front.
func stopOnPoll(k int) context.Context {
	if k == 1 {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx
	}
	return robust.WithPollBudget(context.Background(), int64(k-1))
}

// TestTransientPollsStop: the context's budget bounds a transient once
// per step, before the step's factorization.  A budget that fires on
// its k-th poll ends the transient after exactly k−1 steps, with an
// error wrapping linalg.ErrStopped.
func TestTransientPollsStop(t *testing.T) {
	for _, k := range []int{1, 3} {
		n := finNetwork(12)
		res, err := n.SolveTransient(stopOnPoll(k), 300, 1, 20, nil)
		if !errors.Is(err, linalg.ErrStopped) || res != nil {
			t.Fatalf("k=%d: result %v, err %v; want no result and an error wrapping linalg.ErrStopped", k, res, err)
		}
		if want := fmt.Sprintf("after %d steps", k-1); !strings.HasSuffix(err.Error(), want) {
			t.Errorf("k=%d: err %q; want an error ending %q", k, err, want)
		}
	}
}

// TestSteadyPollsStop is TestTransientPollsStop for SolveSteady: one
// poll before each Picard pass's factorization, so a budget that fires
// on its k-th poll ends the solve after exactly k−1 passes.  The network
// takes at least 3 passes unbudgeted, so the budget is what stops it.
func TestSteadyPollsStop(t *testing.T) {
	free, err := finNetwork(12).SolveSteady(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if free.Iterations < 3 {
		t.Fatalf("unbudgeted solve took %d passes, want ≥ 3", free.Iterations)
	}
	for _, k := range []int{1, 3} {
		n := finNetwork(12)
		res, err := n.SolveSteady(stopOnPoll(k))
		if !errors.Is(err, linalg.ErrStopped) || res != nil {
			t.Fatalf("k=%d: result %v, err %v; want no result and an error wrapping linalg.ErrStopped", k, res, err)
		}
		if want := fmt.Sprintf("after %d Picard passes", k-1); !strings.HasSuffix(err.Error(), want) {
			t.Errorf("k=%d: err %q; want an error ending %q", k, err, want)
		}
	}
}
