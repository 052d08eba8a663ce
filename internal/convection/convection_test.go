package convection

import (
	"math"
	"testing"

	"aeropack/internal/materials"
	"aeropack/internal/units"
)

func TestNaturalVerticalPlateHandbook(t *testing.T) {
	// Classic textbook case: 0.25 m vertical plate at 70 °C in 25 °C air
	// gives h ≈ 4–6 W/m²K.
	h := NaturalVerticalPlate(0.25, units.CToK(70), units.CToK(25))
	if h < 3.5 || h > 7 {
		t.Errorf("vertical plate h = %v, want 4–6", h)
	}
}

func TestNaturalPlateOrientationOrdering(t *testing.T) {
	// Hot surface: facing up convects best, vertical next, facing down worst.
	L := 0.1
	Ts, Ta := units.CToK(80), units.CToK(20)
	up := NaturalHorizontalPlateUp(L, Ts, Ta)
	vert := NaturalVerticalPlate(L, Ts, Ta)
	down := NaturalHorizontalPlateDown(L, Ts, Ta)
	if !(up > down && vert > down) {
		t.Errorf("ordering broken: up=%v vert=%v down=%v", up, vert, down)
	}
}

func TestNaturalConvectionMonotoneInDT(t *testing.T) {
	prev := 0.0
	for dt := 5.0; dt <= 80; dt += 5 {
		h := NaturalVerticalPlate(0.2, units.CToK(20+dt), units.CToK(20))
		if h <= prev {
			t.Fatalf("h not increasing with ΔT at %v", dt)
		}
		prev = h
	}
}

func TestNaturalDegenerate(t *testing.T) {
	if NaturalVerticalPlate(0, 350, 300) != 0 {
		t.Error("zero length should give 0")
	}
	if NaturalVerticalPlate(0.1, 300, 300) != 0 {
		t.Error("zero ΔT should give 0")
	}
	if NaturalHorizontalPlateUp(-1, 350, 300) != 0 || NaturalHorizontalPlateDown(0, 350, 300) != 0 {
		t.Error("degenerate horizontal cases should give 0")
	}
}

func TestForcedFlatPlateHandbook(t *testing.T) {
	// Air at 3 m/s over a 0.1 m component at small ΔT: laminar,
	// h ≈ 15–25 W/m²K.
	h := ForcedFlatPlate(0.1, 3, units.CToK(60), units.CToK(40))
	if h < 12 || h > 30 {
		t.Errorf("forced plate h = %v, want 15–25", h)
	}
	// Turbulent branch at high velocity on a longer plate (Re ≈ 7×10⁵):
	// mixed-boundary-layer correlation gives h ≈ 20 W/m²K.
	hTurb := ForcedFlatPlate(1.0, 12, units.CToK(60), units.CToK(40))
	if hTurb < 17 || hTurb > 26 {
		t.Errorf("turbulent h = %v, want ≈20", hTurb)
	}
	if ForcedFlatPlate(0, 3, 350, 300) != 0 || ForcedFlatPlate(0.1, 0, 350, 300) != 0 {
		t.Error("degenerate forced cases should give 0")
	}
}

func TestForcedMonotoneInVelocity(t *testing.T) {
	prev := 0.0
	for v := 0.5; v <= 30; v *= 1.5 {
		h := ForcedFlatPlate(0.15, v, units.CToK(70), units.CToK(30))
		if h <= prev {
			t.Fatalf("h not increasing with V at %v (h=%v prev=%v)", v, h, prev)
		}
		prev = h
	}
}

func TestHydraulicDiameter(t *testing.T) {
	// Square duct: Dh = side.
	if got := HydraulicDiameter(0.02, 0.02); !units.ApproxEqual(got, 0.02, 1e-12) {
		t.Errorf("square duct Dh = %v", got)
	}
	// Wide channel limit: Dh → 2·gap.
	if got := HydraulicDiameter(0.005, 10); !units.ApproxEqual(got, 0.01, 0.01) {
		t.Errorf("parallel plate Dh = %v", got)
	}
	if HydraulicDiameter(0, 1) != 0 {
		t.Error("degenerate Dh should be 0")
	}
}

func TestDuctLaminarTurbulent(t *testing.T) {
	// Card channel: 5 mm gap, low velocity → laminar.
	lam, err := Duct(0.01, 0.2, 1.0, units.CToK(40))
	if err != nil {
		t.Fatal(err)
	}
	if lam.Re >= 2300 {
		t.Errorf("expected laminar, Re=%v", lam.Re)
	}
	if !units.ApproxEqual(lam.Nu, 8.23, 1e-9) {
		t.Errorf("laminar Nu = %v", lam.Nu)
	}
	// High velocity → turbulent, h larger.
	turb, err := Duct(0.01, 0.2, 15, units.CToK(40))
	if err != nil {
		t.Fatal(err)
	}
	if turb.Re < 2300 {
		t.Errorf("expected turbulent, Re=%v", turb.Re)
	}
	if turb.H <= lam.H {
		t.Error("turbulent h must exceed laminar h")
	}
	if turb.DP <= lam.DP {
		t.Error("turbulent pressure drop must exceed laminar")
	}
	if _, err := Duct(0, 1, 1, 300); err == nil {
		t.Error("bad duct params should error")
	}
}

func TestFanCurveValidation(t *testing.T) {
	if _, err := NewFanCurve([]float64{0}, []float64{100}); err == nil {
		t.Error("short curve should error")
	}
	if _, err := NewFanCurve([]float64{0, 0}, []float64{100, 50}); err == nil {
		t.Error("non-increasing flow should error")
	}
	if _, err := NewFanCurve([]float64{0, 1}, []float64{50, 100}); err == nil {
		t.Error("increasing pressure should error")
	}
}

func TestFanOperatingPoint(t *testing.T) {
	fan, err := NewFanCurve(
		[]float64{0, 0.01, 0.02, 0.03, 0.04},
		[]float64{120, 110, 85, 45, 0},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Interpolation checks.
	if got := fan.PressureAt(0); got != 120 {
		t.Errorf("shutoff pressure = %v", got)
	}
	if got := fan.PressureAt(0.015); !units.ApproxEqual(got, 97.5, 1e-9) {
		t.Errorf("interpolated pressure = %v", got)
	}
	if got := fan.PressureAt(1); got != 0 {
		t.Errorf("beyond free delivery = %v", got)
	}
	// Operating point with a quadratic system curve.
	q, dp, err := fan.OperatingPoint(1e5)
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(dp, 1e5*q*q, 1e-6) {
		t.Error("operating point not on system curve")
	}
	if !units.ApproxEqual(dp, fan.PressureAt(q), 1e-3) {
		t.Error("operating point not on fan curve")
	}
	if q <= 0 || q >= 0.04 {
		t.Errorf("operating flow %v out of plausible band", q)
	}
	// Unrestrictive system: free delivery.
	qf, _, err := fan.OperatingPoint(0)
	if err != nil || !units.ApproxEqual(qf, 0.04, 1e-9) {
		t.Errorf("free delivery flow = %v (%v)", qf, err)
	}
	if _, _, err := fan.OperatingPoint(-1); err == nil {
		t.Error("negative system coefficient should error")
	}
}

func TestARINCMassFlow(t *testing.T) {
	// 1 kW equipment → 220 kg/h = 0.0611 kg/s.
	got := ARINCMassFlow(1000)
	if !units.ApproxEqual(got, 220.0/3600, 1e-9) {
		t.Errorf("ARINC flow = %v", got)
	}
	// Scaling is linear in power.
	if !units.ApproxEqual(ARINCMassFlow(500), got/2, 1e-9) {
		t.Error("ARINC flow should scale with power")
	}
}

func TestAirTempRise(t *testing.T) {
	// 1 kW into ARINC 600 flow: ΔT = P/(ṁcp) ≈ 1000/(0.0611·1006) ≈ 16 K —
	// the design logic behind the 220 kg/h/kW allocation.
	mdot := ARINCMassFlow(1000)
	dt := AirTempRise(1000, mdot, units.CToK(30))
	if dt < 13 || dt > 19 {
		t.Errorf("ARINC air temperature rise = %v, want ≈16 K", dt)
	}
	if !math.IsInf(AirTempRise(100, 0, 300), 1) {
		t.Error("zero flow should give infinite rise")
	}
}

func TestRequiredH(t *testing.T) {
	// The paper's hot-spot arithmetic: 100 W/cm² = 1e6 W/m² at 60 K ΔT
	// needs h ≈ 16,700 W/m²K — far beyond air cooling (~100 W/m²K max).
	h := RequiredH(units.WPerCm2(100), 60)
	if !units.ApproxEqual(h, 1e6/60, 1e-9) {
		t.Errorf("required h = %v", h)
	}
	if h < 10000 {
		t.Error("hot spot must demand h ≫ air-cooling capability")
	}
	if !math.IsInf(RequiredH(1, 0), 1) {
		t.Error("zero ΔT needs infinite h")
	}
}

func TestMaxAirCoolableFluxIsFarBelowHotSpot(t *testing.T) {
	// Even aggressive forced air (10 m/s) over a 2 cm die at 60 K ΔT
	// handles only a few W/cm² — an order of magnitude below the paper's
	// 100 W/cm² hot-spot requirement.
	flux := MaxAirCoolableFlux(0.02, 10, units.CToK(85), units.CToK(25))
	fluxCm2 := units.ToWPerCm2(flux)
	if fluxCm2 > 10 {
		t.Errorf("air cooling capability %v W/cm² should be <10", fluxCm2)
	}
	if fluxCm2 < 0.2 {
		t.Errorf("air cooling capability %v W/cm² implausibly low", fluxCm2)
	}
}

func TestChannelVelocity(t *testing.T) {
	// ARINC flow for 100 W through a 100×10 mm card channel.
	mdot := ARINCMassFlow(100)
	v := ChannelVelocity(mdot, 0.1*0.01, units.CToK(30))
	if v <= 0 || v > 20 {
		t.Errorf("channel velocity = %v", v)
	}
	if ChannelVelocity(1, 0, 300) != 0 {
		t.Error("zero area should give 0")
	}
}

func TestNaturalHorizontalCylinder(t *testing.T) {
	// 40 mm rod at 60 °C in 25 °C air: h ≈ 5–8 W/m²K.
	h := NaturalHorizontalCylinder(0.04, units.CToK(60), units.CToK(25))
	if h < 4 || h > 10 {
		t.Errorf("cylinder h = %v, want 5–8", h)
	}
	if NaturalHorizontalCylinder(0, 330, 300) != 0 {
		t.Error("zero diameter should give 0")
	}
	if NaturalHorizontalCylinder(0.04, 300, 300) != 0 {
		t.Error("zero ΔT should give 0")
	}
	// Thinner cylinders have higher h (boundary-layer curvature).
	thin := NaturalHorizontalCylinder(0.01, units.CToK(60), units.CToK(25))
	if thin <= h {
		t.Error("thin cylinder should have higher h")
	}
}

func TestEnclosureVertical(t *testing.T) {
	// Narrow gap: conduction regime, h = k/l exactly.
	hNarrow := EnclosureVertical(0.002, 0.2, units.CToK(60), units.CToK(30))
	air := materials.Air(units.CToK(45), units.AtmPressure)
	if !units.ApproxEqual(hNarrow, air.K/0.002, 0.01) {
		t.Errorf("narrow gap h = %v, want conduction %v", hNarrow, air.K/0.002)
	}
	// Wide gap: convection augments (Nu > 1) so h exceeds pure conduction
	// for the same gap.
	hWide := EnclosureVertical(0.03, 0.3, units.CToK(60), units.CToK(30))
	if hWide <= air.K/0.03 {
		t.Errorf("wide gap h = %v should exceed conduction %v", hWide, air.K/0.03)
	}
	if EnclosureVertical(0, 1, 330, 300) != 0 {
		t.Error("degenerate gap should give 0")
	}
}

// TestEnclosureVerticalContinuous walks the sealed box's 10 mm by 80 mm
// gap from ΔT 0.01 to 20 K in 0.01 K steps, across Ra = 1000: no step
// may move h by more than 1 %.  A jump (Nu 1 → 1.26 where the
// correlation used to switch on at Ra 1000) leaves a network solve
// through the gap with no fixed point, and its Picard loop cycles.
func TestEnclosureVerticalContinuous(t *testing.T) {
	const l, h, tc = 0.01, 0.08, 330.0
	if lo, _ := rayleigh(l, tc+0.01, tc); lo >= 1000 {
		t.Fatalf("walk starts at Ra %v, want below 1000", lo)
	}
	if hi, _ := rayleigh(l, tc+20, tc); hi <= 1000 {
		t.Fatalf("walk ends at Ra %v, want above 1000", hi)
	}
	prev := EnclosureVertical(l, h, tc+0.01, tc)
	for i := 2; i <= 2000; i++ {
		dT := 0.01 * float64(i)
		got := EnclosureVertical(l, h, tc+dT, tc)
		if math.Abs(got-prev) > 0.01*prev {
			ra, _ := rayleigh(l, tc+dT, tc)
			t.Fatalf("h jumps from %v to %v W/m²K at ΔT %.2f K (Ra %.0f)", prev, got, dT, ra)
		}
		prev = got
	}
}

func TestPinFinArray(t *testing.T) {
	// 60 aluminium pins, 3 mm × 15 mm, 5 m/s: ≈1 W/K of fin conductance —
	// the clip-on heatsink class used in the hot-spot screens.
	g, err := PinFinArray(60, 3e-3, 15e-3, 167, 5, units.CToK(50))
	if err != nil {
		t.Fatal(err)
	}
	if g < 0.4 || g > 5 {
		t.Errorf("pin-fin conductance = %v W/K, want ≈1", g)
	}
	// More velocity → more conductance.
	g2, _ := PinFinArray(60, 3e-3, 15e-3, 167, 10, units.CToK(50))
	if g2 <= g {
		t.Error("conductance must grow with velocity")
	}
	// Copper beats aluminium through fin efficiency.
	gCu, _ := PinFinArray(60, 3e-3, 15e-3, 398, 5, units.CToK(50))
	if gCu <= g {
		t.Error("copper pins should beat aluminium")
	}
	if _, err := PinFinArray(0, 3e-3, 15e-3, 167, 5, 300); err == nil {
		t.Error("zero fins should error")
	}
}

// refNaturalVerticalPlate is NaturalVerticalPlate with its square taken
// by math.Pow; the product form must match it bit for bit.
func refNaturalVerticalPlate(L, Ts, Tamb float64) float64 {
	if L <= 0 {
		return 0
	}
	ra, air := rayleigh(L, Ts, Tamb)
	if ra <= 0 {
		return 0
	}
	pr := air.Pr
	den := math.Pow(1+math.Pow(0.492/pr, 9.0/16.0), 8.0/27.0)
	nu := math.Pow(0.825+0.387*math.Pow(ra, 1.0/6.0)/den, 2)
	return nu * air.K / L
}

func TestNaturalVerticalPlateMatchesReference(t *testing.T) {
	for _, L := range []float64{0, 0.005, 0.1, 0.7, 3} {
		for _, Tamb := range []float64{230, units.CToK(25), 330} {
			for _, dT := range []float64{-40, -0.3, 0, 1e-6, 0.5, 12, 60, 250} {
				got, want := NaturalVerticalPlate(L, Tamb+dT, Tamb), refNaturalVerticalPlate(L, Tamb+dT, Tamb)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("L %v, Ts %v, Tamb %v: h = %v, want %v", L, Tamb+dT, Tamb, got, want)
				}
			}
		}
	}
}
