package twophase

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"aeropack/internal/fluids"
	"aeropack/internal/units"
)

// coseeHeatPipe returns a copper/water heat pipe of the class embedded in
// the COSEE seat electronic box (6.5 mm OD, sintered wick, ~30 cm long).
func coseeHeatPipe() *HeatPipe {
	return &HeatPipe{
		Fluid:         fluids.Water,
		Wick:          SinteredCopperWick(0.75e-3),
		LEvap:         0.1,
		LAdia:         0.1,
		LCond:         0.1,
		RadiusVapor:   2e-3,
		WallThickness: 0.5e-3,
		WallK:         398,
	}
}

// coseeLHP returns an ammonia loop heat pipe of the class Euro Heat Pipes /
// ITP supplied to COSEE (60 W class, 1.5 m transport distance to the seat
// structure).
func coseeLHP() *LoopHeatPipe {
	return &LoopHeatPipe{
		Fluid:        fluids.Ammonia,
		PoreRadius:   1.5e-6,
		Permeability: 4e-14,
		WickArea:     8e-4,
		WickLength:   5e-3,
		LineLength:   1.5,
		LineRadius:   2e-3,
		CondArea:     0.01,
		CondH:        2000,
		EvapArea:     2e-3,
		EvapH:        15000,
		StartupPower: 5,
	}
}

func TestHeatPipeValidate(t *testing.T) {
	hp := coseeHeatPipe()
	if err := hp.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *hp
	bad.Fluid = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil fluid should fail")
	}
	bad = *hp
	bad.LEvap = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero evaporator should fail")
	}
	bad = *hp
	bad.Wick.Porosity = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("bad wick should fail")
	}
	bad = *hp
	bad.WallK = 0
	if err := bad.Validate(); err == nil {
		t.Error("bad wall should fail")
	}
}

func TestHeatPipeEffectiveLength(t *testing.T) {
	hp := coseeHeatPipe()
	if !units.ApproxEqual(hp.EffectiveLength(), 0.2, 1e-12) {
		t.Errorf("Leff = %v", hp.EffectiveLength())
	}
	if !units.ApproxEqual(hp.TotalLength(), 0.3, 1e-12) {
		t.Errorf("Ltot = %v", hp.TotalLength())
	}
}

func TestHeatPipeLimitsMagnitude(t *testing.T) {
	// A 6.5 mm copper/water pipe at 60 °C: capillary limit of tens of
	// watts governs; sonic/entrainment/viscous are far higher.
	hp := coseeHeatPipe()
	lims, err := hp.Limits(units.CToK(60))
	if err != nil {
		t.Fatal(err)
	}
	if lims.Capillary < 30 || lims.Capillary > 300 {
		t.Errorf("capillary limit = %v W, want tens-to-low-hundreds", lims.Capillary)
	}
	q, mech, err := hp.MaxPower(units.CToK(60))
	if err != nil {
		t.Fatal(err)
	}
	if mech != "capillary" {
		t.Errorf("governing limit should be capillary at 60 °C, got %s", mech)
	}
	if q != lims.Capillary {
		t.Error("MaxPower must equal governing limit")
	}
	for name, v := range map[string]float64{
		"sonic": lims.Sonic, "entrainment": lims.Entrainment,
		"boiling": lims.Boiling, "viscous": lims.Viscous,
	} {
		if v <= lims.Capillary {
			t.Errorf("%s limit %v should exceed capillary %v here", name, v, lims.Capillary)
		}
	}
}

func TestHeatPipeViscousLimitGovernsNearFreezing(t *testing.T) {
	// Close to the fluid's melting point the vapour pressure collapses and
	// the viscous/sonic limits crash below the capillary limit.
	hp := coseeHeatPipe()
	cold, err := hp.Limits(276)
	if err != nil {
		t.Fatal(err)
	}
	warm, _ := hp.Limits(units.CToK(60))
	if cold.Viscous >= warm.Viscous {
		t.Error("viscous limit must collapse at low temperature")
	}
	if cold.Sonic >= warm.Sonic {
		t.Error("sonic limit must drop at low temperature")
	}
}

func TestHeatPipeTiltPenalty(t *testing.T) {
	// Evaporator-above-condenser tilts reduce the capillary limit; the
	// favourable direction increases it.
	hp := coseeHeatPipe()
	flat, _ := hp.Limits(units.CToK(60))
	hp.TiltDeg = 90 // evaporator straight up — worst case
	up, _ := hp.Limits(units.CToK(60))
	hp.TiltDeg = -90
	down, _ := hp.Limits(units.CToK(60))
	if !(up.Capillary < flat.Capillary && flat.Capillary < down.Capillary) {
		t.Errorf("tilt ordering broken: up=%v flat=%v down=%v",
			up.Capillary, flat.Capillary, down.Capillary)
	}
}

func TestHeatPipeResistance(t *testing.T) {
	// Device-level resistance must be far below an equivalent solid copper
	// rod — the whole point of a heat pipe.
	hp := coseeHeatPipe()
	r, err := hp.Resistance(units.CToK(60), 20)
	if err != nil {
		t.Fatal(err)
	}
	if r <= 0 || r > 0.2 {
		t.Errorf("heat pipe R = %v K/W, want ≲0.1", r)
	}
	// Solid copper rod of the same outer radius and length.
	ro := hp.RadiusVapor + hp.Wick.Thickness + hp.WallThickness
	rodR := hp.TotalLength() / (398 * math.Pi * ro * ro)
	if r >= rodR/10 {
		t.Errorf("heat pipe R %v should be ≫10× better than copper rod %v", r, rodR)
	}
	g, err := hp.Conductance(units.CToK(60), 20)
	if err != nil || !units.ApproxEqual(g, 1/r, 1e-12) {
		t.Error("conductance inversion broken")
	}
}

func TestHeatPipeDryout(t *testing.T) {
	hp := coseeHeatPipe()
	qMax, _, _ := hp.MaxPower(units.CToK(60))
	if _, err := hp.Resistance(units.CToK(60), qMax*1.1); err == nil {
		t.Error("power above limit must error (dry-out)")
	}
	if _, err := hp.Resistance(units.CToK(60), -1); err == nil {
		t.Error("negative power must error")
	}
}

func TestWickConstructors(t *testing.T) {
	for _, w := range []Wick{SinteredCopperWick(1e-3), AxialGrooveWick(1e-3), ScreenMeshWick(1e-3)} {
		if w.Porosity <= 0 || w.Porosity >= 1 || w.Permeability <= 0 || w.PoreRadius <= 0 || w.K <= 0 {
			t.Errorf("wick %s invalid: %+v", w.Name, w)
		}
		if w.Thickness != 1e-3 {
			t.Errorf("wick %s thickness not stored", w.Name)
		}
	}
	// Groove wicks trade capillary pressure for permeability.
	s, g := SinteredCopperWick(1e-3), AxialGrooveWick(1e-3)
	if !(g.PoreRadius > s.PoreRadius && g.Permeability > s.Permeability) {
		t.Error("groove vs sintered trade-off broken")
	}
}

func TestLHPMaxPower(t *testing.T) {
	l := coseeLHP()
	q, err := l.MaxPower(units.CToK(40))
	if err != nil {
		t.Fatal(err)
	}
	// An ammonia LHP of this class transports hundreds of watts.
	if q < 100 || q > 5000 {
		t.Errorf("LHP max power = %v W, want hundreds", q)
	}
}

func TestLHPTiltInsensitivity(t *testing.T) {
	// The paper's Fig. 10: the 22° tilt curve is close to horizontal.
	// Quantitatively: the capillary limit must change by well under 10%
	// for a 22° tilt over the seat scale (~0.5 m span).
	l := coseeLHP()
	qFlat, _ := l.MaxPower(units.CToK(40))
	l.ElevationM = TiltedElevation(0.5, 22)
	qTilt, _ := l.MaxPower(units.CToK(40))
	drop := (qFlat - qTilt) / qFlat
	if drop < 0 {
		t.Errorf("adverse tilt should not raise the limit (drop=%v)", drop)
	}
	if drop > 0.10 {
		t.Errorf("LHP tilt penalty %v too strong — should be weak (<10%%)", drop)
	}
}

func TestLHPVariableConductance(t *testing.T) {
	// Resistance falls with power in the variable-conductance regime.
	l := coseeLHP()
	T := units.CToK(40)
	r10, err := l.Resistance(T, 10)
	if err != nil {
		t.Fatal(err)
	}
	r40, _ := l.Resistance(T, 40)
	r100, _ := l.Resistance(T, 100)
	if !(r10 > r40 && r40 > r100) {
		t.Errorf("variable conductance broken: R(10)=%v R(40)=%v R(100)=%v", r10, r40, r100)
	}
	// Plateau: increments shrink.
	if (r10 - r40) < (r40 - r100) {
		t.Error("resistance should flatten at higher power")
	}
	// Typical LHP magnitudes: 0.05–1 K/W.
	if r40 < 0.02 || r40 > 1.5 {
		t.Errorf("R(40 W) = %v K/W implausible", r40)
	}
}

func TestLHPStartupAndDryout(t *testing.T) {
	l := coseeLHP()
	T := units.CToK(40)
	if _, err := l.Resistance(T, 2); err == nil || !strings.Contains(err.Error(), "startup") {
		t.Errorf("below-startup power should fail with startup error, got %v", err)
	}
	qMax, _ := l.MaxPower(T)
	if _, err := l.Resistance(T, qMax*1.05); err == nil {
		t.Error("above-limit power should fail")
	}
	if _, err := l.Resistance(T, 0); err == nil {
		t.Error("zero power should fail")
	}
}

func TestLHPValidation(t *testing.T) {
	l := coseeLHP()
	l.PoreRadius = 0
	if err := l.Validate(); err == nil {
		t.Error("zero pore radius should fail")
	}
	l = coseeLHP()
	l.Fluid = nil
	if err := l.Validate(); err == nil {
		t.Error("nil fluid should fail")
	}
	l = coseeLHP()
	l.LineRadius = 0
	if err := l.Validate(); err == nil {
		t.Error("zero line radius should fail")
	}
	l = coseeLHP()
	l.CondH = 0
	if err := l.Validate(); err == nil {
		t.Error("zero condenser h should fail")
	}
}

// refLHPMaxPower and refLHPResistance are MaxPower and Resistance as
// first written, with two fluids.Sat calls and two LineRadius⁴ per
// Resistance; the kernels must match them bit for bit, errors included.
func refLHPMaxPower(l *LoopHeatPipe, T float64) (float64, error) {
	if err := l.Validate(); err != nil {
		return 0, err
	}
	s := l.Fluid.Sat(T)
	dpCap := 2 * s.Sigma / l.PoreRadius
	dpGrav := s.RhoL * units.Gravity * l.ElevationM
	avail := dpCap - dpGrav
	if avail <= 0 {
		return 0, nil
	}
	r4 := math.Pow(l.LineRadius, 4)
	perMdot := s.MuL*l.WickLength/(s.RhoL*l.Permeability*l.WickArea) +
		8*s.MuL*l.LineLength/(s.RhoL*math.Pi*r4) +
		8*s.MuV*l.LineLength/(s.RhoV*math.Pi*r4)
	mdotMax := avail / perMdot
	return mdotMax * s.Hfg, nil
}

func refLHPResistance(l *LoopHeatPipe, T, q float64) (float64, error) {
	if err := l.Validate(); err != nil {
		return 0, err
	}
	if q <= 0 {
		return 0, fmt.Errorf("twophase: LHP requires positive power")
	}
	if q < l.StartupPower {
		return 0, fmt.Errorf("twophase: %g W below LHP startup power %g W", q, l.StartupPower)
	}
	qMax, err := refLHPMaxPower(l, T)
	if err != nil {
		return 0, err
	}
	if q > qMax {
		return 0, fmt.Errorf("twophase: %g W exceeds LHP capillary limit %g W at %g K", q, qMax, T)
	}
	rEvap := 1 / (l.EvapH * l.EvapArea)
	qvc := 0.15 * qMax
	open := q / (q + qvc)
	rCond := 1 / (l.CondH * l.CondArea * open)
	s := l.Fluid.Sat(T)
	r4 := math.Pow(l.LineRadius, 4)
	dpdq := 8 * s.MuV * l.LineLength / (s.RhoV * math.Pi * r4 * s.Hfg)
	rLine := T * dpdq / (s.RhoV * s.Hfg)
	return rEvap + rCond + rLine, nil
}

// TestLHPMatchesReference pins MaxPower and Resistance to the reference
// over temperatures inside and outside ammonia's range and powers from
// below startup to above the capillary limit, for the level loop, a
// tilted one, one whose adverse elevation exhausts the wick, and an
// invalid one.  The errors must match too.
func TestLHPMatchesReference(t *testing.T) {
	tilted, adverse, invalid := coseeLHP(), coseeLHP(), coseeLHP()
	tilted.ElevationM = TiltedElevation(0.5, 22)
	adverse.ElevationM = 10
	invalid.WickArea = 0
	if q, err := adverse.MaxPower(units.CToK(40)); err != nil || q != 0 {
		t.Fatalf("10 m adverse elevation: MaxPower = %v, %v; want 0, the wick exhausted", q, err)
	}
	same := func(what string, got, want float64, gotErr, wantErr error) {
		t.Helper()
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Errorf("%s: error %v, want %v", what, gotErr, wantErr)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s = %v, want %v", what, got, want)
		}
	}
	for name, l := range map[string]*LoopHeatPipe{"level": coseeLHP(), "tilted": tilted, "adverse": adverse, "invalid": invalid} {
		for _, T := range []float64{180, 200, 260, units.CToK(25), units.CToK(40), units.CToK(85), 370, 400} {
			q, err := l.MaxPower(T)
			qRef, errRef := refLHPMaxPower(l, T)
			same(fmt.Sprintf("%s MaxPower(%v K)", name, T), q, qRef, err, errRef)
			for _, P := range []float64{-1, 0, 2, 5, 12.5, 40, 100, 0.999 * qRef, qRef, 1.001 * qRef, 1e5} {
				r, err := l.Resistance(T, P)
				rRef, errRef := refLHPResistance(l, T, P)
				same(fmt.Sprintf("%s Resistance(%v K, %v W)", name, T, P), r, rRef, err, errRef)
			}
		}
	}
}

// TestLHPResistorFnMatchesReference: over TestLHPMatchesReference's
// inputs the network closure returns, bit for bit, the reference
// resistance at the evaporator temperature clamped to 0 °C, or the
// fallback wherever the reference fails; and it allocates nothing,
// below startup and above the capillary limit included.
func TestLHPResistorFnMatchesReference(t *testing.T) {
	const rOff = 40
	tilted, adverse, invalid := coseeLHP(), coseeLHP(), coseeLHP()
	tilted.ElevationM = TiltedElevation(0.5, 22)
	adverse.ElevationM = 10
	invalid.WickArea = 0
	for name, l := range map[string]*LoopHeatPipe{"level": coseeLHP(), "tilted": tilted, "adverse": adverse, "invalid": invalid} {
		fn := l.VariableResistorFn(rOff)
		for _, Ta := range []float64{180, 200, 260, units.CToK(25), units.CToK(40), units.CToK(85), 370, 400} {
			T := math.Max(Ta, units.ZeroCelsius)
			qMax, _ := refLHPMaxPower(l, T)
			for _, Q := range []float64{-1, 0, 2, 5, 12.5, 40, 100, 0.999 * qMax, qMax, 1.001 * qMax, 1e5} {
				want, err := refLHPResistance(l, T, Q)
				if err != nil {
					want = rOff
				}
				if got := fn(Ta, 300, Q); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s fn(%v K, %v W) = %v, want %v", name, Ta, Q, got, want)
				}
			}
		}
	}
	l := coseeLHP()
	fn := l.VariableResistorFn(rOff)
	qMax, err := l.MaxPower(units.CToK(40))
	if err != nil {
		t.Fatal(err)
	}
	for _, Q := range []float64{0.5 * l.StartupPower, 1.5 * qMax} {
		if a := testing.AllocsPerRun(100, func() { fn(units.CToK(40), 300, Q) }); a != 0 {
			t.Errorf("fn at %v W allocates %v times per call, want 0", Q, a)
		}
	}
}

func TestLHPVariableResistorFn(t *testing.T) {
	l := coseeLHP()
	fn := l.VariableResistorFn(10)
	// Working point: returns the loop resistance.
	r := fn(units.CToK(45), units.CToK(30), 40)
	want, _ := l.Resistance(units.CToK(45), 40)
	if !units.ApproxEqual(r, want, 1e-12) {
		t.Errorf("fn = %v, want %v", r, want)
	}
	// Below startup: falls back to rOff.
	if got := fn(units.CToK(45), units.CToK(30), 1); got != 10 {
		t.Errorf("below startup fn = %v, want fallback 10", got)
	}
	if got := fn(units.CToK(45), units.CToK(30), -3); got != 10 {
		t.Errorf("negative flow fn = %v, want fallback 10", got)
	}
}

func TestTiltedElevation(t *testing.T) {
	if !units.ApproxEqual(TiltedElevation(1, 90), 1, 1e-12) {
		t.Error("90° tilt of unit span should give unit elevation")
	}
	if TiltedElevation(1, 0) != 0 {
		t.Error("flat tilt should give zero")
	}
	if !units.ApproxEqual(TiltedElevation(0.5, 22), 0.5*math.Sin(22*math.Pi/180), 1e-12) {
		t.Error("22° elevation wrong")
	}
}

func TestThermosyphon(t *testing.T) {
	ts := &Thermosyphon{
		Fluid:          fluids.Water,
		InnerRadius:    8e-3,
		LEvap:          0.15,
		LCond:          0.2,
		CondenserAbove: 0.3,
		FillRatio:      0.6,
	}
	fl, err := ts.FloodingLimit(units.CToK(60))
	if err != nil {
		t.Fatal(err)
	}
	if fl < 200 || fl > 5000 {
		t.Errorf("flooding limit = %v W, want hundreds-to-kW", fl)
	}
	q, mech, err := ts.MaxPower(units.CToK(60))
	if err != nil {
		t.Fatal(err)
	}
	if q <= 0 || (mech != "flooding" && mech != "dryout") {
		t.Errorf("MaxPower = %v (%s)", q, mech)
	}
	r, err := ts.Resistance(units.CToK(60), 100)
	if err != nil {
		t.Fatal(err)
	}
	if r <= 0 || r > 0.5 {
		t.Errorf("thermosyphon R = %v K/W implausible", r)
	}
}

func TestThermosyphonOrientation(t *testing.T) {
	ts := &Thermosyphon{
		Fluid:          fluids.Water,
		InnerRadius:    8e-3,
		LEvap:          0.15,
		LCond:          0.2,
		CondenserAbove: -0.1, // condenser below: gravity-driven return impossible
		FillRatio:      0.6,
	}
	if err := ts.Validate(); err == nil {
		t.Error("condenser below evaporator must fail validation")
	}
}

func TestThermosyphonFillDerating(t *testing.T) {
	mk := func(fill float64) *Thermosyphon {
		return &Thermosyphon{
			Fluid: fluids.Water, InnerRadius: 8e-3,
			LEvap: 0.15, LCond: 0.2, CondenserAbove: 0.3, FillRatio: fill,
		}
	}
	low, _ := mk(0.2).DryoutLimit(units.CToK(60))
	high, _ := mk(0.7).DryoutLimit(units.CToK(60))
	if low >= high {
		t.Errorf("low fill %v should derate vs high fill %v", low, high)
	}
	if _, err := mk(1.5).DryoutLimit(units.CToK(60)); err == nil {
		t.Error("fill ratio >1 should fail")
	}
	ts := mk(0.6)
	qMax, _, _ := ts.MaxPower(units.CToK(60))
	if _, err := ts.Resistance(units.CToK(60), qMax*1.2); err == nil {
		t.Error("above-limit power should fail")
	}
}

func TestSelectFluid(t *testing.T) {
	// Cabin-range copper pipe (comfortably above water's freeze margin):
	// water wins on merit.
	f, err := SelectFluid(units.CToK(15), units.CToK(90), false)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "water" {
		t.Errorf("cabin-range selection = %s, want water", f.Name)
	}
	// Aluminium envelope: water excluded → ammonia (best remaining merit).
	f, err = SelectFluid(units.CToK(15), units.CToK(60), true)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name != "ammonia" {
		t.Errorf("aluminium selection = %s, want ammonia", f.Name)
	}
	// Sub-freezing mission range: water's freeze margin disqualifies it
	// even for copper.
	f, err = SelectFluid(units.CToK(-40), units.CToK(40), false)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name == "water" {
		t.Error("water must be excluded below freezing")
	}
	// Impossible range.
	if _, err := SelectFluid(100, 120, false); err == nil {
		t.Error("cryogenic range should find no fluid")
	}
	if _, err := SelectFluid(400, 300, false); err == nil {
		t.Error("inverted range should error")
	}
}

func TestPerformanceMap(t *testing.T) {
	hp := coseeHeatPipe()
	pts, err := hp.PerformanceMap(units.CToK(5), units.CToK(150), 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 30 {
		t.Fatalf("want 30 points, got %d", len(pts))
	}
	// The envelope rises from the cold end into the working band: the
	// mid-band governing limit must exceed the cold-end one.
	cold := pts[0].Governing
	mid := pts[len(pts)/2].Governing
	if mid <= cold {
		t.Errorf("working-band limit %v should exceed cold-end %v", mid, cold)
	}
	// The governing mechanism is the capillary limit through the band.
	capillaryCount := 0
	for _, p := range pts {
		if p.Mechanism == "capillary" {
			capillaryCount++
		}
		if p.Governing <= 0 {
			t.Errorf("non-positive limit at %v K", p.T)
		}
	}
	if capillaryCount < len(pts)/2 {
		t.Errorf("capillary should govern most of the band (got %d/%d)", capillaryCount, len(pts))
	}
	if _, err := hp.PerformanceMap(400, 300, 10); err == nil {
		t.Error("inverted range should error")
	}
	if _, err := hp.PerformanceMap(300, 400, 1); err == nil {
		t.Error("single point should error")
	}
}
