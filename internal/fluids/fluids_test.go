package fluids

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"aeropack/internal/units"
)

func TestWaterSatPressure(t *testing.T) {
	w := Water
	// Water boils at 100 °C under 1 atm.
	s := w.Sat(units.CToK(100))
	if !units.ApproxEqual(s.Psat, units.AtmPressure, 0.02) {
		t.Errorf("water Psat(100°C) = %v Pa, want ≈101325", s.Psat)
	}
	// At 20 °C: ≈2339 Pa.
	s = w.Sat(units.CToK(20))
	if !units.ApproxEqual(s.Psat, 2339, 0.03) {
		t.Errorf("water Psat(20°C) = %v Pa, want ≈2339", s.Psat)
	}
}

func TestWaterProperties(t *testing.T) {
	w := Water
	s := w.Sat(units.CToK(20))
	if !units.ApproxEqual(s.RhoL, 998, 0.01) {
		t.Errorf("water rhoL = %v", s.RhoL)
	}
	if !units.ApproxEqual(s.Hfg, 2.454e6, 0.02) {
		t.Errorf("water hfg = %v", s.Hfg)
	}
	if !units.ApproxEqual(s.Sigma, 0.0728, 0.02) {
		t.Errorf("water sigma = %v", s.Sigma)
	}
	if !units.ApproxEqual(s.MuL, 1.002e-3, 0.02) {
		t.Errorf("water muL = %v", s.MuL)
	}
	// Vapour density at 100 °C ≈ 0.598 kg/m³ (ideal-gas approx gives ~0.59).
	s100 := w.Sat(units.CToK(100))
	if !units.ApproxEqual(s100.RhoV, 0.59, 0.05) {
		t.Errorf("water rhoV(100°C) = %v, want ≈0.59", s100.RhoV)
	}
}

func TestAmmoniaSatPressure(t *testing.T) {
	a := Ammonia
	// Ammonia boils at −33.3 °C under 1 atm.
	s := a.Sat(units.CToK(-33.3))
	if !units.ApproxEqual(s.Psat, units.AtmPressure, 0.05) {
		t.Errorf("ammonia Psat(-33.3°C) = %v, want ≈1 atm", s.Psat)
	}
}

func TestMeritNumberOrdering(t *testing.T) {
	// At cabin temperature water has the best merit number, then ammonia,
	// then methanol/acetone — the standard fluid-selection chart ordering.
	T := units.CToK(40)
	w := Water.Sat(T).MeritNumber()
	am := Ammonia.Sat(T).MeritNumber()
	me := Methanol.Sat(T).MeritNumber()
	ac := Acetone.Sat(T).MeritNumber()
	if !(w > am && am > me && me > ac*0.5) {
		t.Errorf("merit ordering broken: water=%.3g ammonia=%.3g methanol=%.3g acetone=%.3g",
			w, am, me, ac)
	}
	// Water's merit number at 40 °C is ≈4–5×10¹¹ W/m².
	if w < 2e11 || w > 8e11 {
		t.Errorf("water merit = %.3g, want O(4e11)", w)
	}
}

func TestMeritNumberZeroViscosity(t *testing.T) {
	var s State
	if s.MeritNumber() != 0 {
		t.Error("zero state should have zero merit number")
	}
}

func TestSatMonotonicity(t *testing.T) {
	// Psat strictly increases with T; rhoL decreases; muL decreases.
	for _, f := range All() {
		name := f.Name
		prev := f.Sat(f.Tmin)
		for T := f.Tmin + 5; T <= f.Tmax; T += 5 {
			s := f.Sat(T)
			if s.Psat <= prev.Psat {
				t.Errorf("%s: Psat not increasing at T=%v", name, T)
			}
			if s.RhoL > prev.RhoL {
				t.Errorf("%s: rhoL not decreasing at T=%v", name, T)
			}
			if s.MuL > prev.MuL {
				t.Errorf("%s: muL not decreasing at T=%v", name, T)
			}
			prev = s
		}
	}
}

func TestSatClamping(t *testing.T) {
	w := Water
	below := w.Sat(100)
	atMin := w.Sat(w.Tmin)
	if below != atMin {
		t.Error("below-range evaluation should clamp to Tmin")
	}
	if w.InRange(100) {
		t.Error("100 K should be out of range for water")
	}
	if !w.InRange(300) {
		t.Error("300 K should be in range for water")
	}
}

func TestSatTemperatureInverse(t *testing.T) {
	// SatTemperature(Sat(T).Psat) == T, property-checked in range.
	for _, f := range All() {
		name := f.Name
		g := func(raw float64) bool {
			frac := math.Abs(math.Mod(raw, 1))
			T := f.Tmin + frac*(f.Tmax-f.Tmin)
			p := f.Sat(T).Psat
			Tback := f.SatTemperature(p)
			return units.ApproxEqual(Tback, T, 1e-6)
		}
		if err := quick.Check(g, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestSatTemperatureNonPositive(t *testing.T) {
	w := Water
	if got := w.SatTemperature(0); got != w.Tmin {
		t.Errorf("SatTemperature(0) = %v, want Tmin", got)
	}
}

func TestClausiusClapeyronConsistency(t *testing.T) {
	// The Antoine-derived dP/dT must agree with the Clausius–Clapeyron
	// slope computed from hfg to within ~10% — a cross-check that the
	// pressure and latent-heat data describe the same fluid.  The CC slope
	// here assumes an ideal vapour, which is ~15–20% off for dense
	// refrigerant vapours above a few bar, so those get a wider band.
	for _, f := range All() {
		name := f.Name
		T := (f.Tmin + f.Tmax) / 2
		dT := 0.01
		s := f.Sat(T)
		tol := 0.12
		if s.Psat > 5e5 {
			tol = 0.25
		}
		numerical := (f.Sat(T+dT).Psat - f.Sat(T-dT).Psat) / (2 * dT)
		analytic := f.ClausiusClapeyronSlope(T)
		if !units.ApproxEqual(numerical, analytic, tol) {
			t.Errorf("%s: dP/dT numeric=%.4g vs CC=%.4g", name, numerical, analytic)
		}
	}
}

func TestSonicVelocity(t *testing.T) {
	// Water vapour sonic velocity at 373 K ≈ sqrt(1.33·8.314·373/0.018) ≈ 478 m/s.
	w := Water
	if got := w.SonicVelocity(373.15); !units.ApproxEqual(got, 478, 0.03) {
		t.Errorf("water sonic velocity = %v, want ≈478", got)
	}
}

func TestGetUnknownFluid(t *testing.T) {
	if _, err := Get("helium3"); err == nil {
		t.Fatal("expected error")
	}
	if _, err := Get("water"); err != nil {
		t.Fatalf("known fluid should resolve: %v", err)
	}
}

func TestAllFluidsPositiveProperties(t *testing.T) {
	for _, f := range All() {
		name := f.Name
		for T := f.Tmin; T <= f.Tmax; T += 10 {
			s := f.Sat(T)
			for label, v := range map[string]float64{
				"Psat": s.Psat, "Hfg": s.Hfg, "RhoL": s.RhoL, "RhoV": s.RhoV,
				"MuL": s.MuL, "MuV": s.MuV, "KL": s.KL, "CpL": s.CpL,
				"Sigma": s.Sigma,
			} {
				if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%s at T=%v: %s = %v", name, T, label, v)
				}
			}
			if s.RhoV >= s.RhoL {
				t.Fatalf("%s at T=%v: vapour denser than liquid", name, T)
			}
		}
	}
}

func TestR134aHandbook(t *testing.T) {
	r := R134a
	// Boils at −26.1 °C under 1 atm.
	s := r.Sat(units.CToK(-26.1))
	if !units.ApproxEqual(s.Psat, units.AtmPressure, 0.05) {
		t.Errorf("r134a Psat(-26.1°C) = %v, want ≈1 atm", s.Psat)
	}
	// ≈6.6 bar at 25 °C (accept the Antoine fit's few-% band).
	s25 := r.Sat(units.CToK(25))
	if s25.Psat < 5.8e5 || s25.Psat > 7.2e5 {
		t.Errorf("r134a Psat(25°C) = %v, want ≈6.6 bar", s25.Psat)
	}
	// Dense vapour is the fluid's selling point: far denser than water's.
	w := Water.Sat(units.CToK(25))
	if s25.RhoV < 10*w.RhoV {
		t.Errorf("r134a vapour %v kg/m³ should dwarf water's %v", s25.RhoV, w.RhoV)
	}
	// But the merit number is far below water's — it is not a heat-pipe
	// fluid of choice.
	if s25.MeritNumber() > Water.Sat(units.CToK(25)).MeritNumber()/20 {
		t.Error("r134a merit should be ≪ water")
	}
}

// refSat is Sat as first written, taking the logs of the anchor
// viscosities on every call; Sat must match it bit for bit.
func refSat(f *Fluid, T float64) State {
	Tc := T
	if Tc < f.Tmin {
		Tc = f.Tmin
	}
	if Tc > f.Tmax {
		Tc = f.Tmax
	}
	c := units.KToC(Tc)
	psat := mmHg * math.Pow(10, f.AntA-f.AntB/(f.AntC+c))
	t := (Tc - f.lo.T) / (f.hi.T - f.lo.T)
	lerp := func(a, b float64) float64 { return a + (b-a)*t }
	// Viscosity varies exponentially with T; interpolate in log space.
	loglerp := func(a, b float64) float64 {
		return math.Exp(math.Log(a) + (math.Log(b)-math.Log(a))*t)
	}
	hfg := lerp(f.lo.Hfg, f.hi.Hfg)
	// Ideal-gas vapour density at saturation.
	rhoV := psat * f.MolarMass / (units.GasConstant * Tc)
	return State{
		T:        Tc,
		Psat:     psat,
		Hfg:      hfg,
		RhoL:     lerp(f.lo.RhoL, f.hi.RhoL),
		RhoV:     rhoV,
		MuL:      loglerp(f.lo.MuL, f.hi.MuL),
		MuV:      loglerp(f.lo.MuV, f.hi.MuV),
		KL:       lerp(f.lo.KL, f.hi.KL),
		CpL:      lerp(f.lo.CpL, f.hi.CpL),
		Sigma:    math.Max(1e-4, lerp(f.lo.Sigma, f.hi.Sigma)),
		GammaV:   f.GammaV,
		MolarMas: f.MolarMass,
	}
}

// TestSatMatchesReference pins every property of all five fluids, below
// Tmin, across the range and above Tmax, to refSat's bits.
func TestSatMatchesReference(t *testing.T) {
	for _, f := range All() {
		Ts := []float64{f.Tmin - 30, f.Tmin, f.Tmax, f.Tmax + 30}
		for i := 0; i <= 50; i++ {
			Ts = append(Ts, f.Tmin+(f.Tmax-f.Tmin)*float64(i)/50)
		}
		for _, T := range Ts {
			got, want := reflect.ValueOf(f.Sat(T)), reflect.ValueOf(refSat(f, T))
			for k := 0; k < got.NumField(); k++ {
				if g, w := got.Field(k).Float(), want.Field(k).Float(); math.Float64bits(g) != math.Float64bits(w) {
					t.Errorf("%s at %v K: %s = %v, want %v", f.Name, T, got.Type().Field(k).Name, g, w)
				}
			}
		}
	}
}
