// Package fluids provides saturation-state property correlations for the
// working fluids used in avionics two-phase cooling devices (heat pipes,
// loop heat pipes, thermosyphons): water, ammonia, methanol, acetone.
//
// Each fluid carries Antoine-equation vapour-pressure coefficients plus
// temperature-linear fits for the remaining properties anchored at two
// reference temperatures.  Accuracy is the few-percent class appropriate
// for device-level design calculations (the same class as the handbook
// tables in Peterson, "An Introduction to Heat Pipes", the paper's ref [3]).
package fluids

import (
	"fmt"
	"math"
	"sort"

	"aeropack/internal/units"
)

// State is the saturated-fluid property set at one temperature.
type State struct {
	T        float64 // temperature, K
	Psat     float64 // saturation pressure, Pa
	Hfg      float64 // latent heat of vaporisation, J/kg
	RhoL     float64 // liquid density, kg/m³
	RhoV     float64 // vapour density, kg/m³
	MuL      float64 // liquid dynamic viscosity, Pa·s
	MuV      float64 // vapour dynamic viscosity, Pa·s
	KL       float64 // liquid thermal conductivity, W/(m·K)
	CpL      float64 // liquid specific heat, J/(kg·K)
	Sigma    float64 // surface tension, N/m
	GammaV   float64 // vapour specific-heat ratio
	MolarMas float64 // molar mass, kg/mol
}

// MeritNumber returns the liquid transport factor
// N = rho_l·sigma·h_fg / mu_l (W/m²), the standard figure of merit for
// capillary-driven two-phase devices.
func (s State) MeritNumber() float64 {
	if s.MuL == 0 {
		return 0
	}
	return s.RhoL * s.Sigma * s.Hfg / s.MuL
}

// anchor is a property sample at one temperature used for linear fits.
type anchor struct {
	T     float64
	Hfg   float64
	RhoL  float64
	MuL   float64
	MuV   float64
	KL    float64
	CpL   float64
	Sigma float64

	// lnMuL and lnMuV are ln MuL and ln MuV, taken once by byName for
	// Sat's log-space interpolation.
	lnMuL, lnMuV float64
}

// Fluid is a two-phase working fluid with property correlations valid over
// [Tmin, Tmax].
type Fluid struct {
	Name string
	// Antoine coefficients: log10(P[mmHg]) = A - B/(C + T[°C]).
	AntA, AntB, AntC float64
	Tmin, Tmax       float64 // validity range, K
	Tcrit            float64 // critical temperature, K
	MolarMass        float64 // kg/mol
	GammaV           float64 // vapour cp/cv
	FreezeT          float64 // freezing point, K
	lo, hi           anchor
}

const mmHg = 133.322 // Pa

// Sat evaluates saturated properties at temperature T (K).  Temperatures
// outside the validity range are clamped; callers that care should check
// with InRange first.  The viscosities interpolate between the anchors'
// logarithms, which byName takes once per built-in fluid.
func (f *Fluid) Sat(T float64) State {
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
	loglerp := func(lnA, lnB float64) float64 {
		return math.Exp(lnA + (lnB-lnA)*t)
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
		MuL:      loglerp(f.lo.lnMuL, f.hi.lnMuL),
		MuV:      loglerp(f.lo.lnMuV, f.hi.lnMuV),
		KL:       lerp(f.lo.KL, f.hi.KL),
		CpL:      lerp(f.lo.CpL, f.hi.CpL),
		Sigma:    math.Max(1e-4, lerp(f.lo.Sigma, f.hi.Sigma)),
		GammaV:   f.GammaV,
		MolarMas: f.MolarMass,
	}
}

// InRange reports whether T lies inside the correlation validity range.
func (f *Fluid) InRange(T float64) bool { return T >= f.Tmin && T <= f.Tmax }

// SonicVelocity returns the vapour sonic velocity at saturation
// temperature T, sqrt(gamma·R·T/M).
func (f *Fluid) SonicVelocity(T float64) float64 {
	return math.Sqrt(f.GammaV * units.GasConstant * T / f.MolarMass)
}

// Canonical built-in fluids.  The instances are exported so known fluids
// are referenced by identifier (compile-checked) instead of through a
// panicking MustGet; Get remains for dynamic string-keyed lookup.
var (
	// Water: the dominant heat-pipe fluid in the 30–200 °C band used by
	// avionics cooling (COSEE heat pipes).
	Water = &Fluid{
		Name: "water",
		AntA: 8.07131, AntB: 1730.63, AntC: 233.426,
		Tmin: 274, Tmax: 473, Tcrit: 647.1,
		MolarMass: 18.015e-3, GammaV: 1.33, FreezeT: units.ZeroCelsius,
		lo: anchor{T: 293.15, Hfg: 2.454e6, RhoL: 998.2, MuL: 1.002e-3,
			MuV: 9.7e-6, KL: 0.598, CpL: 4182, Sigma: 0.0728},
		hi: anchor{T: 393.15, Hfg: 2.202e6, RhoL: 943.1, MuL: 0.232e-3,
			MuV: 12.9e-6, KL: 0.683, CpL: 4244, Sigma: 0.0550},
	}
	// Ammonia: the classic LHP fluid (the ITP loop heat pipes in COSEE are
	// ammonia-charged); excellent merit number at cabin temperatures.
	Ammonia = &Fluid{
		Name: "ammonia",
		AntA: 7.36050, AntB: 926.132, AntC: 240.17,
		Tmin: 200, Tmax: 370, Tcrit: 405.5,
		MolarMass: 17.031e-3, GammaV: 1.31, FreezeT: 195.4,
		lo: anchor{T: 239.15, Hfg: 1.369e6, RhoL: 681.0, MuL: 0.285e-3,
			MuV: 8.1e-6, KL: 0.547, CpL: 4472, Sigma: 0.0340},
		hi: anchor{T: 313.15, Hfg: 1.099e6, RhoL: 579.5, MuL: 0.125e-3,
			MuV: 10.4e-6, KL: 0.447, CpL: 4877, Sigma: 0.0181},
	}
	// Methanol: low-temperature heat pipes (starts below water's freeze).
	Methanol = &Fluid{
		Name: "methanol",
		AntA: 7.89750, AntB: 1474.08, AntC: 229.13,
		Tmin: 240, Tmax: 400, Tcrit: 512.6,
		MolarMass: 32.042e-3, GammaV: 1.26, FreezeT: 175.6,
		lo: anchor{T: units.ZeroCelsius, Hfg: 1.20e6, RhoL: 810.0, MuL: 0.817e-3,
			MuV: 8.8e-6, KL: 0.210, CpL: 2430, Sigma: 0.0245},
		hi: anchor{T: 373.15, Hfg: 1.05e6, RhoL: 714.0, MuL: 0.210e-3,
			MuV: 12.4e-6, KL: 0.186, CpL: 2920, Sigma: 0.0150},
	}
	// R134a: the pumped-two-phase and thermosyphon refrigerant option for
	// cabin-temperature loops; modest merit number but high vapour density
	// (small lines) and full aluminium compatibility.
	R134a = &Fluid{
		Name: "r134a",
		AntA: 7.034, AntB: 912.6, AntC: 245.6,
		Tmin: 230, Tmax: 360, Tcrit: 374.2,
		MolarMass: 102.03e-3, GammaV: 1.12, FreezeT: 169.85,
		lo: anchor{T: units.ZeroCelsius, Hfg: 198.6e3, RhoL: 1295, MuL: 2.67e-4,
			MuV: 1.07e-5, KL: 0.092, CpL: 1341, Sigma: 0.0115},
		hi: anchor{T: 313.15, Hfg: 163.0e3, RhoL: 1147, MuL: 1.61e-4,
			MuV: 1.20e-5, KL: 0.075, CpL: 1498, Sigma: 0.0061},
	}
	// Acetone: mid-range alternative for aluminium-compatible devices
	// (water attacks aluminium envelopes).
	Acetone = &Fluid{
		Name: "acetone",
		AntA: 7.11714, AntB: 1210.595, AntC: 229.664,
		Tmin: 250, Tmax: 400, Tcrit: 508.1,
		MolarMass: 58.08e-3, GammaV: 1.12, FreezeT: 178.5,
		lo: anchor{T: units.ZeroCelsius, Hfg: 0.564e6, RhoL: 812.0, MuL: 0.395e-3,
			MuV: 6.8e-6, KL: 0.171, CpL: 2110, Sigma: 0.0262},
		hi: anchor{T: 373.15, Hfg: 0.495e6, RhoL: 696.0, MuL: 0.192e-3,
			MuV: 9.8e-6, KL: 0.146, CpL: 2380, Sigma: 0.0137},
	}
)

// registry is the name-keyed index over the canonical instances above.
var registry = byName(Water, Ammonia, Methanol, R134a, Acetone)

// byName indexes fs by name and takes the logs of each fluid's anchor
// viscosities, which Sat reads.
func byName(fs ...*Fluid) map[string]*Fluid {
	out := make(map[string]*Fluid, len(fs))
	for _, f := range fs {
		for _, a := range []*anchor{&f.lo, &f.hi} {
			a.lnMuL, a.lnMuV = math.Log(a.MuL), math.Log(a.MuV)
		}
		out[f.Name] = f
	}
	return out
}

// Get returns the named built-in fluid.
func Get(name string) (*Fluid, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("fluids: unknown fluid %q", name)
	}
	return f, nil
}

// Names returns the sorted built-in fluid names.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns the built-in fluids sorted by name.
func All() []*Fluid {
	out := make([]*Fluid, 0, len(registry))
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	return out
}

// SatTemperature inverts the Antoine equation: the saturation temperature
// (K) at pressure p (Pa).
func (f *Fluid) SatTemperature(p float64) float64 {
	if p <= 0 {
		return f.Tmin
	}
	logp := math.Log10(p / mmHg)
	c := f.AntB/(f.AntA-logp) - f.AntC
	return units.CToK(c)
}

// ClausiusClapeyronSlope returns dP/dT (Pa/K) at temperature T from the
// latent heat via the Clausius–Clapeyron relation, used by tests to check
// internal consistency between Psat and Hfg data.
func (f *Fluid) ClausiusClapeyronSlope(T float64) float64 {
	s := f.Sat(T)
	// dP/dT = hfg·P·M / (R·T²) in the ideal-vapour limit.
	return s.Hfg * s.Psat * f.MolarMass / (units.GasConstant * T * T)
}
