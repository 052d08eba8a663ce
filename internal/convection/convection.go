// Package convection provides the engineering convection correlations used
// by aeropack's equipment-level (level 1) and board-level (level 2) thermal
// models: natural convection from plates, forced convection in the card
// channels of avionics racks, fan/system operating points, and the
// ARINC 600 forced-air sizing rules the paper quotes (220 kg/h per kW).
//
// All heat transfer coefficients are returned in W/(m²·K); film properties
// are evaluated at the film temperature (Ts+T∞)/2 unless noted.
package convection

import (
	"fmt"
	"math"

	"aeropack/internal/materials"
	"aeropack/internal/units"
)

// rayleigh computes the Rayleigh number for characteristic length L and
// surface/ambient temperatures Ts, Tamb at 1 atm.
func rayleigh(L, Ts, Tamb float64) (ra float64, air materials.AirProps) {
	film := 0.5 * (Ts + Tamb)
	air = materials.Air(film, units.AtmPressure)
	dT := math.Abs(Ts - Tamb)
	// Ra = g·β·ΔT·L³/(ν·α) with thermal diffusivity α = ν/Pr.
	ra = units.Gravity * air.Beta * dT * L * L * L / (air.Nu * (air.Nu / air.Pr))
	return ra, air
}

// NaturalVerticalPlate returns the average natural-convection coefficient
// for a vertical plate of height L using the Churchill–Chu correlation
// (valid over the full laminar/turbulent Ra range),
// Nu = (0.825 + 0.387·Ra^(1/6)/den)², the square taken as one product.
//
// Non-finite (NaN/Inf) inputs propagate to the result (nanguard: propagates).
func NaturalVerticalPlate(L, Ts, Tamb float64) float64 {
	if L <= 0 {
		return 0
	}
	ra, air := rayleigh(L, Ts, Tamb)
	if ra <= 0 {
		return 0
	}
	pr := air.Pr
	den := math.Pow(1+math.Pow(0.492/pr, 9.0/16.0), 8.0/27.0)
	root := 0.825 + 0.387*math.Pow(ra, 1.0/6.0)/den
	nu := root * root
	return nu * air.K / L
}

// NaturalHorizontalPlateUp returns the coefficient for a hot surface facing
// up (or cold facing down); L is area/perimeter.
//
// Non-finite (NaN/Inf) inputs propagate to the result (nanguard: propagates).
func NaturalHorizontalPlateUp(L, Ts, Tamb float64) float64 {
	if L <= 0 {
		return 0
	}
	ra, air := rayleigh(L, Ts, Tamb)
	if ra <= 0 {
		return 0
	}
	var nu float64
	switch {
	case ra < 1e7:
		nu = 0.54 * math.Pow(ra, 0.25)
	default:
		nu = 0.15 * math.Pow(ra, 1.0/3.0)
	}
	return nu * air.K / L
}

// NaturalHorizontalPlateDown returns the coefficient for a hot surface
// facing down (stably stratified, weak convection).
//
// Non-finite (NaN/Inf) inputs propagate to the result (nanguard: propagates).
func NaturalHorizontalPlateDown(L, Ts, Tamb float64) float64 {
	if L <= 0 {
		return 0
	}
	ra, air := rayleigh(L, Ts, Tamb)
	if ra <= 0 {
		return 0
	}
	nu := 0.27 * math.Pow(ra, 0.25)
	return nu * air.K / L
}

// ForcedFlatPlate returns the average coefficient for flow at velocity V
// over a plate of length L with mixed laminar/turbulent treatment
// (transition at Re = 5×10⁵).
//
// Non-finite (NaN/Inf) inputs propagate to the result (nanguard: propagates).
func ForcedFlatPlate(L, V, Ts, Tamb float64) float64 {
	if L <= 0 || V <= 0 {
		return 0
	}
	film := 0.5 * (Ts + Tamb)
	air := materials.Air(film, units.AtmPressure)
	re := V * L / air.Nu
	pr := air.Pr
	var nu float64
	const reCrit = 5e5
	if re <= reCrit {
		nu = 0.664 * math.Sqrt(re) * math.Cbrt(pr)
	} else {
		// Mixed boundary layer (Incropera eq. 7.38).
		nu = (0.037*math.Pow(re, 0.8) - 871) * math.Cbrt(pr)
	}
	return nu * air.K / L
}

// HydraulicDiameter returns 4A/P for a rectangular duct a×b.
//
// Non-finite (NaN/Inf) inputs propagate to the result (nanguard: propagates).
func HydraulicDiameter(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return 0
	}
	return 2 * a * b / (a + b)
}

// DuctFlow describes developed flow in a duct or card-to-card channel.
type DuctFlow struct {
	Re float64 // Reynolds number
	Nu float64 // Nusselt number
	H  float64 // heat transfer coefficient, W/(m²·K)
	F  float64 // Darcy friction factor
	DP float64 // pressure drop over the duct length, Pa
}

// Duct evaluates flow of air at bulk temperature Tbulk through a duct of
// hydraulic diameter dh and length l at mean velocity V.  Laminar flow
// uses the constant-heat-flux parallel-plate value Nu = 8.23; turbulent
// flow uses Dittus–Boelter (heating) with the Blasius friction factor.
func Duct(dh, l, V, Tbulk float64) (DuctFlow, error) {
	if dh <= 0 || l <= 0 || V <= 0 {
		return DuctFlow{}, fmt.Errorf("convection: duct parameters must be positive (dh=%g l=%g V=%g)", dh, l, V)
	}
	air := materials.Air(Tbulk, units.AtmPressure)
	re := V * dh / air.Nu
	var nu, f float64
	if re < 2300 {
		nu = 8.23
		f = 96 / re // parallel-plate laminar friction
	} else {
		nu = 0.023 * math.Pow(re, 0.8) * math.Pow(air.Pr, 0.4)
		f = 0.316 / math.Pow(re, 0.25)
	}
	h := nu * air.K / dh
	dp := f * l / dh * 0.5 * air.Rho * V * V
	return DuctFlow{Re: re, Nu: nu, H: h, F: f, DP: dp}, nil
}

// FanCurve is a static fan pressure curve given as (flow m³/s,
// pressure Pa) samples, monotone decreasing in pressure.
type FanCurve struct {
	Q  []float64
	DP []float64
}

// NewFanCurve validates and stores a fan curve.
func NewFanCurve(q, dp []float64) (*FanCurve, error) {
	if len(q) != len(dp) || len(q) < 2 {
		return nil, fmt.Errorf("convection: fan curve needs ≥2 matched samples")
	}
	for i := 1; i < len(q); i++ {
		if q[i] <= q[i-1] {
			return nil, fmt.Errorf("convection: fan curve flow must increase")
		}
		if dp[i] > dp[i-1] {
			return nil, fmt.Errorf("convection: fan curve pressure must not increase with flow")
		}
	}
	return &FanCurve{Q: append([]float64(nil), q...), DP: append([]float64(nil), dp...)}, nil
}

// PressureAt interpolates the fan pressure at flow q, clamping outside the
// sampled range (0 beyond free delivery).
//
// Non-finite (NaN/Inf) inputs propagate to the result (nanguard: propagates).
func (f *FanCurve) PressureAt(q float64) float64 {
	if q <= f.Q[0] {
		return f.DP[0]
	}
	n := len(f.Q)
	if q >= f.Q[n-1] {
		return 0
	}
	for i := 1; i < n; i++ {
		if q <= f.Q[i] {
			t := (q - f.Q[i-1]) / (f.Q[i] - f.Q[i-1])
			return units.Lerp(f.DP[i-1], f.DP[i], t)
		}
	}
	return 0
}

// OperatingPoint intersects the fan curve with a quadratic system
// impedance dp = kSys·q² and returns (flow, pressure).  kSys in Pa/(m³/s)².
//
// Non-finite (NaN/Inf) inputs propagate to the result (nanguard: propagates).
func (f *FanCurve) OperatingPoint(kSys float64) (float64, float64, error) {
	if kSys < 0 {
		return 0, 0, fmt.Errorf("convection: system coefficient must be ≥0")
	}
	// Bisection on g(q) = fanDP(q) − kSys·q², decreasing in q.
	lo, hi := f.Q[0], f.Q[len(f.Q)-1]
	g := func(q float64) float64 { return f.PressureAt(q) - kSys*q*q }
	if g(lo) < 0 {
		return 0, 0, fmt.Errorf("convection: system too restrictive for this fan")
	}
	if g(hi) > 0 {
		// System curve never reaches the fan curve inside range: free delivery.
		return hi, f.PressureAt(hi), nil
	}
	for i := 0; i < 100; i++ {
		mid := 0.5 * (lo + hi)
		if g(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	q := 0.5 * (lo + hi)
	return q, kSys * q * q, nil
}

// ARINCMassFlow returns the ARINC 600 standard cooling airflow allocation
// for an equipment dissipating power watts: 220 kg/h per kW, in kg/s.
//
// Non-finite (NaN/Inf) inputs propagate to the result (nanguard: propagates).
func ARINCMassFlow(power float64) float64 {
	return units.KgPerHour(220 * power / 1000)
}

// AirTempRise returns the bulk air temperature rise ΔT = P/(ṁ·cp) for
// power P (W) absorbed by mass flow mdot (kg/s) entering at Tin (K).
//
// Non-finite (NaN/Inf) inputs propagate to the result (nanguard: propagates).
func AirTempRise(power, mdot, Tin float64) float64 {
	if mdot <= 0 {
		return math.Inf(1)
	}
	air := materials.Air(Tin, units.AtmPressure)
	return power / (mdot * air.Cp)
}

// RequiredH returns the convection coefficient needed to remove heat flux
// q″ (W/m²) at a film temperature difference dT (K).
//
// Non-finite (NaN/Inf) inputs propagate to the result (nanguard: propagates).
func RequiredH(flux, dT float64) float64 {
	if dT <= 0 {
		return math.Inf(1)
	}
	return flux / dT
}

// MaxAirCoolableFlux estimates the highest component heat flux (W/m²)
// plain forced air at channel velocity V over a component of length L can
// handle with surface-to-air difference dT — the quantity behind the
// paper's statement that ARINC-class airflow "cannot cope with the hot
// spot problems" at 100 W/cm².
//
// Non-finite (NaN/Inf) inputs propagate to the result (nanguard: propagates).
func MaxAirCoolableFlux(L, V, Ts, Tamb float64) float64 {
	h := ForcedFlatPlate(L, V, Ts, Tamb)
	return h * (Ts - Tamb)
}

// ChannelVelocity converts a mass flow (kg/s) through a card channel of
// cross-section area (m²) at temperature T into a mean velocity.
//
// Non-finite (NaN/Inf) inputs propagate to the result (nanguard: propagates).
func ChannelVelocity(mdot, area, T float64) float64 {
	if area <= 0 {
		return 0
	}
	air := materials.Air(T, units.AtmPressure)
	return mdot / (air.Rho * area)
}

// NaturalHorizontalCylinder returns the average natural-convection
// coefficient for a horizontal cylinder of diameter d (Churchill–Chu) —
// the seat-structure rods of the COSEE study, conduit runs, connector
// shells.
//
// Non-finite (NaN/Inf) inputs propagate to the result (nanguard: propagates).
func NaturalHorizontalCylinder(d, Ts, Tamb float64) float64 {
	if d <= 0 {
		return 0
	}
	ra, air := rayleigh(d, Ts, Tamb)
	if ra <= 0 {
		return 0
	}
	den := math.Pow(1+math.Pow(0.559/air.Pr, 9.0/16.0), 8.0/27.0)
	nu := math.Pow(0.60+0.387*math.Pow(ra, 1.0/6.0)/den, 2)
	return nu * air.K / d
}

// EnclosureVertical returns the effective convection coefficient for a
// sealed vertical air gap of thickness l and height h between plates at
// Th and Tc — the card-to-wall gaps of sealed boxes.  Where the
// correlation falls under pure conduction (Nu = 1), at low Rayleigh
// numbers, the gap conducts; Nu is continuous in the temperatures, so a
// network solve through the gap has a fixed point to converge to.
//
// Non-finite (NaN/Inf) inputs propagate to the result (nanguard: propagates).
func EnclosureVertical(l, h, Th, Tc float64) float64 {
	if l <= 0 || h <= 0 {
		return 0
	}
	ra, air := rayleigh(l, Th, Tc)
	aspect := h / l
	nu := 1.0
	if aspect >= 1 {
		// Catton / ElSherbiny-class correlation for tall gaps.
		nu = math.Max(1, 0.42*math.Pow(ra, 0.25)*math.Pow(air.Pr, 0.012)*math.Pow(aspect, -0.3))
	}
	return nu * air.K / l
}

// PinFinArray sizes a staggered pin-fin heatsink's thermal conductance:
// nFins pins of diameter d and height hPin on a base, in a duct flow at
// velocity v and bulk temperature T.  Returns total conductance W/K using
// the Zukauskas cylinder-in-crossflow correlation with a fin-efficiency
// correction for conductivity kFin.
//
// Non-finite (NaN/Inf) inputs propagate to the result (nanguard: propagates).
func PinFinArray(nFins int, d, hPin, kFin, v, T float64) (float64, error) {
	if nFins < 1 || d <= 0 || hPin <= 0 || kFin <= 0 || v <= 0 {
		return 0, fmt.Errorf("convection: invalid pin-fin inputs")
	}
	air := materials.Air(T, units.AtmPressure)
	re := v * d / air.Nu
	var c, m float64
	switch {
	case re < 40:
		c, m = 0.75, 0.4
	case re < 1000:
		c, m = 0.51, 0.5
	case re < 2e5:
		c, m = 0.26, 0.6
	default:
		c, m = 0.076, 0.7
	}
	nu := c * math.Pow(re, m) * math.Pow(air.Pr, 0.37)
	hFilm := nu * air.K / d
	// Fin efficiency for a pin: η = tanh(mL)/(mL), m = √(4h/(k·d)).
	mm := math.Sqrt(4 * hFilm / (kFin * d))
	ml := mm * hPin
	eta := 1.0
	if ml > 1e-9 {
		eta = math.Tanh(ml) / ml
	}
	aPin := math.Pi * d * hPin
	return float64(nFins) * eta * hFilm * aPin, nil
}
