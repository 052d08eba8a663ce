package twophase

import (
	"fmt"
	"math"

	"aeropack/internal/fluids"
	"aeropack/internal/units"
)

// LoopHeatPipe models a loop heat pipe at the device level: a capillary
// evaporator with a fine-pored primary wick, smooth-walled vapour and
// liquid transport lines, a condenser, and a compensation chamber.
//
// The characteristic behaviour captured here (per Maidanik 2005 and Launay
// et al. 2007, the paper's refs [4,5]) is:
//
//   - variable conductance at low power: part of the condenser is blocked
//     by liquid, so the effective resistance falls as power rises;
//   - a fixed-conductance plateau at moderate power;
//   - a capillary limit set by the primary wick's pore radius against the
//     total loop pressure drop, with only a weak tilt dependence because
//     the fine pores dwarf the gravity head over the evaporator scale —
//     this is why the paper's Fig. 10 tilt curve hugs the horizontal one;
//   - a minimum startup power below which the loop does not circulate.
type LoopHeatPipe struct {
	Fluid *fluids.Fluid

	// Primary wick.
	PoreRadius   float64 // m (LHP wicks: 1–10 µm)
	Permeability float64 // m²
	WickArea     float64 // evaporator wick cross-section, m²
	WickLength   float64 // liquid path length through the wick, m

	// Transport lines.
	LineLength float64 // one-way transport distance, m
	LineRadius float64 // inner radius of vapour/liquid lines, m

	// Condenser.
	CondArea float64 // condenser contact area, m²
	CondH    float64 // condensation film + contact coefficient, W/(m²·K)

	// Evaporator.
	EvapArea float64 // evaporator contact area, m²
	EvapH    float64 // evaporation film coefficient, W/(m²·K)

	// ElevationM is the height of the evaporator above the condenser
	// (positive = adverse).  For the COSEE seat, tilting the seat by φ
	// changes elevation by L·sin(φ).
	ElevationM float64

	// StartupPower is the minimum power for reliable startup, W.
	StartupPower float64
}

// Validate checks the LHP parameters.
func (l *LoopHeatPipe) Validate() error {
	if l.Fluid == nil {
		return fmt.Errorf("twophase: LHP needs a fluid")
	}
	if l.PoreRadius <= 0 || l.Permeability <= 0 || l.WickArea <= 0 || l.WickLength <= 0 {
		return fmt.Errorf("twophase: LHP wick parameters invalid")
	}
	if l.LineLength <= 0 || l.LineRadius <= 0 {
		return fmt.Errorf("twophase: LHP line parameters invalid")
	}
	if l.CondArea <= 0 || l.CondH <= 0 || l.EvapArea <= 0 || l.EvapH <= 0 {
		return fmt.Errorf("twophase: LHP condenser/evaporator parameters invalid")
	}
	return nil
}

// MaxPower returns the capillary transport limit at vapour temperature T:
// the power at which the loop pressure drop (wick + liquid line + vapour
// line + gravity head) exhausts the wick's capillary pressure.
//
// Non-finite (NaN/Inf) inputs propagate to the result (nanguard: propagates).
func (l *LoopHeatPipe) MaxPower(T float64) (float64, error) {
	if err := l.Validate(); err != nil {
		return 0, err
	}
	return l.maxPower(l.Fluid.Sat(T), math.Pow(l.LineRadius, 4)), nil
}

// maxPower is MaxPower for the saturated state s, with r4 = LineRadius⁴.
func (l *LoopHeatPipe) maxPower(s fluids.State, r4 float64) float64 {
	dpCap := 2 * s.Sigma / l.PoreRadius
	dpGrav := s.RhoL * units.Gravity * l.ElevationM
	avail := dpCap - dpGrav
	if avail <= 0 {
		return 0
	}
	// Pressure drops per unit mass flow ṁ = Q/h_fg:
	// wick (Darcy):      dp = μ_l·L_w/(ρ_l·K·A_w)·ṁ
	// liquid line (HP):  dp = 8·μ_l·L/(ρ_l·π·r⁴)·ṁ
	// vapour line (HP):  dp = 8·μ_v·L/(ρ_v·π·r⁴)·ṁ
	perMdot := s.MuL*l.WickLength/(s.RhoL*l.Permeability*l.WickArea) +
		8*s.MuL*l.LineLength/(s.RhoL*math.Pi*r4) +
		8*s.MuV*l.LineLength/(s.RhoV*math.Pi*r4)
	mdotMax := avail / perMdot
	return mdotMax * s.Hfg
}

// Resistance returns the evaporator-to-condenser-sink thermal resistance
// (K/W) at vapour temperature T carrying power q, including the
// variable-conductance regime at low power.  Dry-out (q above MaxPower)
// and failure to start (q below StartupPower) are errors.  The capillary
// limit and the vapour-line drop share one saturated state.
//
// Non-finite (NaN/Inf) inputs propagate to the result (nanguard: propagates).
func (l *LoopHeatPipe) Resistance(T, q float64) (float64, error) {
	if err := l.Validate(); err != nil {
		return 0, err
	}
	if q <= 0 {
		return 0, fmt.Errorf("twophase: LHP requires positive power")
	}
	if q < l.StartupPower {
		return 0, fmt.Errorf("twophase: %g W below LHP startup power %g W", q, l.StartupPower)
	}
	r, qMax, ok := l.resistance(T, q)
	if !ok {
		return 0, fmt.Errorf("twophase: %g W exceeds LHP capillary limit %g W at %g K", q, qMax, T)
	}
	return r, nil
}

// resistance is Resistance for a valid loop carrying q at or above its
// startup power, without formatting an error: ok is false when q exceeds
// the capillary limit qMax.
func (l *LoopHeatPipe) resistance(T, q float64) (r, qMax float64, ok bool) {
	s := l.Fluid.Sat(T)
	r4 := math.Pow(l.LineRadius, 4)
	qMax = l.maxPower(s, r4)
	if q > qMax {
		return 0, qMax, false
	}
	// Film resistances.
	rEvap := 1 / (l.EvapH * l.EvapArea)
	// Variable conductance: fraction of condenser open grows with power.
	// Model: open fraction f = q/(q + q_vc) with q_vc the scale of the
	// variable-conductance regime (taken as 15% of qMax).
	qvc := 0.15 * qMax
	open := q / (q + qvc)
	rCond := 1 / (l.CondH * l.CondArea * open)
	// Vapour line saturation-temperature drop (usually negligible).
	dpdq := 8 * s.MuV * l.LineLength / (s.RhoV * math.Pi * r4 * s.Hfg)
	rLine := T * dpdq / (s.RhoV * s.Hfg)
	return rEvap + rCond + rLine, qMax, true
}

// VariableResistorFn adapts the LHP for thermal.Network integration: it
// returns a closure for Network.AddVariableResistor that recomputes the
// loop resistance from the evaporator-side temperature and the current
// element heat flow.  Below startup (or above the limit) the loop behaves
// as the fallback resistance rOff (natural convection / parasitic path).
// The closure tests the limits without formatting Resistance's errors,
// so it allocates nothing.
func (l *LoopHeatPipe) VariableResistorFn(rOff float64) func(Ta, Tb, Q float64) float64 {
	return func(Ta, Tb, Q float64) float64 {
		if Q <= 0 || Q < l.StartupPower || l.Validate() != nil {
			return rOff
		}
		r, _, ok := l.resistance(math.Max(Ta, units.ZeroCelsius), Q)
		if !ok {
			return rOff
		}
		return r
	}
}

// TiltedElevation returns the evaporator elevation when a mounting of
// baseline span lengthM is tilted by tiltDeg from horizontal.
//
// Non-finite (NaN/Inf) inputs propagate to the result (nanguard: propagates).
func TiltedElevation(lengthM, tiltDeg float64) float64 {
	return lengthM * math.Sin(tiltDeg*math.Pi/180)
}
