// Package core implements the paper's primary contribution: the Thales
// packaging design procedure (Fig. 1) — parallel thermal and mechanical
// design conducted at three levels of abstraction (Fig. 4), with
// cooling-technology selection, margin identification and design
// documentation.
//
// The technology layer (this file) is the level-1 screen: given a power
// level and hot-spot flux, which cooling principles of §III (free
// convection, forced air, conduction-cooled, flow-through, two-phase) are
// feasible, with what margin, at what complexity — "the global feasibility
// with associated design complexity is stated".
package core

import (
	"fmt"
	"math"
	"sort"

	"aeropack/internal/convection"
	"aeropack/internal/fluids"
	"aeropack/internal/materials"
	"aeropack/internal/radiation"
	"aeropack/internal/twophase"
	"aeropack/internal/units"
)

// CoolingTech enumerates the cooling principles of the paper's Fig. 5.
type CoolingTech int

// Cooling technologies in increasing order of capability and complexity.
const (
	FreeConvection CoolingTech = iota
	ForcedAir
	ConductionCooled
	FlowThrough
	TwoPhase
	numTechs
)

// String names the technology.
func (c CoolingTech) String() string {
	switch c {
	case FreeConvection:
		return "free convection + radiation"
	case ForcedAir:
		return "direct forced air (ARINC 600)"
	case ConductionCooled:
		return "conduction cooled (wedge locks)"
	case FlowThrough:
		return "air/liquid flow through"
	case TwoPhase:
		return "two-phase (HP/LHP)"
	}
	return fmt.Sprintf("CoolingTech(%d)", int(c))
}

// Complexity returns a 1–5 relative complexity/cost score, the "associated
// design complexity" of the level-1 statement.
func (c CoolingTech) Complexity() int {
	switch c {
	case FreeConvection:
		return 1
	case ForcedAir:
		return 2
	case ConductionCooled:
		return 3
	case FlowThrough:
		return 4
	case TwoPhase:
		return 4
	}
	return 5
}

// Envelope is the equipment outer geometry for capacity screens.
type Envelope struct {
	L, W, H float64 // m
}

// Area returns the wetted surface area.
func (e Envelope) Area() float64 {
	return 2 * (e.L*e.W + e.L*e.H + e.W*e.H)
}

// Valid reports whether the envelope is physical.
func (e Envelope) Valid() bool { return e.L > 0 && e.W > 0 && e.H > 0 }

// TechLimits are the capacity screens for one technology.
type TechLimits struct {
	Tech        CoolingTech
	MaxPowerW   float64 // equipment-level capacity at the allowed ΔT
	MaxFluxWCm2 float64 // local hot-spot handling capability
}

// Screen holds the level-1 screening inputs.
type Screen struct {
	Envelope     Envelope
	AmbientC     float64 // worst hot ambient
	SurfaceMaxC  float64 // allowed touch/surface temperature (free conv)
	AirInletC    float64 // forced-air inlet (ECS supply)
	AirRiseMaxK  float64 // allowed air temperature rise (forced air)
	ColdWallC    float64 // conduction-cooled rail temperature
	CoolantC     float64 // flow-through coolant temperature
	ComponentMax float64 // max component surface °C for flux screens
	// AltitudeM derates the air-based technologies for an unpressurized
	// or partially pressurized bay (ISA model); 0 = sea level.
	AltitudeM float64
}

// airDerates returns the (natural, forced) convection derating factors
// for the screen's altitude.
func (s Screen) airDerates() (float64, float64, error) {
	if s.AltitudeM <= 0 {
		return 1, 1, nil
	}
	n, err := materials.NaturalConvectionDerate(s.AltitudeM)
	if err != nil {
		return 0, 0, err
	}
	f, err := materials.ForcedConvectionDerate(s.AltitudeM)
	if err != nil {
		return 0, 0, err
	}
	return n, f, nil
}

// DefaultScreen fills the customary avionics values: 71 °C hot ambient,
// 95 °C surface limit, ARINC 40 °C inlet with 15 K rise, 40 °C rails,
// 30 °C coolant, 100 °C component surface.
func DefaultScreen(env Envelope) Screen {
	return Screen{
		Envelope:     env,
		AmbientC:     71,
		SurfaceMaxC:  95,
		AirInletC:    40,
		AirRiseMaxK:  15,
		ColdWallC:    40,
		CoolantC:     30,
		ComponentMax: 100,
	}
}

// Limits evaluates one technology's capacity for the screen.
func (s Screen) Limits(tech CoolingTech) (TechLimits, error) {
	if !s.Envelope.Valid() {
		return TechLimits{}, fmt.Errorf("core: invalid envelope")
	}
	Tamb := units.CToK(s.AmbientC)
	Tsurf := units.CToK(s.SurfaceMaxC)
	Tcomp := units.CToK(s.ComponentMax)
	dTfilm := Tcomp - Tamb
	out := TechLimits{Tech: tech}
	natDerate, forcedDerate, err := s.airDerates()
	if err != nil {
		return TechLimits{}, err
	}

	switch tech {
	case FreeConvection:
		h := convection.NaturalVerticalPlate(s.Envelope.H, Tsurf, Tamb)*natDerate +
			radiation.RadiativeCoefficient(0.85, Tsurf, Tamb)
		out.MaxPowerW = h * s.Envelope.Area() * (Tsurf - Tamb)
		// Hot spots rely on a local spreader/heatsink multiplying the
		// still-air film area by ~15 before the chassis takes over.
		hIn := convection.NaturalVerticalPlate(0.02, Tcomp, Tamb)*natDerate +
			radiation.RadiativeCoefficient(0.8, Tcomp, Tamb)
		out.MaxFluxWCm2 = units.ToWPerCm2(hIn * dTfilm * 15)

	case ForcedAir:
		// Capacity: the allowed air temperature rise at the ARINC flow
		// sized for that very power — self-consistent: P = ṁ(P)·cp·ΔT
		// holds for any P under the ARINC rule (220 kg/h/kW gives ≈16 K),
		// so the practical limit is the per-channel film on the hottest
		// module: solve from the channel film over the card area.
		Tin := units.CToK(s.AirInletC)
		v := 8.0 // typical card-channel velocity under ARINC flow, m/s
		duct, err := convection.Duct(convection.HydraulicDiameter(0.01, 0.15), 0.2, v, Tin)
		if err != nil {
			return TechLimits{}, err
		}
		cardArea := 0.16 * 0.23 // 6U-class card, both faces via spreading ≈ one face eq.
		dT := Tcomp - (Tin + s.AirRiseMaxK)
		out.MaxPowerW = duct.H * forcedDerate * cardArea * dT * 10 // ~10-card rack
		// Component hot spots carry a finned clip-on heatsink (thermal
		// area ratio ≈50× the die footprint) — this is what caps direct
		// air at the ≈10 W/cm² the paper cites before novel cooling is
		// needed.
		out.MaxFluxWCm2 = units.ToWPerCm2(duct.H * forcedDerate * dT * 50)

	case ConductionCooled:
		// Wedge-lock path: card → rail conductance ~2 W/K per edge pair,
		// two edges, 10 cards; ΔT from component to rail budgeted 40 K
		// with 25 K across the card/wedge path.
		gCard := 2.0 * 2
		nCards := 10.0
		dT := Tcomp - units.CToK(s.ColdWallC)
		out.MaxPowerW = gCard * nCards * (dT - 15) // 15 K reserved for spreading
		// Hot spots limited by in-board spreading to the drain: a copper/
		// APG drain handles ~20 W/cm² over a 1 cm² source.
		out.MaxFluxWCm2 = 20

	case FlowThrough:
		// Liquid flow-through cold plate: h ~ 3000 W/m²K over the module
		// face.
		dT := Tcomp - units.CToK(s.CoolantC)
		plateArea := 0.16 * 0.23
		out.MaxPowerW = 3000 * plateArea * dT * 6 // 6 LFT modules
		out.MaxFluxWCm2 = units.ToWPerCm2(3000 * dT)

	case TwoPhase:
		// Heat-pipe spreader bank: per-pipe capillary limit × count,
		// rejected through the chassis; evaporator flux limit governs the
		// hot spot.
		hp := &twophase.HeatPipe{
			Fluid: fluids.Water,
			Wick:  twophase.SinteredCopperWick(0.75e-3),
			LEvap: 0.05, LAdia: 0.1, LCond: 0.1,
			RadiusVapor:   2e-3,
			WallThickness: 0.5e-3,
			WallK:         398,
		}
		qMax, _, err := hp.MaxPower(Tcomp)
		if err != nil {
			return TechLimits{}, err
		}
		out.MaxPowerW = qMax * 8 // an 8-pipe bank per chassis
		// Sintered-wick evaporators demonstrate ~150 W/cm² before the
		// boiling limit (paper ref [6] hot-spot flow boiling).
		out.MaxFluxWCm2 = 150

	default:
		return TechLimits{}, fmt.Errorf("core: unknown technology %v", tech)
	}
	return out, nil
}

// Assessment is a screened technology with margins against a requirement.
type Assessment struct {
	TechLimits
	PowerMargin float64 // (capacity − need)/need
	FluxMargin  float64
	Feasible    bool
	Complexity  int
}

// limits evaluates every technology's capacity for the screen, indexed
// by CoolingTech.  They depend on the screen alone, so one evaluation
// serves every need screened against it.
func (s Screen) limits() ([numTechs]TechLimits, error) {
	var out [numTechs]TechLimits
	for tech := FreeConvection; tech < numTechs; tech++ {
		lim, err := s.Limits(tech)
		if err != nil {
			return out, err
		}
		out[tech] = lim
	}
	return out, nil
}

// checkNeed rejects a required power (W) that is not positive or a
// hot-spot flux (W/cm²) that is negative.
func checkNeed(powerW, fluxWCm2 float64) error {
	if powerW <= 0 || fluxWCm2 < 0 {
		return fmt.Errorf("core: power must be positive and flux non-negative")
	}
	return nil
}

// assess scores one technology's limits against a required power and
// hot-spot flux; a zero flux leaves an infinite flux margin.
func assess(lim TechLimits, powerW, fluxWCm2 float64) Assessment {
	a := Assessment{
		TechLimits:  lim,
		PowerMargin: lim.MaxPowerW/powerW - 1,
		FluxMargin:  math.Inf(1),
		Complexity:  lim.Tech.Complexity(),
	}
	if fluxWCm2 > 0 {
		a.FluxMargin = lim.MaxFluxWCm2/fluxWCm2 - 1
	}
	a.Feasible = a.PowerMargin > 0 && a.FluxMargin > 0
	return a
}

// ranksBefore is the one ordering rule of the level-1 screen: feasible
// first, then lower complexity, then larger power margin.  Assessments
// it leaves tied keep CoolingTech order.
func ranksBefore(a, b Assessment) bool {
	if a.Feasible != b.Feasible {
		return a.Feasible
	}
	if a.Complexity != b.Complexity {
		return a.Complexity < b.Complexity
	}
	return a.PowerMargin > b.PowerMargin
}

// SelectCooling screens every technology against a required power (W) and
// hot-spot flux (W/cm²), returning them in ranksBefore order, ties in
// CoolingTech order — the level-1 deliverable.
func (s Screen) SelectCooling(powerW, fluxWCm2 float64) ([]Assessment, error) {
	if err := checkNeed(powerW, fluxWCm2); err != nil {
		return nil, err
	}
	lims, err := s.limits()
	if err != nil {
		return nil, err
	}
	out := make([]Assessment, numTechs)
	for i, lim := range lims {
		out[i] = assess(lim, powerW, fluxWCm2)
	}
	sort.SliceStable(out, func(i, j int) bool { return ranksBefore(out[i], out[j]) })
	return out, nil
}

// Recommend returns the lowest-complexity feasible technology.
func (s Screen) Recommend(powerW, fluxWCm2 float64) (Assessment, error) {
	as, err := s.SelectCooling(powerW, fluxWCm2)
	if err != nil {
		return Assessment{}, err
	}
	if len(as) == 0 || !as[0].Feasible {
		return Assessment{}, fmt.Errorf("core: no feasible cooling technology for %g W at %g W/cm²", powerW, fluxWCm2)
	}
	return as[0], nil
}

// TechCell is one entry of a technology map: the screen outcome at a
// single (power, flux) grid point.
type TechCell struct {
	PowerW      float64
	FluxWCm2    float64
	Recommended Assessment // zero when Feasible is false
	Feasible    bool
}

// recommend scores every technology's limits against one need and
// returns its cell: the first assessment no later one ranks before,
// which is SelectCooling's first.
func recommend(lims *[numTechs]TechLimits, powerW, fluxWCm2 float64) TechCell {
	best := assess(lims[0], powerW, fluxWCm2)
	for _, lim := range lims[1:] {
		if a := assess(lim, powerW, fluxWCm2); ranksBefore(a, best) {
			best = a
		}
	}
	cell := TechCell{PowerW: powerW, FluxWCm2: fluxWCm2}
	if best.Feasible {
		cell.Recommended, cell.Feasible = best, true
	}
	return cell
}

// TechnologyMap screens the full powers × fluxes grid — the E12 sweep.
// The technologies' limits are evaluated once for the whole map and each
// cell is scored against them, so every cell equals the one built from
// its own SelectCooling.  workers is ignored, and kept only because
// bench/aeropackbench still passes one: a map costs a few microseconds,
// less than a goroutine pool's start-up.  Cells where no
// technology is feasible carry Feasible=false instead of failing the
// whole map; a genuine screening error (invalid inputs) aborts with the
// error of the lowest flattened grid index.  The returned slice is
// indexed [powerIdx][fluxIdx].
func (s Screen) TechnologyMap(powers, fluxes []float64, workers int) ([][]TechCell, error) {
	lims, limErr := s.limits()
	cells := make([]TechCell, len(powers)*len(fluxes))
	out := make([][]TechCell, len(powers))
	for pi, p := range powers {
		row := cells[pi*len(fluxes) : (pi+1)*len(fluxes)]
		for fi, f := range fluxes {
			// A cell's need is checked before the screen's limits, as
			// SelectCooling checks them.
			if err := checkNeed(p, f); err != nil {
				return nil, err
			}
			if limErr != nil {
				return nil, limErr
			}
			row[fi] = recommend(&lims, p, f)
		}
		out[pi] = row
	}
	return out, nil
}
