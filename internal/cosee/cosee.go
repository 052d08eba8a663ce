// Package cosee is the virtual COSEE experiment: the paper's §IV.A study
// of passively cooling an In-Flight-Entertainment Seat Electronic Box
// (SEB) with heat pipes and loop heat pipes, using the seat's mechanical
// structure as the heat sink.
//
// The physical testbed (dummy PCB with resistive components, instrumented
// thermal path, AVIO seat, ITP loop heat pipes) is replaced by a lumped
// thermal network built from the aeropack substrates:
//
//	pcb ──R_internal──> wall ──R_nc(ΔT)──────────────> air   (always)
//	                    wall ──TIM──> evap ──LHP(Q)──> structure
//	                    structure ──R_fin(ΔT, k_struct)──> air  (LHP kit)
//
// R_nc is the buried-box natural-convection + radiation path (the SEB sits
// in an enclosed under-seat zone, not connected to the aircraft ECS);
// the LHP element uses the power-dependent conductance and weak tilt
// sensitivity of internal/twophase; the seat structure is a fin whose
// efficiency depends on the structural material's conductivity — that is
// the whole aluminium-versus-carbon-composite story of the paper.
package cosee

import (
	"context"
	"fmt"
	"math"

	"aeropack/internal/convection"
	"aeropack/internal/fluids"
	"aeropack/internal/materials"
	"aeropack/internal/obs"
	"aeropack/internal/parallel"
	"aeropack/internal/radiation"
	"aeropack/internal/robust"
	"aeropack/internal/thermal"
	"aeropack/internal/tim"
	"aeropack/internal/twophase"
	"aeropack/internal/units"
)

// Config describes one experimental configuration of the SEB + seat rig.
type Config struct {
	// UseLHP selects the HP+LHP cooling kit; false = bare SEB (the
	// paper's "without LHP" curve).
	UseLHP bool
	// TiltDeg tilts the seat from horizontal (the paper tested 22°).
	TiltDeg float64
	// Structure is the seat structural material (Al6061 default;
	// CarbonComposite for the composite seat test).
	Structure materials.Material
	// AmbientC is the cabin air temperature, °C (default 25).
	AmbientC float64

	// Geometry and model constants (zero values take COSEE defaults).
	BoxArea      float64 // SEB wetted case area, m²
	BoxHeight    float64 // characteristic height for convection, m
	BuriedFactor float64 // under-seat airflow blockage factor (0..1]
	InternalR    float64 // pcb→case resistance without the HP kit, K/W
	HPPathR      float64 // pcb→case resistance with embedded heat pipes, K/W
	RodLength    float64 // seat structure rod half-length per side, m
	RodDiameter  float64 // rod outer diameter, m
	RodWall      float64 // rod wall thickness, m
	LHPCount     int     // number of loop heat pipes (paper: two)
	SpanM        float64 // LHP elevation span used by tilt, m
	// TIMName selects the interface material at the LHP evaporator
	// saddles ("grease-standard" default; "perfect" removes the joints —
	// the ablation behind the paper's remark that two-phase systems
	// "require the use of many thermal interfaces").
	TIMName string
	// CabinAltitudeM derates all natural-convection films for the cabin
	// pressure altitude (0 = sea level; 2438 m = the standard 8,000 ft
	// cabin the IFE equipment actually lives in).
	CabinAltitudeM float64
	// UseThermosyphon replaces the loop heat pipes with gravity-driven
	// two-phase thermosyphons — the third "phase change system" option
	// the paper lists.  Requires the seat structure above the box (true
	// for the under-seat installation); unlike LHPs, tilting hurts.
	UseThermosyphon bool

	// FaultFn is the fault-injection seam for robustness tests: when
	// non-nil it is consulted before every steady solve with the point's
	// dissipated power, and a non-nil return fails that point as if the
	// solver had.  Production configurations leave it nil.
	FaultFn func(powerW float64) error
}

// Defaults fills zero fields with the COSEE rig values.
func (c *Config) Defaults() {
	if c.Structure.Name == "" {
		c.Structure = materials.Al6061
	}
	if c.AmbientC == 0 {
		c.AmbientC = 25
	}
	if c.BoxArea == 0 {
		c.BoxArea = 0.20 // 300×250×100 mm SEB wetted area
	}
	if c.BoxHeight == 0 {
		c.BoxHeight = 0.10
	}
	if c.BuriedFactor == 0 {
		c.BuriedFactor = 0.33 // enclosed under-seat zone
	}
	if c.InternalR == 0 {
		c.InternalR = 0.30 // PCB standoffs + internal air gap
	}
	if c.HPPathR == 0 {
		// Embedded heat pipes (0.045 K/W) plus the two TIM joints of the
		// internal stack (component → HP saddle → case, ~8 cm² each) —
		// the "many thermal interfaces" the paper says two-phase systems
		// require.  The joint material follows TIMName, so better TIMs
		// genuinely improve the system (the NANOPACK motivation).
		c.HPPathR = 0.045 + 2*c.jointResistance(8e-4)
	}
	if c.RodLength == 0 {
		c.RodLength = 0.70
	}
	if c.RodDiameter == 0 {
		c.RodDiameter = 0.050
	}
	if c.RodWall == 0 {
		c.RodWall = 0.005
	}
	if c.LHPCount == 0 {
		c.LHPCount = 2
	}
	if c.SpanM == 0 {
		c.SpanM = 0.5
	}
}

// jointResistance returns the absolute resistance (K/W) of one TIM joint
// of the given contact area for the configured TIMName: "perfect" removes
// the joint, "bare-contact" is dry metal-to-metal (~50 K·mm²/W), anything
// else resolves from the TIM library (default grease).
func (c *Config) jointResistance(area float64) float64 {
	switch c.TIMName {
	case "perfect":
		return 1e-6
	case "bare-contact":
		return units.KMm2PerW(50) / area
	default:
		name := c.TIMName
		if name == "" {
			name = "grease-standard"
		}
		g, err := tim.Get(name)
		if err != nil {
			g = tim.GreaseStandard
		}
		r, err := g.ResistanceAbs(2e5, area)
		if err != nil {
			return 1e-6
		}
		return r
	}
}

// thermosyphon builds the gravity-driven alternative: an R134a loop from
// the SEB up into the seat rods (condenser ≈0.3 m above the box).
func (c *Config) thermosyphon() *twophase.Thermosyphon {
	elev := 0.3 - twophase.TiltedElevation(c.SpanM, c.TiltDeg)
	return &twophase.Thermosyphon{
		Fluid:          fluids.R134a,
		InnerRadius:    5e-3,
		LEvap:          0.20,
		LCond:          0.35,
		CondenserAbove: elev,
		FillRatio:      0.6,
	}
}

// lhp builds the COSEE-class ammonia loop heat pipe with the configured
// tilt elevation.
func (c *Config) lhp() *twophase.LoopHeatPipe {
	return &twophase.LoopHeatPipe{
		Fluid:        fluids.Ammonia,
		PoreRadius:   1.5e-6,
		Permeability: 4e-14,
		WickArea:     8e-4,
		WickLength:   5e-3,
		LineLength:   1.5,
		LineRadius:   2e-3,
		CondArea:     0.012,
		CondH:        2500,
		EvapArea:     2.5e-3,
		EvapH:        15000,
		StartupPower: 3,
		ElevationM:   twophase.TiltedElevation(c.SpanM, c.TiltDeg),
	}
}

// boxNCResistance returns the buried-box natural convection + radiation
// resistance for a wall temperature Tw and ambient Ta.
func (c *Config) boxNCResistance(Tw, Ta float64) float64 {
	if Tw <= Ta {
		Tw = Ta + 0.5
	}
	h := convection.NaturalVerticalPlate(c.BoxHeight, Tw, Ta) * c.BuriedFactor * c.altitudeDerate()
	h += radiation.RadiativeCoefficient(0.85, Tw, Ta) * c.BuriedFactor
	if h <= 0 {
		h = 0.5
	}
	return 1 / (h * c.BoxArea)
}

// altitudeDerate weakens buoyant films for the configured cabin pressure
// altitude; radiation is unaffected.
func (c *Config) altitudeDerate() float64 {
	if c.CabinAltitudeM <= 0 {
		return 1
	}
	d, err := materials.NaturalConvectionDerate(c.CabinAltitudeM)
	if err != nil {
		return 1
	}
	return d
}

// finResistance returns the structure-to-air resistance treating the two
// seat rods as fins of the structural material (4 half-rods from the LHP
// condenser attachments).
func (c *Config) finResistance(Ts, Ta float64) float64 {
	if Ts <= Ta {
		Ts = Ta + 0.5
	}
	k := c.Structure.Kx()
	d := c.RodDiameter
	perim := math.Pi * d
	aCross := math.Pi / 4 * (d*d - (d-2*c.RodWall)*(d-2*c.RodWall))
	h := convection.NaturalVerticalPlate(c.RodLength, Ts, Ta) * c.altitudeDerate()
	h += radiation.RadiativeCoefficient(c.Structure.Emiss, Ts, Ta)
	if h <= 0 {
		h = 0.5
	}
	m := math.Sqrt(h * perim / (k * aCross))
	ml := m * c.RodLength
	eta := 1.0
	if ml > 1e-9 {
		eta = math.Tanh(ml) / ml
	}
	// 4 half-rods (2 rods, heat enters near the middle).
	area := 4 * perim * c.RodLength
	return 1 / (eta * h * area)
}

// BuildNetwork assembles the thermal network for dissipated power (W).
func (c *Config) BuildNetwork(power float64) (*thermal.Network, error) {
	if power <= 0 {
		return nil, fmt.Errorf("cosee: power must be positive")
	}
	c.Defaults()
	Ta := units.CToK(c.AmbientC)
	n := thermal.NewNetwork()
	n.FixT("air", Ta)
	n.AddSource("pcb", power)

	// Internal path PCB → case.
	rInt := c.InternalR
	if c.UseLHP {
		rInt = c.HPPathR
	}
	if err := n.AddResistor("pcb", "wall", rInt); err != nil {
		return nil, err
	}
	// Case → air buried natural convection (always present).
	if err := n.AddVariableResistor("wall", "air", 1.0, func(Tw, Tair, Q float64) float64 {
		return c.boxNCResistance(Tw, Tair)
	}); err != nil {
		return nil, err
	}

	if c.UseLHP {
		// TIM joints wall → LHP evaporator saddles.
		rTIM := c.jointResistance(2.5e-3)
		rodR := func(Ts, Tair float64) float64 { return c.finResistance(Ts, Tair) }
		var deviceFn func(Ta, Tb, Q float64) float64
		if c.UseThermosyphon {
			ts := c.thermosyphon()
			deviceFn = func(Ta, Tb, Q float64) float64 {
				if Q <= 0 {
					return 40
				}
				T := math.Max(Ta, 250)
				r, err := ts.Resistance(T, Q)
				if err != nil {
					return 40
				}
				return r
			}
		} else {
			deviceFn = c.lhp().VariableResistorFn(40)
		}
		for i := 0; i < c.LHPCount; i++ {
			evap := fmt.Sprintf("evap%d", i)
			if err := n.AddResistor("wall", evap, rTIM); err != nil {
				return nil, err
			}
			// When the loop cannot run the path falls back to a weak
			// parasitic conduction along the tubing.
			if err := n.AddVariableResistor(evap, "structure", 0.5, deviceFn); err != nil {
				return nil, err
			}
		}
		if err := n.AddVariableResistor("structure", "air", 1.0, func(Ts, Tair, Q float64) float64 {
			return rodR(Ts, Tair)
		}); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// lumpedCapacitances assigns the rig's thermal masses for transient
// studies: the dummy PCB (≈0.4 kg FR4+copper), the SEB case (≈1.2 kg
// aluminium) and the seat structure (≈3 kg of rod within the thermally
// active length).
func (c *Config) lumpedCapacitances(n *thermal.Network) {
	n.SetCapacitance("pcb", 0.4*900)
	n.SetCapacitance("wall", 1.2*896)
	if c.UseLHP {
		rho := c.Structure.Rho
		d := c.RodDiameter
		aCross := math.Pi / 4 * (d*d - (d-2*c.RodWall)*(d-2*c.RodWall))
		mass := rho * aCross * 4 * c.RodLength
		n.SetCapacitance("structure", mass*c.Structure.Cp)
	}
}

// Warmup runs the power-on transient from ambient and reports the PCB
// history plus the time to reach 90 % of the steady temperature rise —
// the figure of merit for how long a full-cabin IFE system takes to soak.
// ctx budgets the transient and the steady solve.
func (c *Config) Warmup(ctx context.Context, power, dt float64, steps int) (*thermal.TransientResult, float64, error) {
	n, err := c.BuildNetwork(power)
	if err != nil {
		return nil, 0, err
	}
	c.lumpedCapacitances(n)
	Ta := units.CToK(c.AmbientC)
	res, err := n.SolveTransient(ctx, Ta, dt, steps, nil)
	if err != nil {
		return nil, 0, err
	}
	steady, err := c.SolveContext(ctx, power)
	if err != nil {
		return nil, 0, err
	}
	target := Ta + 0.9*steady.DeltaTK
	t90, err := res.TimeToReach("pcb", target)
	if err != nil {
		// Not yet soaked within the window.
		return res, math.Inf(1), nil
	}
	return res, t90, nil
}

// Point is one sample of the Fig. 10 curve.
type Point struct {
	PowerW   float64
	DeltaTK  float64 // T_pcb − T_air
	LHPPower float64 // heat carried by the loop heat pipes, W
}

// Solve evaluates the steady PCB-to-ambient temperature difference,
// unbudgeted.
func (c *Config) Solve(power float64) (Point, error) {
	return c.SolveContext(context.TODO(), power)
}

// SolveContext evaluates the steady PCB-to-ambient temperature
// difference under ctx: its budget bounds the network's Picard passes,
// and the span it carries parents the solve's.
func (c *Config) SolveContext(ctx context.Context, power float64) (Point, error) {
	return c.solve(ctx, power, nil)
}

// solve is SolveContext with a Picard warm-start state threaded
// through.  Only sequential drivers (the capability bisection) may pass
// a non-nil state — the parallel sweep paths keep nil so point results
// never depend on worker scheduling.
func (c *Config) solve(ctx context.Context, power float64, warm *thermal.NetworkState) (Point, error) {
	ctx, sp := obs.StartContext(ctx, "cosee.Solve")
	defer sp.End()
	sp.AttrF("power_w", power)
	if r := obs.Default(); r != nil {
		r.Counter("cosee_solves_total").Inc()
	}
	if c.FaultFn != nil {
		if err := c.FaultFn(power); err != nil {
			return Point{}, err
		}
	}
	n, err := c.BuildNetwork(power)
	if err != nil {
		return Point{}, err
	}
	res, err := n.SolveSteadyWarm(ctx, 1e-3, 200, warm)
	if err != nil {
		return Point{}, err
	}
	c.Defaults()
	Ta := units.CToK(c.AmbientC)
	p := Point{PowerW: power, DeltaTK: res.T["pcb"] - Ta}
	if c.UseLHP {
		for i := 0; i < c.LHPCount; i++ {
			p.LHPPower += n.FlowBetween(res, fmt.Sprintf("evap%d", i), "structure")
		}
	}
	return p, nil
}

// Sweep evaluates the ΔT(P) curve over the given powers — one Fig. 10
// series — across at most o.Workers goroutines.  Each power is solved
// on a private copy of the configuration — Defaults mutates the
// receiver, so sharing one Config between goroutines would race — and
// the points land in input order, so the result is bitwise-identical at
// any worker count.  Without o.KeepGoing the lowest-index failure aborts
// the sweep; with it, each failed point keeps its PowerW with NaN for
// the solved fields and is listed as a robust.PointError, while every
// surviving point is bitwise-identical to the clean sweep's.
func (c *Config) Sweep(ctx context.Context, powers []float64, o robust.Options) ([]Point, []*robust.PointError, error) {
	ctx, sp := obs.StartContext(ctx, "cosee.Sweep")
	defer sp.End()
	sp.AttrInt("points", len(powers))
	sp.AttrInt("workers", parallel.Workers(o.Workers))
	if o.KeepGoing {
		sp.Attr("keep_going", "true")
	}
	prog := obs.CurrentBoard().Begin("cosee.Sweep", len(powers))
	defer prog.Finish()
	cc := *c
	cc.Defaults()
	out, errs, err := robust.Map(powers, o,
		func(_ int, p float64) string { return fmt.Sprintf("P=%g W", p) },
		func(_ int, p float64) (Point, error) {
			cfg := cc
			pt, err := cfg.SolveContext(ctx, p)
			prog.Step(1)
			return pt, err
		})
	for _, pe := range errs {
		out[pe.Index] = Point{PowerW: powers[pe.Index], DeltaTK: math.NaN(), LHPPower: math.NaN()}
	}
	return out, errs, err
}

// SweepParallel is Sweep, unbudgeted and aborting on the first failure.
func (c *Config) SweepParallel(powers []float64, workers int) ([]Point, error) {
	out, _, err := c.Sweep(context.TODO(), powers, robust.Options{Workers: workers})
	return out, err
}

// CapabilityAt returns the dissipated power at which the PCB sits
// deltaT kelvin above ambient — the paper's "heat dissipation capability
// at constant PCB temperature" metric (ΔT ≈ 60 °C in Fig. 10).  ctx
// budgets every solve of the bisection.
func (c *Config) CapabilityAt(ctx context.Context, deltaT float64) (float64, error) {
	if deltaT <= 0 {
		return 0, fmt.Errorf("cosee: deltaT must be positive")
	}
	ctx, sp := obs.StartContext(ctx, "cosee.CapabilityAt")
	defer sp.End()
	sp.AttrF("deltaT_K", deltaT)
	// The bisection is strictly sequential, so every solve continues
	// from the previous one's Picard state — adjacent power levels are
	// a couple of passes apart instead of a cold start each.
	warm := &thermal.NetworkState{}
	lo, hi := 1.0, 400.0
	pLo, err := c.solve(ctx, lo, warm)
	if err != nil {
		return 0, err
	}
	if pLo.DeltaTK > deltaT {
		return 0, fmt.Errorf("cosee: ΔT target %g K unreachable even at %g W", deltaT, lo)
	}
	pHi, err := c.solve(ctx, hi, warm)
	if err != nil {
		return 0, err
	}
	if pHi.DeltaTK < deltaT {
		return hi, nil
	}
	// Bisect to 0.01 W — an order of magnitude finer than the paper's
	// whole-watt Fig. 10 figures.  The previous fixed 60-pass loop drove
	// the bracket to machine epsilon, spending ~4× the steady solves for
	// precision far below the model's fidelity.
	for i := 0; hi-lo > 0.01 && i < 60; i++ {
		mid := 0.5 * (lo + hi)
		pm, err := c.solve(ctx, mid, warm)
		if err != nil {
			return 0, err
		}
		if pm.DeltaTK < deltaT {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), nil
}

// Fig10Summary bundles the paper's headline comparisons.
type Fig10Summary struct {
	CapabilityNoLHP float64 // W at ΔT = 60 K
	CapabilityLHP   float64 // W at ΔT = 60 K, horizontal
	CapabilityTilt  float64 // W at ΔT = 60 K, 22° tilt
	ImprovementPct  float64 // (LHP − NoLHP)/NoLHP × 100
	DeltaTNoLHP40W  float64 // K
	DeltaTLHP40W    float64 // K
	CoolingAt40W    float64 // the "32 °C decrease" number
	LHPPowerAt100W  float64 // the "58 W through the loops" number
}

// RunFig10 executes the full Fig. 10 comparison: three capability
// bisections and three point solves, each on base with UseLHP and
// TiltDeg set for its sub-study.  base supplies everything else — the
// structural material (aluminium for the headline, carbon composite for
// §IV.A's second test) and, in robustness tests, the FaultFn seam.  The
// six independent sub-studies run across at most o.Workers goroutines;
// every task builds its configuration from scratch, so nothing is
// shared and the summary is bitwise-identical at any worker count.
// Without o.KeepGoing the first failure aborts with a nil summary; with
// it, a failed sub-study yields NaN for its summary field (and any field
// derived from it) plus a robust.PointError naming the study, while
// every surviving field stays bitwise-identical to the clean run's.
func RunFig10(ctx context.Context, base Config, o robust.Options) (*Fig10Summary, []*robust.PointError, error) {
	ctx, sp := obs.StartContext(ctx, "cosee.RunFig10")
	defer sp.End()
	sp.Attr("structure", base.Structure.Name)
	sp.AttrInt("workers", parallel.Workers(o.Workers))
	if o.KeepGoing {
		sp.Attr("keep_going", "true")
	}
	cfg := func(useLHP bool, tiltDeg float64) Config {
		c := base
		c.UseLHP, c.TiltDeg = useLHP, tiltDeg
		return c
	}
	type study struct {
		label string
		fn    func() (float64, error)
	}
	point := func(useLHP bool, power float64, field func(Point) float64) func() (float64, error) {
		return func() (float64, error) {
			c := cfg(useLHP, 0)
			p, err := c.SolveContext(ctx, power)
			return field(p), err
		}
	}
	capability := func(useLHP bool, tiltDeg float64) func() (float64, error) {
		return func() (float64, error) {
			c := cfg(useLHP, tiltDeg)
			return c.CapabilityAt(ctx, 60)
		}
	}
	deltaT := func(p Point) float64 { return p.DeltaTK }
	tasks := []study{
		{"capability-nolhp", capability(false, 0)},
		{"capability-lhp", capability(true, 0)},
		{"capability-tilt", capability(true, 22)},
		{"deltaT-nolhp-40W", point(false, 40, deltaT)},
		{"deltaT-lhp-40W", point(true, 40, deltaT)},
		{"lhp-power-100W", point(true, 100, func(p Point) float64 { return p.LHPPower })},
	}
	prog := obs.CurrentBoard().Begin("cosee.RunFig10", len(tasks))
	defer prog.Finish()
	vals, errs, err := robust.Map(tasks, o,
		func(_ int, s study) string { return s.label },
		func(_ int, s study) (float64, error) {
			v, err := s.fn()
			prog.Step(1)
			return v, err
		})
	if err != nil {
		return nil, nil, err
	}
	for _, pe := range errs {
		vals[pe.Index] = math.NaN()
	}
	s := Fig10Summary{
		CapabilityNoLHP: vals[0],
		CapabilityLHP:   vals[1],
		CapabilityTilt:  vals[2],
		DeltaTNoLHP40W:  vals[3],
		DeltaTLHP40W:    vals[4],
		LHPPowerAt100W:  vals[5],
	}
	s.ImprovementPct = (s.CapabilityLHP - s.CapabilityNoLHP) / s.CapabilityNoLHP * 100
	s.CoolingAt40W = s.DeltaTNoLHP40W - s.DeltaTLHP40W
	return &s, errs, nil
}

// Fig10Options selects an unbudgeted Fig. 10 run for RunFig10Opts.
type Fig10Options struct {
	// Structure is the seat structural material (the paper's aluminium
	// versus carbon-composite story).
	Structure materials.Material
	// Workers bounds the concurrent sub-studies (<= 0 means GOMAXPROCS).
	Workers int
}

// RunFig10Opts is RunFig10, unbudgeted and aborting on the first
// failure, for a base configuration of just the structural material.
func RunFig10Opts(o Fig10Options) (*Fig10Summary, []*robust.PointError, error) {
	return RunFig10(context.TODO(), Config{Structure: o.Structure}, robust.Options{Workers: o.Workers})
}

// FleetResult quantifies the paper's economic argument for passive
// cooling: "the use of fans will be required with the following
// drawbacks: extra cost, energy consumption when multiplied by the seat
// number, reliability and maintenance concern".
type FleetResult struct {
	Seats              int
	FanPowerTotalW     float64 // electrical burden of one fan per seat
	FanFailuresPerYear float64 // expected fan replacements across the fleet
	PassiveDeltaTK     float64 // PCB rise with the HP/LHP kit at the SEB power
	PassiveOK          bool    // kit keeps the PCB under the allowed rise
}

// FleetStudy compares fan-cooled and passive HP/LHP cooling across a
// cabin of nSeats IFE boxes each dissipating sebPowerW: fan electrical
// power fanPowerW and MTBF fanMTBFHours per unit, utilisation
// flightHoursPerYear, and the passive option evaluated against
// maxDeltaTK under ctx's budget.
func FleetStudy(ctx context.Context, nSeats int, sebPowerW, fanPowerW, fanMTBFHours, flightHoursPerYear, maxDeltaTK float64) (*FleetResult, error) {
	if nSeats < 1 || sebPowerW <= 0 || fanPowerW < 0 || fanMTBFHours <= 0 ||
		flightHoursPerYear < 0 || maxDeltaTK <= 0 {
		return nil, fmt.Errorf("cosee: invalid fleet study inputs")
	}
	kit := Config{UseLHP: true}
	pt, err := kit.SolveContext(ctx, sebPowerW)
	if err != nil {
		return nil, err
	}
	return &FleetResult{
		Seats:              nSeats,
		FanPowerTotalW:     float64(nSeats) * fanPowerW,
		FanFailuresPerYear: float64(nSeats) * flightHoursPerYear / fanMTBFHours,
		PassiveDeltaTK:     pt.DeltaTK,
		PassiveOK:          pt.DeltaTK <= maxDeltaTK,
	}, nil
}
