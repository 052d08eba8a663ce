package core

import (
	"context"
	"fmt"
	"math"

	"aeropack/internal/compact"
	"aeropack/internal/materials"
	"aeropack/internal/mech"
	"aeropack/internal/mesh"
	"aeropack/internal/obs"
	"aeropack/internal/robust"
	"aeropack/internal/thermal"
	"aeropack/internal/units"
	"aeropack/internal/vibration"
)

// BoardDesign describes one PCB of the equipment for the level-2/level-3
// passes and the parallel mechanical design.
type BoardDesign struct {
	Name          string
	LengthM       float64 // x
	WidthM        float64 // y
	ThicknessM    float64
	CopperLayers  int
	CopperOz      float64
	CopperCover   float64
	Components    []*compact.Component
	MassLoadKgM2  float64 // smeared non-modelled mass
	EdgeCooling   CoolingTech
	RailTempC     float64 // conduction-cooled rail temperature
	ChannelH      float64 // forced-air film coefficient on faces, W/m²K
	ChannelAirC   float64 // forced-air local air temperature
	Edges         mech.PlateEdge
	DampingZeta   float64
	VibCurve      string // DO-160 curve designation
	TargetModeHz  float64
	MaxJunctionC  float64 // default 125
	ComponentCLen float64 // critical component length for Steinberg, m
	// DetailedMech switches the mechanical pass from the closed-form
	// plate coefficients to the Kirchhoff plate FEM with each component
	// as a discrete point mass at its placement — the ANSYS-grade pass
	// for boards whose mass is dominated by a few heavy parts.
	DetailedMech bool
}

// defaults fills customary values.
func (b *BoardDesign) defaults() {
	if b.MaxJunctionC == 0 {
		b.MaxJunctionC = 125
	}
	if b.DampingZeta == 0 {
		b.DampingZeta = 0.03
	}
	if b.VibCurve == "" {
		b.VibCurve = "C1"
	}
	if b.ComponentCLen == 0 {
		b.ComponentCLen = 0.02
	}
	if b.Edges == 0 && b.EdgeCooling == ConductionCooled {
		b.Edges = mech.WedgeLocked
	}
}

// Validate checks the board definition.
func (b *BoardDesign) Validate() error {
	if b.LengthM <= 0 || b.WidthM <= 0 || b.ThicknessM <= 0 {
		return fmt.Errorf("core: board %q geometry invalid", b.Name)
	}
	if len(b.Components) == 0 {
		return fmt.Errorf("core: board %q has no components", b.Name)
	}
	for _, c := range b.Components {
		if c.X < 0 || c.X > b.LengthM || c.Y < 0 || c.Y > b.WidthM {
			return fmt.Errorf("core: component %s placed off board %q", c.RefDes, b.Name)
		}
		if c.Power < 0 {
			return fmt.Errorf("core: component %s negative power", c.RefDes)
		}
	}
	switch b.EdgeCooling {
	case ConductionCooled, ForcedAir, FreeConvection:
	default:
		return fmt.Errorf("core: board %q edge cooling %v not supported at level 2", b.Name, b.EdgeCooling)
	}
	return nil
}

// TotalPower sums component dissipations.
func (b *BoardDesign) TotalPower() float64 {
	sum := 0.0
	for _, c := range b.Components {
		sum += c.Power
	}
	return sum
}

// Level2Result is the PCB-level finite-volume pass: board temperature map
// statistics ("gives the PCB temperature and allows the optimization of
// the mechanical design").
type Level2Result struct {
	MaxBoardC  float64
	MeanBoardC float64
	// LocalC maps component RefDes → local board temperature under its
	// footprint, the level-3 boundary condition.
	LocalC map[string]float64
}

// Level3Result carries the component-level junction temperatures.
type Level3Result struct {
	Margins []compact.MarginReport
	WorstC  float64
	AllPass bool
}

// MechResult is the parallel mechanical pass.
type MechResult struct {
	FundamentalHz  float64
	TargetHz       float64
	ModePlaced     bool // within ±20% of target (when a target is set)
	ResponseGRMS   float64
	Z3SigmaUm      float64
	SteinbergUm    float64
	FatigueOK      bool
	OctaveRatioMin float64
}

// Report is the full design study output — the "design document".
type Report struct {
	Board    *BoardDesign
	Level1   Assessment
	Level2   *Level2Result
	Level3   *Level3Result
	Mech     *MechResult
	Feasible bool
	Findings []string
}

// Run runs the paper's co-design flow on one board: level-1 technology
// screen, level-2 FV board model, level-3 junction temperatures, and the
// parallel mechanical design (modal placement + random vibration).  ctx
// budgets the level-2 FV solve (one poll per CG iteration and per
// Picard pass after the first) and the level-3 network (one poll per
// factorization); a tripped budget fails the pass with an error wrapping
// linalg.ErrStopped.  The passes run in sequence, so o.Workers is
// unused.
//
// An invalid board is an error.  Otherwise, without o.KeepGoing the
// first failed pass aborts the study.  With it, each pass's failure is
// captured as a robust.PointError (indexed in pass order: 0 level1,
// 1 level2, 2 level3, 3 mech) and appended to Findings, and a report
// with the surviving sections is always produced.  Level 3 needs the
// level-2 field and is recorded as skipped when level 2 failed; the
// mechanical pass is independent and always runs.  A report with any
// errors is never Feasible.
func Run(ctx context.Context, b *BoardDesign, screen Screen, o robust.Options) (*Report, []*robust.PointError, error) {
	b.defaults()
	if err := b.Validate(); err != nil {
		return nil, nil, err
	}
	ctx, sp := obs.StartContext(ctx, "core.Study")
	defer sp.End()
	sp.Attr("board", b.Name)
	if o.KeepGoing {
		sp.Attr("keep_going", "true")
	}
	rep := &Report{Board: b}
	var errs []*robust.PointError
	// abort records pass idx's failure and reports whether it ends the
	// study.
	abort := func(idx int, label string, err error) bool {
		errs = append(errs, &robust.PointError{Index: idx, Label: label, Err: err})
		rep.Findings = append(rep.Findings, fmt.Sprintf("%s: ERROR: %v", label, err))
		return !o.KeepGoing
	}

	// ---- Level 1: technology screen on power and peak flux.
	a1, peakFlux, err := b.level1(ctx, screen)
	if err != nil {
		if abort(0, "level1", err) {
			return nil, nil, err
		}
	} else {
		rep.Level1 = a1
		if !a1.Feasible {
			rep.Findings = append(rep.Findings,
				fmt.Sprintf("level 1: %v infeasible for %.0f W / %.1f W/cm²",
					b.EdgeCooling, b.TotalPower(), peakFlux))
		}
	}

	// ---- Level 2: finite-volume board model.
	l2, err := b.level2(ctx, screen)
	if err != nil {
		if abort(1, "level2", err) {
			return nil, nil, err
		}
	} else {
		rep.Level2 = l2
		if l2.MaxBoardC > b.MaxJunctionC {
			rep.Findings = append(rep.Findings,
				fmt.Sprintf("level 2: board reaches %.0f °C before component rise", l2.MaxBoardC))
		}
	}

	// ---- Level 3: junction temperatures on local board temperature.
	if l2 == nil {
		abort(2, "level3", fmt.Errorf("core: skipped, needs the level-2 board field"))
	} else if l3, err := b.level3(ctx, l2); err != nil {
		if abort(2, "level3", err) {
			return nil, nil, err
		}
	} else {
		rep.Level3 = l3
		if !l3.AllPass {
			rep.Findings = append(rep.Findings,
				fmt.Sprintf("level 3: junction limit exceeded (worst %.0f °C)", l3.WorstC))
		}
	}

	// ---- Mechanical design in parallel.
	mres, err := b.mechanical(ctx)
	if err != nil {
		if abort(3, "mech", err) {
			return nil, nil, err
		}
	} else {
		rep.Mech = mres
		if b.TargetModeHz > 0 && !mres.ModePlaced {
			rep.Findings = append(rep.Findings,
				fmt.Sprintf("mech: fundamental %.0f Hz misses allocation %.0f Hz", mres.FundamentalHz, b.TargetModeHz))
		}
		if !mres.FatigueOK {
			rep.Findings = append(rep.Findings, "mech: random-vibration fatigue limit exceeded")
		}
	}

	rep.Feasible = len(errs) == 0 && rep.Level1.Feasible &&
		rep.Level3 != nil && rep.Level3.AllPass &&
		rep.Mech != nil && rep.Mech.FatigueOK &&
		(b.TargetModeHz == 0 || rep.Mech.ModePlaced)
	return rep, errs, nil
}

// Study is Run, unbudgeted and aborting on the first failed pass.
func Study(b *BoardDesign, screen Screen) (*Report, error) {
	rep, _, err := Run(context.TODO(), b, screen, robust.Options{})
	return rep, err
}

// level1 runs the technology screen on total power and peak component
// flux, returning the assessment for the board's chosen cooling
// technology plus the peak flux in W/cm².
func (b *BoardDesign) level1(ctx context.Context, screen Screen) (Assessment, float64, error) {
	sp := obs.Start(obs.FromContext(ctx), "core.Level1")
	defer sp.End()
	peakFlux := 0.0
	for _, c := range b.Components {
		a := c.Pkg.Length * c.Pkg.Width
		if a > 0 {
			if f := units.ToWPerCm2(c.Power / a); f > peakFlux {
				peakFlux = f
			}
		}
	}
	as, err := screen.SelectCooling(b.TotalPower(), peakFlux)
	if err != nil {
		return Assessment{}, 0, err
	}
	var out Assessment
	for _, a := range as {
		if a.Tech == b.EdgeCooling {
			out = a
			break
		}
	}
	return out, peakFlux, nil
}

// Level1 runs just the level-1 technology screen — the public per-pass
// entry point behind the level benchmarks and partial re-runs.  Level1,
// Level2 and Level3 run unbudgeted.
func (b *BoardDesign) Level1(screen Screen) (Assessment, error) {
	b.defaults()
	if err := b.Validate(); err != nil {
		return Assessment{}, err
	}
	a, _, err := b.level1(context.TODO(), screen)
	return a, err
}

// Level2 runs just the level-2 FV board pass.
func (b *BoardDesign) Level2(screen Screen) (*Level2Result, error) {
	b.defaults()
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b.level2(context.TODO(), screen)
}

// Level3 runs just the level-3 junction pass on an existing level-2
// result.
func (b *BoardDesign) Level3(l2 *Level2Result) (*Level3Result, error) {
	b.defaults()
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b.level3(context.TODO(), l2)
}

// level2 builds and solves the FV board model.
func (b *BoardDesign) level2(ctx context.Context, screen Screen) (*Level2Result, error) {
	ctx, sp := obs.StartContext(ctx, "core.Level2")
	defer sp.End()
	nx := int(math.Max(16, b.LengthM/2.5e-3))
	ny := int(math.Max(12, b.WidthM/2.5e-3))
	if nx > 80 {
		nx = 80
	}
	if ny > 80 {
		ny = 80
	}
	g, err := mesh.Uniform(nx, ny, 2, b.LengthM, b.WidthM, b.ThicknessM)
	if err != nil {
		return nil, err
	}
	pcb := materials.PCB(b.CopperLayers, b.CopperOz, b.CopperCover, b.ThicknessM)
	m, err := thermal.NewModel(g, []materials.Material{pcb})
	if err != nil {
		return nil, err
	}
	switch b.EdgeCooling {
	case ConductionCooled:
		rail := units.CToK(b.RailTempC)
		// Wedge locks on the two long edges, with a realistic interface
		// film (~2500 W/m²K over the clamped strips) rather than a
		// perfect contact.
		m.SetFaceBC(mesh.YMin, thermal.BC{Kind: thermal.Convection, T: rail, H: 2500})
		m.SetFaceBC(mesh.YMax, thermal.BC{Kind: thermal.Convection, T: rail, H: 2500})
	case ForcedAir:
		air := units.CToK(b.ChannelAirC)
		h := b.ChannelH
		if h <= 0 {
			h = 40
		}
		m.SetFaceBC(mesh.ZMin, thermal.BC{Kind: thermal.Convection, T: air, H: h})
		m.SetFaceBC(mesh.ZMax, thermal.BC{Kind: thermal.Convection, T: air, H: h})
	case FreeConvection:
		amb := units.CToK(screen.AmbientC)
		m.SetFaceBC(mesh.ZMin, thermal.BC{Kind: thermal.ConvectionRadiation, T: amb, H: 4})
		m.SetFaceBC(mesh.ZMax, thermal.BC{Kind: thermal.ConvectionRadiation, T: amb, H: 4})
	}
	for _, c := range b.Components {
		x0, x1, y0, y1 := c.Footprint()
		if n := m.AddVolumeSource(x0, x1, y0, y1, 0, b.ThicknessM, c.Power); n == 0 {
			// Tiny parts can fall between cell centroids; widen to the
			// nearest cell.
			cx, cy := c.X, c.Y
			if m.AddVolumeSource(cx-2.5e-3, cx+2.5e-3, cy-2.5e-3, cy+2.5e-3, 0, b.ThicknessM, c.Power) == 0 {
				return nil, fmt.Errorf("core: source for %s missed the mesh", c.RefDes)
			}
		}
	}
	res, err := m.SolveSteady(ctx, nil)
	if err != nil {
		return nil, err
	}
	out := &Level2Result{
		MaxBoardC:  units.KToC(res.Max()),
		MeanBoardC: units.KToC(res.Mean()),
		LocalC:     make(map[string]float64, len(b.Components)),
	}
	for _, c := range b.Components {
		x0, x1, y0, y1 := c.Footprint()
		t := res.MaxInBox(x0, x1, y0, y1, 0, b.ThicknessM)
		if math.IsInf(t, -1) || math.IsNaN(t) {
			t = res.MaxInBox(c.X-2.5e-3, c.X+2.5e-3, c.Y-2.5e-3, c.Y+2.5e-3, 0, b.ThicknessM)
		}
		out.LocalC[c.RefDes] = units.KToC(t)
	}
	return out, nil
}

// level3 computes junction temperatures by stacking each component's
// compact model on its local board temperature.
func (b *BoardDesign) level3(ctx context.Context, l2 *Level2Result) (*Level3Result, error) {
	ctx, sp := obs.StartContext(ctx, "core.Level3")
	defer sp.End()
	n := thermal.NewNetwork()
	airC := b.ChannelAirC
	if b.EdgeCooling != ForcedAir {
		airC = l2.MeanBoardC // stagnant internal air rides near the board
	}
	n.FixT("air", units.CToK(airC))
	hTop := 0.0
	if b.EdgeCooling == ForcedAir {
		hTop = b.ChannelH
		if hTop <= 0 {
			hTop = 40
		}
	}
	for _, c := range b.Components {
		boardNode := "board." + c.RefDes
		n.FixT(boardNode, units.CToK(l2.LocalC[c.RefDes]))
		if err := c.Attach(n, boardNode, "air", hTop); err != nil {
			return nil, err
		}
	}
	res, err := n.SolveSteady(ctx)
	if err != nil {
		return nil, err
	}
	margins := compact.CheckMargins(res, b.Components)
	out := &Level3Result{Margins: margins, AllPass: true}
	for _, m := range margins {
		tjC := units.KToC(m.Tj)
		if tjC > out.WorstC {
			out.WorstC = tjC
		}
		lim := math.Min(m.MaxTj, units.CToK(b.MaxJunctionC))
		if m.Tj > lim {
			out.AllPass = false
		}
	}
	return out, nil
}

// mechanical runs the modal-placement and random-vibration pass.
func (b *BoardDesign) mechanical(ctx context.Context) (*MechResult, error) {
	sp := obs.Start(obs.FromContext(ctx), "core.Mechanical")
	defer sp.End()
	var fn float64
	var err error
	if b.DetailedMech {
		fn, err = b.detailedFundamental()
	} else {
		plate := &mech.Plate{
			A: b.LengthM, B: b.WidthM, Thickness: b.ThicknessM,
			Material:     materials.PCB(b.CopperLayers, b.CopperOz, b.CopperCover, b.ThicknessM),
			Edges:        b.Edges,
			MassLoadKgM2: b.MassLoadKgM2,
		}
		fn, err = plate.FundamentalHz()
	}
	if err != nil {
		return nil, err
	}
	out := &MechResult{FundamentalHz: fn, TargetHz: b.TargetModeHz}
	if b.TargetModeHz > 0 {
		out.ModePlaced = math.Abs(fn-b.TargetModeHz)/b.TargetModeHz <= 0.20
	}
	psd, err := vibration.DO160(b.VibCurve)
	if err != nil {
		return nil, err
	}
	gRMS, err := vibration.ResponseRMS(psd, fn, b.DampingZeta)
	if err != nil {
		return nil, err
	}
	out.ResponseGRMS = gRMS
	z3 := vibration.BoardDisp3Sigma(gRMS, fn)
	out.Z3SigmaUm = z3 * 1e6
	zLim, err := vibration.SteinbergMaxDisp(b.WidthM, b.ComponentCLen, b.ThicknessM, 1.0, 1.0)
	if err != nil {
		return nil, err
	}
	out.SteinbergUm = zLim * 1e6
	out.FatigueOK = z3 < zLim
	// Octave rule against component local modes ≈ lead resonances well
	// above 2×fn for compact parts; report the worst ratio heuristically
	// from component length (shorter part → higher local mode).
	worst := math.Inf(1)
	for _, c := range b.Components {
		localHz := 2.5e3 * 0.02 / math.Max(c.Pkg.Length, 1e-3) // 2.5 kHz at 20 mm
		if r, _ := mech.OctaveRule(fn, localHz); r < worst {
			worst = r
		}
	}
	out.OctaveRatioMin = worst
	return out, nil
}

// detailedFundamental runs the plate FEM with components as point masses.
// Edge conditions map from the closed-form enumeration: SSSS → all
// supported, CCCC → all clamped, WedgeLocked → two clamped edges, SSSF →
// three supported.
func (b *BoardDesign) detailedFundamental() (float64, error) {
	fem, err := mech.NewPlateFEM(b.LengthM, b.WidthM, b.ThicknessM,
		materials.PCB(b.CopperLayers, b.CopperOz, b.CopperCover, b.ThicknessM), 8, 8)
	if err != nil {
		return 0, err
	}
	fem.MassLoadKgM2 = b.MassLoadKgM2
	switch b.Edges {
	case mech.CCCC:
		fem.EdgesSupported = [4]bool{}
		fem.EdgesClamped = [4]bool{true, true, true, true}
	case mech.WedgeLocked:
		fem.EdgesSupported = [4]bool{}
		fem.EdgesClamped = [4]bool{false, false, true, true} // long edges clamped
	case mech.SSSF:
		fem.EdgesSupported = [4]bool{true, true, true, false}
	default: // SSSS
	}
	for _, c := range b.Components {
		fem.PointMasses = append(fem.PointMasses, mech.PointMass{X: c.X, Y: c.Y, Kg: c.Mass()})
	}
	return fem.FundamentalHz()
}
