package core

import (
	"context"
	"fmt"
	"strings"

	"aeropack/internal/convection"
	"aeropack/internal/robust"
	"aeropack/internal/units"
)

// Equipment is a complete rack/box: several boards sharing the cooling
// infrastructure, studied together — the paper's equipment level with the
// board and component levels nested inside.
type Equipment struct {
	Name     string
	Envelope Envelope
	Boards   []*BoardDesign
	// InletAirC is the forced-air supply temperature (ARINC 600 inlet).
	InletAirC float64
	// FlowDerate scales the ARINC allocation (1 = full 220 kg/h/kW;
	// <1 models a platform that cannot supply the book value).
	FlowDerate float64
}

// EquipmentReport aggregates the per-board studies.
type EquipmentReport struct {
	Equipment   *Equipment
	TotalPowerW float64
	MassFlow    float64 // kg/s
	AirRiseK    float64 // bulk rack air rise
	Boards      []*Report
	Feasible    bool
	Findings    []string
}

// StudyEquipment runs the full flow on every board.  Forced-air boards
// receive a channel air temperature of inlet + half the bulk rise
// (parallel channels, mean-bulk approximation); other boards keep their
// own settings.  ctx budgets every board's study.
func StudyEquipment(ctx context.Context, eq *Equipment, screen Screen) (*EquipmentReport, error) {
	if eq == nil || len(eq.Boards) == 0 {
		return nil, fmt.Errorf("core: equipment needs at least one board")
	}
	if eq.FlowDerate == 0 {
		eq.FlowDerate = 1
	}
	if eq.FlowDerate < 0 || eq.FlowDerate > 2 {
		return nil, fmt.Errorf("core: flow derate %g out of range", eq.FlowDerate)
	}
	rep := &EquipmentReport{Equipment: eq, Feasible: true}
	for _, b := range eq.Boards {
		rep.TotalPowerW += b.TotalPower()
	}
	rep.MassFlow = convection.ARINCMassFlow(rep.TotalPowerW) * eq.FlowDerate
	rep.AirRiseK = convection.AirTempRise(rep.TotalPowerW, rep.MassFlow, units.CToK(eq.InletAirC))

	for _, b := range eq.Boards {
		if b.EdgeCooling == ForcedAir && b.ChannelAirC == 0 {
			b.ChannelAirC = eq.InletAirC + rep.AirRiseK/2
		}
		r, _, err := Run(ctx, b, screen, robust.Options{})
		if err != nil {
			return nil, fmt.Errorf("core: board %q: %w", b.Name, err)
		}
		rep.Boards = append(rep.Boards, r)
		if !r.Feasible {
			rep.Feasible = false
		}
		for _, f := range r.Findings {
			rep.Findings = append(rep.Findings, b.Name+": "+f)
		}
	}
	if rep.AirRiseK > 25 {
		rep.Feasible = false
		rep.Findings = append(rep.Findings,
			fmt.Sprintf("equipment: rack air rise %.1f K exceeds the 25 K envelope", rep.AirRiseK))
	}
	return rep, nil
}

// Document renders a board report as the paper's "packaging design
// document": the end artefact of the Fig. 1 procedure.
func (r *Report) Document() string {
	var b strings.Builder
	fmt.Fprintf(&b, "PACKAGING DESIGN DOCUMENT — %s\n", r.Board.Name)
	fmt.Fprintf(&b, "%s\n\n", strings.Repeat("=", 40+len(r.Board.Name)))

	fmt.Fprintf(&b, "1. SPECIFICATION ANALYSIS\n")
	fmt.Fprintf(&b, "   dissipation %.1f W over %d components, %s\n",
		r.Board.TotalPower(), len(r.Board.Components), r.Board.EdgeCooling)

	fmt.Fprintf(&b, "2. THERMAL DESIGN\n")
	fmt.Fprintf(&b, "   level 1: %s — capacity %.0f W (margin %+.0f%%), hot-spot %.1f W/cm² (margin %+.0f%%)\n",
		r.Level1.Tech, r.Level1.MaxPowerW, r.Level1.PowerMargin*100,
		r.Level1.MaxFluxWCm2, r.Level1.FluxMargin*100)
	fmt.Fprintf(&b, "   level 2: board max %.1f °C, mean %.1f °C\n",
		r.Level2.MaxBoardC, r.Level2.MeanBoardC)
	fmt.Fprintf(&b, "   level 3: worst junction %.1f °C — %s\n",
		r.Level3.WorstC, passFail(r.Level3.AllPass))
	for _, m := range r.Level3.Margins {
		fmt.Fprintf(&b, "            %-6s Tj %6.1f °C margin %6.1f K\n",
			m.RefDes, units.KToC(m.Tj), m.Margin)
	}

	fmt.Fprintf(&b, "3. MECHANICAL DESIGN\n")
	fmt.Fprintf(&b, "   fundamental %.0f Hz", r.Mech.FundamentalHz)
	if r.Mech.TargetHz > 0 {
		fmt.Fprintf(&b, " (allocation %.0f Hz — %s)", r.Mech.TargetHz, passFail(r.Mech.ModePlaced))
	}
	fmt.Fprintf(&b, "\n   random vibration %s: response %.2f gRMS, Z3σ %.0f µm vs %.0f µm allowable — %s\n",
		r.Board.VibCurve, r.Mech.ResponseGRMS, r.Mech.Z3SigmaUm, r.Mech.SteinbergUm,
		passFail(r.Mech.FatigueOK))
	fmt.Fprintf(&b, "   octave rule worst ratio %.1f\n", r.Mech.OctaveRatioMin)

	fmt.Fprintf(&b, "4. WEAKNESSES AND MARGINS\n")
	if len(r.Findings) == 0 {
		fmt.Fprintf(&b, "   none — design closes\n")
	}
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "   - %s\n", f)
	}
	fmt.Fprintf(&b, "VERDICT: %s\n", passFail(r.Feasible))
	return b.String()
}

// Document renders the equipment-level design document.
func (er *EquipmentReport) Document() string {
	var b strings.Builder
	fmt.Fprintf(&b, "EQUIPMENT DESIGN DOCUMENT — %s\n", er.Equipment.Name)
	fmt.Fprintf(&b, "total dissipation %.0f W, ARINC flow %.1f kg/h, air rise %.1f K\n\n",
		er.TotalPowerW, units.ToKgPerHour(er.MassFlow), er.AirRiseK)
	for _, r := range er.Boards {
		b.WriteString(r.Document())
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "EQUIPMENT VERDICT: %s\n", passFail(er.Feasible))
	return b.String()
}

func passFail(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}
