package core

import (
	"context"
	"fmt"
	"math"

	"aeropack/internal/materials"
	"aeropack/internal/mesh"
	"aeropack/internal/thermal"
	"aeropack/internal/units"
)

// ConjugateResult is the outcome of the coupled board/air-channel solve.
type ConjugateResult struct {
	// AirC is the channel air temperature at each streamwise segment
	// boundary (len nSeg+1), °C; AirC[0] is the inlet.
	AirC []float64
	// BoardMaxC / MeanC as in the level-2 pass.
	BoardMaxC  float64
	BoardMeanC float64
	// LocalC per component, °C.
	LocalC map[string]float64
	// Iterations of the board/air coupling loop.
	Iterations int
}

// ConjugateStudy upgrades the level-2 pass for forced-air boards: instead
// of a single channel air temperature, the air heats up as it sweeps the
// card (x = streamwise direction), so downstream components see hotter
// air.  The board FV model and the channel energy balance are coupled by
// Picard iteration: solve the board with per-segment air temperatures,
// integrate the picked-up heat downstream, repeat.
//
// mdot is the channel air mass flow (kg/s); nSeg the streamwise segment
// count.  ctx budgets every board solve.
func ConjugateStudy(ctx context.Context, b *BoardDesign, mdot float64, nSeg int) (*ConjugateResult, error) {
	b.defaults()
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if b.EdgeCooling != ForcedAir {
		return nil, fmt.Errorf("core: conjugate study needs a forced-air board")
	}
	if mdot <= 0 || nSeg < 2 {
		return nil, fmt.Errorf("core: conjugate study needs positive flow and ≥2 segments")
	}
	h := b.ChannelH
	if h <= 0 {
		h = 40
	}
	inlet := b.ChannelAirC
	cp := materials.Air(units.CToK(inlet), units.AtmPressure).Cp

	// Segment boundaries along x.
	segX := make([]float64, nSeg+1)
	for i := range segX {
		segX[i] = b.LengthM * float64(i) / float64(nSeg)
	}
	airC := make([]float64, nSeg+1)
	for i := range airC {
		airC[i] = inlet
	}

	build := func() (*thermal.Model, *mesh.Grid, error) {
		nx := int(math.Max(float64(2*nSeg), 16))
		ny := 16
		g, err := mesh.Uniform(nx, ny, 2, b.LengthM, b.WidthM, b.ThicknessM)
		if err != nil {
			return nil, nil, err
		}
		pcb := materials.PCB(b.CopperLayers, b.CopperOz, b.CopperCover, b.ThicknessM)
		m, err := thermal.NewModel(g, []materials.Material{pcb})
		if err != nil {
			return nil, nil, err
		}
		for s := 0; s < nSeg; s++ {
			tSeg := units.CToK(0.5 * (airC[s] + airC[s+1]))
			bc := thermal.BC{Kind: thermal.Convection, T: tSeg, H: h}
			m.AddPatchBC(mesh.ZMin, segX[s], segX[s+1], 0, b.WidthM, 0, b.ThicknessM, bc)
			m.AddPatchBC(mesh.ZMax, segX[s], segX[s+1], 0, b.WidthM, 0, b.ThicknessM, bc)
		}
		for _, c := range b.Components {
			x0, x1, y0, y1 := c.Footprint()
			if m.AddVolumeSource(x0, x1, y0, y1, 0, b.ThicknessM, c.Power) == 0 {
				if m.AddVolumeSource(c.X-3e-3, c.X+3e-3, c.Y-3e-3, c.Y+3e-3, 0, b.ThicknessM, c.Power) == 0 {
					return nil, nil, fmt.Errorf("core: source for %s missed the conjugate mesh", c.RefDes)
				}
			}
		}
		return m, g, nil
	}

	res := &ConjugateResult{LocalC: map[string]float64{}}
	var field *thermal.Result
	for iter := 0; iter < 25; iter++ {
		res.Iterations = iter + 1
		m, _, err := build()
		if err != nil {
			return nil, err
		}
		f, err := m.SolveSteady(ctx, nil)
		if err != nil {
			return nil, err
		}
		field = f
		// Segment heat pickup: film flux from the mean board temperature
		// per segment, then normalised so the total equals the board's
		// dissipation — at steady state every watt leaves through the
		// channel, so the distribution shapes the profile while global
		// energy conservation pins the exit temperature exactly.
		qSeg := make([]float64, nSeg)
		total := 0.0
		for s := 0; s < nSeg; s++ {
			tb := f.MeanInBox(segX[s], segX[s+1], 0, b.WidthM, 0, b.ThicknessM)
			tAir := units.CToK(0.5 * (airC[s] + airC[s+1]))
			area := 2 * (segX[s+1] - segX[s]) * b.WidthM // both faces
			q := h * area * (tb - tAir)
			if q < 0 {
				q = 0
			}
			qSeg[s] = q
			total += q
		}
		if total > 0 {
			scale := b.TotalPower() / total
			for s := range qSeg {
				qSeg[s] *= scale
			}
		}
		newAir := make([]float64, nSeg+1)
		newAir[0] = inlet
		maxDelta := 0.0
		for s := 0; s < nSeg; s++ {
			newAir[s+1] = newAir[s] + qSeg[s]/(mdot*cp)
			if d := math.Abs(newAir[s+1] - airC[s+1]); d > maxDelta {
				maxDelta = d
			}
		}
		copy(airC, newAir)
		if maxDelta < 0.02 {
			break
		}
	}

	res.AirC = airC
	res.BoardMaxC = units.KToC(field.Max())
	res.BoardMeanC = units.KToC(field.Mean())
	for _, c := range b.Components {
		x0, x1, y0, y1 := c.Footprint()
		t := field.MaxInBox(x0, x1, y0, y1, 0, b.ThicknessM)
		if math.IsInf(t, -1) || math.IsNaN(t) {
			t = field.MaxInBox(c.X-3e-3, c.X+3e-3, c.Y-3e-3, c.Y+3e-3, 0, b.ThicknessM)
		}
		res.LocalC[c.RefDes] = units.KToC(t)
	}
	return res, nil
}
