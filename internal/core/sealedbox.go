package core

import (
	"context"
	"fmt"

	"aeropack/internal/convection"
	"aeropack/internal/radiation"
	"aeropack/internal/thermal"
	"aeropack/internal/units"
)

// SealedBox is the paper's simplest equipment architecture (§III "radiation
// and free convection in the air"): electronics sealed in a case, no
// airflow connection — the heat crosses the internal air gap by enclosure
// convection and radiation, then leaves the case by natural convection and
// radiation.  Fluid/sand/dust resistance comes free; thermal capacity is
// the price.
type SealedBox struct {
	// Case geometry.
	L, W, H float64 // m
	// GapM is the board-to-wall air gap, m.
	GapM float64
	// BoardArea is the dissipating board's face area, m².
	BoardArea float64
	// EmissBoard / EmissCaseIn are the internal surface emissivities.
	EmissBoard, EmissCaseIn float64
	// EmissCaseOut for the external surfaces (anodize/paint ≈ 0.85).
	EmissCaseOut float64
	// AmbientC outside the box.
	AmbientC float64
	// AltitudeM derates the buoyant films (ISA).
	AltitudeM float64
}

// DefaultSealedBox returns a 250×200×80 mm sealed unit.
func DefaultSealedBox() *SealedBox {
	return &SealedBox{
		L: 0.25, W: 0.20, H: 0.08,
		GapM:         0.01,
		BoardArea:    0.2 * 0.15,
		EmissBoard:   0.9,
		EmissCaseIn:  0.85,
		EmissCaseOut: 0.85,
		AmbientC:     40,
	}
}

// Validate checks the geometry.
func (s *SealedBox) Validate() error {
	if s.L <= 0 || s.W <= 0 || s.H <= 0 || s.GapM <= 0 || s.BoardArea <= 0 {
		return fmt.Errorf("core: sealed box geometry invalid")
	}
	for _, e := range []float64{s.EmissBoard, s.EmissCaseIn, s.EmissCaseOut} {
		if e <= 0 || e > 1 {
			return fmt.Errorf("core: sealed box emissivities must be in (0,1]")
		}
	}
	return nil
}

// caseArea is the external wetted area.
func (s *SealedBox) caseArea() float64 {
	return 2 * (s.L*s.W + s.L*s.H + s.W*s.H)
}

// SealedBoxResult is the solved operating point.
type SealedBoxResult struct {
	BoardC float64
	CaseC  float64
	// GapRadiationShare is the fraction of board heat crossing the gap by
	// radiation (the reason internal surfaces are blackened).
	GapRadiationShare float64
}

// Solve finds the steady board and case temperatures for dissipation
// power (W) using the nonlinear network: board → (gap enclosure
// convection ∥ radiation) → case → (external natural convection ∥
// radiation) → ambient, under ctx's budget.
func (s *SealedBox) Solve(ctx context.Context, power float64) (*SealedBoxResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if power <= 0 {
		return nil, fmt.Errorf("core: power must be positive")
	}
	derate := 1.0
	if s.AltitudeM > 0 {
		d, err := materialsNaturalDerate(s.AltitudeM)
		if err != nil {
			return nil, err
		}
		derate = d
	}
	Ta := units.CToK(s.AmbientC)
	n := thermal.NewNetwork()
	n.FixT("amb", Ta)
	n.AddSource("board", power)
	// Board → case: enclosure convection and radiation in parallel; both
	// nonlinear in the temperatures.
	gapConv := func(Tb, Tc, Q float64) float64 {
		if Tb <= Tc {
			Tb = Tc + 0.5
		}
		h := convection.EnclosureVertical(s.GapM, s.H, Tb, Tc) * derate
		return 1 / (h * s.BoardArea)
	}
	gapRad := func(Tb, Tc, Q float64) float64 {
		if Tb <= Tc {
			Tb = Tc + 0.5
		}
		// Effective parallel-plate grey exchange coefficient.
		eps := 1 / (1/s.EmissBoard + 1/s.EmissCaseIn - 1)
		h := radiation.RadiativeCoefficient(eps, Tb, Tc)
		return 1 / (h * s.BoardArea)
	}
	if err := n.AddVariableResistor("board", "case", 2, gapConv); err != nil {
		return nil, err
	}
	if err := n.AddVariableResistor("board", "case", 2, gapRad); err != nil {
		return nil, err
	}
	// Case → ambient.
	caseOut := func(Tc, Tamb, Q float64) float64 {
		if Tc <= Tamb {
			Tc = Tamb + 0.5
		}
		h := convection.NaturalVerticalPlate(s.H, Tc, Tamb)*derate +
			radiation.RadiativeCoefficient(s.EmissCaseOut, Tc, Tamb)
		return 1 / (h * s.caseArea())
	}
	if err := n.AddVariableResistor("case", "amb", 1, caseOut); err != nil {
		return nil, err
	}
	res, err := n.SolveSteadyTol(ctx, 1e-3, 200)
	if err != nil {
		return nil, err
	}
	out := &SealedBoxResult{
		BoardC: units.KToC(res.T["board"]),
		CaseC:  units.KToC(res.T["case"]),
	}
	// Flow[0] is the convective gap element, Flow[1] the radiative one.
	qc, qr := res.Flow[0], res.Flow[1]
	if qc+qr > 0 {
		out.GapRadiationShare = qr / (qc + qr)
	}
	return out, nil
}

// MaxPower returns the dissipation at which the board reaches limitC —
// the sealed architecture's capacity line in the Fig. 5 survey.  ctx
// budgets every solve of the bisection.
func (s *SealedBox) MaxPower(ctx context.Context, limitC float64) (float64, error) {
	if limitC <= s.AmbientC {
		return 0, fmt.Errorf("core: limit must exceed ambient")
	}
	lo, hi := 0.5, 500.0
	rHi, err := s.Solve(ctx, hi)
	if err != nil {
		return 0, err
	}
	if rHi.BoardC < limitC {
		return hi, nil
	}
	for i := 0; i < 50; i++ {
		mid := 0.5 * (lo + hi)
		r, err := s.Solve(ctx, mid)
		if err != nil {
			return 0, err
		}
		if r.BoardC < limitC {
			lo = mid
		} else {
			hi = mid
		}
	}
	return 0.5 * (lo + hi), nil
}

// materialsNaturalDerate is a tiny indirection kept here so sealedbox.go
// has no direct materials import beyond the one in technology.go.
func materialsNaturalDerate(alt float64) (float64, error) {
	s := Screen{AltitudeM: alt, Envelope: Envelope{L: 1, W: 1, H: 1}}
	n, _, err := s.airDerates()
	return n, err
}
