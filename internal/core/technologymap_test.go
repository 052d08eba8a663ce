package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestTechnologyMapSerialVsParallel(t *testing.T) {
	s := DefaultScreen(Envelope{L: 0.4, W: 0.3, H: 0.2})
	powers := []float64{50, 150, 400, 900}
	fluxes := []float64{1, 10, 50, 100}
	want, err := s.TechnologyMap(powers, fluxes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(powers) || len(want[0]) != len(fluxes) {
		t.Fatalf("map shape %d×%d, want %d×%d", len(want), len(want[0]), len(powers), len(fluxes))
	}
	for _, w := range []int{2, 4, 0} {
		got, err := s.TechnologyMap(powers, fluxes, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: technology map differs from serial", w)
		}
	}
}

func TestTechnologyMapContent(t *testing.T) {
	s := DefaultScreen(Envelope{L: 0.4, W: 0.3, H: 0.2})
	m, err := s.TechnologyMap([]float64{50, 1e6}, []float64{1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !m[0][0].Feasible {
		t.Error("50 W at 1 W/cm² should have a feasible technology")
	}
	if m[1][0].Feasible {
		t.Error("1 MW in a shoebox should be infeasible, not an error")
	}
	if m[0][0].PowerW != 50 || m[0][0].FluxWCm2 != 1 {
		t.Errorf("cell coordinates not recorded: %+v", m[0][0])
	}

	if _, err := s.TechnologyMap([]float64{-1}, []float64{1}, 2); err == nil {
		t.Error("invalid power did not surface an error")
	}
}

// cellFromSelect builds the cell a map holds at (p, f) from that point's
// own SelectCooling result.
func cellFromSelect(t *testing.T, s Screen, p, f float64) TechCell {
	t.Helper()
	as, err := s.SelectCooling(p, f)
	if err != nil {
		t.Fatalf("SelectCooling(%g, %g): %v", p, f, err)
	}
	cell := TechCell{PowerW: p, FluxWCm2: f}
	if as[0].Feasible {
		cell.Recommended, cell.Feasible = as[0], true
	}
	return cell
}

// firstSelectErr is the error a cell-by-cell SelectCooling scan of the
// grid meets first, in flattened order, or nil.
func firstSelectErr(s Screen, powers, fluxes []float64) error {
	for _, p := range powers {
		for _, f := range fluxes {
			if _, err := s.SelectCooling(p, f); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestTechnologyMapMatchesSelectCooling pins the map, which evaluates
// the limits once and keeps each cell's first best assessment, to the
// per-point path: every cell equals the one built from its own
// SelectCooling, infeasible cells included, over random screens whose
// altitudes reach both air derates; an invalid grid fails with the
// error the per-point scan meets first; and a tie in complexity and
// power margin keeps the earlier technology, as the stable sort does.
func TestTechnologyMapMatchesSelectCooling(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	logUniform := func(lo, hi float64) float64 {
		return lo * math.Pow(hi/lo, rng.Float64())
	}
	feasible, infeasible := 0, 0
	for trial := 0; trial < 300; trial++ {
		s := DefaultScreen(Envelope{
			L: 0.05 + 0.95*rng.Float64(),
			W: 0.05 + 0.95*rng.Float64(),
			H: 0.05 + 0.95*rng.Float64(),
		})
		s.AmbientC = -40 + 125*rng.Float64()
		s.AltitudeM = 15000 * rng.Float64()
		if trial%5 == 0 {
			s.AltitudeM = 0
		}
		powers := make([]float64, 1+rng.Intn(7))
		for i := range powers {
			powers[i] = logUniform(1e-3, 1e6)
		}
		fluxes := make([]float64, 1+rng.Intn(7))
		for i := range fluxes {
			fluxes[i] = 1e3 * rng.Float64()
		}
		fluxes[rng.Intn(len(fluxes))] = 0
		m, err := s.TechnologyMap(powers, fluxes, 1)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for pi, p := range powers {
			for fi, f := range fluxes {
				want := cellFromSelect(t, s, p, f)
				if !reflect.DeepEqual(m[pi][fi], want) {
					t.Fatalf("trial %d, cell (%d, %d) at %g W, %g W/cm²:\n got %+v\nwant %+v", trial, pi, fi, p, f, m[pi][fi], want)
				}
				if want.Feasible {
					feasible++
				} else {
					infeasible++
				}
			}
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("%d feasible and %d infeasible cells: the screens do not span both outcomes", feasible, infeasible)
	}

	base := DefaultScreen(Envelope{L: 0.4, W: 0.3, H: 0.2})
	high := base
	high.AltitudeM = 30000
	flat := base
	flat.Envelope.H = 0
	for _, tc := range []struct {
		name           string
		s              Screen
		powers, fluxes []float64
	}{
		{"invalid power at a later index", base, []float64{50, 100, -1}, []float64{1, 10}},
		{"zero power after a valid row", base, []float64{50, 0}, []float64{1}},
		{"negative flux at a later index", base, []float64{50, 100}, []float64{1, -2, -3}},
		{"invalid envelope", flat, []float64{50, 100}, []float64{1}},
		{"invalid envelope behind an invalid power", flat, []float64{-5, 100}, []float64{1}},
		{"altitude outside the standard atmosphere", high, []float64{50}, []float64{1, 10}},
	} {
		want := firstSelectErr(tc.s, tc.powers, tc.fluxes)
		if want == nil {
			t.Fatalf("%s: the per-point scan found no error", tc.name)
		}
		_, err := tc.s.TechnologyMap(tc.powers, tc.fluxes, 1)
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%s: map error %v, want %q", tc.name, err, want)
		}
	}
	if m, err := high.TechnologyMap(nil, []float64{1}, 1); err != nil || len(m) != 0 {
		t.Errorf("an empty grid on a failing screen: %v, %v; want an empty map and no error", m, err)
	}

	// Flow-through and two-phase share complexity 4; given equal
	// capacities they tie on power margin, and only their flux limits
	// tell them apart.  Every other technology is infeasible.
	var lims [numTechs]TechLimits
	for tech := range lims {
		lims[tech] = TechLimits{Tech: CoolingTech(tech), MaxPowerW: 1, MaxFluxWCm2: 1}
	}
	lims[FlowThrough] = TechLimits{Tech: FlowThrough, MaxPowerW: 500, MaxFluxWCm2: 80}
	lims[TwoPhase] = TechLimits{Tech: TwoPhase, MaxPowerW: 500, MaxFluxWCm2: 150}
	sorted := make([]Assessment, numTechs)
	for i, lim := range lims {
		sorted[i] = assess(lim, 100, 10)
	}
	sort.SliceStable(sorted, func(i, j int) bool { return ranksBefore(sorted[i], sorted[j]) })
	if sorted[0].Tech != FlowThrough || sorted[1].Tech != TwoPhase {
		t.Fatalf("stable sort ranks %v, %v first; want flow-through, then two-phase", sorted[0].Tech, sorted[1].Tech)
	}
	got := recommend(&lims, 100, 10)
	if !got.Feasible || !reflect.DeepEqual(got.Recommended, sorted[0]) {
		t.Errorf("tied scan recommends %+v, want the stable sort's first %+v", got.Recommended, sorted[0])
	}
}
