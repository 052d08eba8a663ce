package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"aeropack/internal/compact"
	"aeropack/internal/linalg"
	"aeropack/internal/obs"
	"aeropack/internal/robust"
	"aeropack/internal/units"
)

func testScreen() Screen {
	return DefaultScreen(Envelope{L: 0.4, W: 0.3, H: 0.2})
}

func TestTechnologyCapacityOrdering(t *testing.T) {
	// The §III survey ordering: free convection < forced air <
	// conduction/flow-through in equipment capacity; two-phase dominates
	// on hot-spot flux.
	s := testScreen()
	lims := map[CoolingTech]TechLimits{}
	for tech := FreeConvection; tech < numTechs; tech++ {
		l, err := s.Limits(tech)
		if err != nil {
			t.Fatal(err)
		}
		lims[tech] = l
	}
	if lims[FreeConvection].MaxPowerW >= lims[ForcedAir].MaxPowerW {
		t.Error("forced air must beat free convection on power")
	}
	if lims[ForcedAir].MaxPowerW >= lims[FlowThrough].MaxPowerW {
		t.Error("flow-through must beat forced air on power")
	}
	for tech, l := range lims {
		if tech == TwoPhase {
			continue
		}
		if l.MaxFluxWCm2 >= lims[TwoPhase].MaxFluxWCm2 {
			t.Errorf("%v flux %v should trail two-phase %v", tech, l.MaxFluxWCm2, lims[TwoPhase].MaxFluxWCm2)
		}
	}
	// The paper's core claim: standard forced air cannot cope above
	// ≈10 W/cm²; two-phase reaches the 100 W/cm² class.
	if lims[ForcedAir].MaxFluxWCm2 > 15 {
		t.Errorf("forced-air flux capability %v should cap near 10 W/cm²", lims[ForcedAir].MaxFluxWCm2)
	}
	if lims[TwoPhase].MaxFluxWCm2 < 100 {
		t.Errorf("two-phase flux capability %v should reach 100 W/cm²", lims[TwoPhase].MaxFluxWCm2)
	}
}

func TestSelectCoolingHotSpotCrossover(t *testing.T) {
	// Low flux: air technologies feasible.  The paper's hot spot
	// (100 W/cm²): only two-phase survives.
	s := testScreen()
	low, err := s.Recommend(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if low.Tech == TwoPhase {
		t.Error("benign case should not need two-phase")
	}
	hot, err := s.Recommend(50, 100)
	if err != nil {
		t.Fatal(err)
	}
	if hot.Tech != TwoPhase {
		t.Errorf("100 W/cm² hot spot must demand two-phase, got %v", hot.Tech)
	}
	// Beyond every technology: error.
	if _, err := s.Recommend(50, 1000); err == nil {
		t.Error("1000 W/cm² should be infeasible for all")
	}
}

func TestSelectCoolingSortsFeasibleByComplexity(t *testing.T) {
	s := testScreen()
	as, err := s.SelectCooling(50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(as) != int(numTechs) {
		t.Fatalf("expected %d assessments", numTechs)
	}
	seenInfeasible := false
	lastComplexity := 0
	for _, a := range as {
		if !a.Feasible {
			seenInfeasible = true
			continue
		}
		if seenInfeasible {
			t.Fatal("feasible options must precede infeasible ones")
		}
		if a.Complexity < lastComplexity {
			t.Fatal("feasible options must be sorted by complexity")
		}
		lastComplexity = a.Complexity
	}
}

func TestSelectCoolingErrors(t *testing.T) {
	s := testScreen()
	if _, err := s.SelectCooling(-1, 1); err == nil {
		t.Error("negative power should error")
	}
	bad := s
	bad.Envelope = Envelope{}
	if _, err := bad.SelectCooling(10, 1); err == nil {
		t.Error("invalid envelope should error")
	}
	if _, err := bad.Limits(FreeConvection); err == nil {
		t.Error("invalid envelope limits should error")
	}
}

func TestTechStringAndComplexity(t *testing.T) {
	for tech := FreeConvection; tech < numTechs; tech++ {
		if strings.HasPrefix(tech.String(), "CoolingTech(") {
			t.Errorf("missing name for %d", int(tech))
		}
		if c := tech.Complexity(); c < 1 || c > 5 {
			t.Errorf("complexity %d out of band", c)
		}
	}
	if CoolingTech(77).String() != "CoolingTech(77)" {
		t.Error("unknown tech string")
	}
}

// goodBoard is a conduction-cooled module that should pass the full flow.
func goodBoard() *BoardDesign {
	return &BoardDesign{
		Name: "proc-module", LengthM: 0.16, WidthM: 0.23, ThicknessM: 2.4e-3,
		CopperLayers: 12, CopperOz: 2, CopperCover: 0.7,
		EdgeCooling: ConductionCooled, RailTempC: 30,
		MassLoadKgM2: 3,
		Components: []*compact.Component{
			{RefDes: "U1", Pkg: compact.FCBGACPU, Power: 6, X: 0.08, Y: 0.115},
			{RefDes: "U2", Pkg: compact.BGA256, Power: 2.5, X: 0.04, Y: 0.06},
			{RefDes: "U3", Pkg: compact.QFP208, Power: 2, X: 0.12, Y: 0.17},
			{RefDes: "Q1", Pkg: compact.TO263, Power: 1.5, X: 0.04, Y: 0.18},
		},
	}
}

func TestStudyGoodDesignPasses(t *testing.T) {
	rep, err := Study(goodBoard(), testScreen())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible {
		t.Fatalf("good design should pass; findings: %v", rep.Findings)
	}
	if !rep.Level1.Feasible || rep.Level1.Tech != ConductionCooled {
		t.Errorf("level 1 assessment wrong: %+v", rep.Level1)
	}
	// Level 2 sanity: board between rail and junction limit.
	if rep.Level2.MaxBoardC <= 30 || rep.Level2.MaxBoardC >= 125 {
		t.Errorf("board max %v °C out of band", rep.Level2.MaxBoardC)
	}
	if rep.Level2.MeanBoardC >= rep.Level2.MaxBoardC {
		t.Error("mean must sit below max")
	}
	// The CPU footprint is the hottest local spot.
	if rep.Level2.LocalC["U1"] < rep.Level2.LocalC["U3"] {
		t.Error("CPU local temperature should exceed the QFP's")
	}
	// Level 3: junctions above their local board temperature, below limit.
	if rep.Level3.WorstC <= rep.Level2.MaxBoardC {
		t.Error("worst junction must exceed board temperature")
	}
	if !rep.Level3.AllPass {
		t.Errorf("junctions should pass: %+v", rep.Level3.Margins)
	}
	// Mechanical: wedge-locked module in the hundreds of Hz, fatigue OK.
	if rep.Mech.FundamentalHz < 80 || rep.Mech.FundamentalHz > 2000 {
		t.Errorf("fundamental %v Hz implausible", rep.Mech.FundamentalHz)
	}
	if !rep.Mech.FatigueOK {
		t.Error("good design should pass vibration fatigue")
	}
	if rep.Mech.OctaveRatioMin <= 0 {
		t.Error("octave ratio should be reported")
	}
}

func TestStudyOverheatedDesignFails(t *testing.T) {
	b := goodBoard()
	b.Components[0].Power = 45 // the 30–50 W CPU of the paper's intro, uncooled
	rep, err := Study(b, testScreen())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Feasible {
		t.Error("45 W CPU on a wedge-locked card should fail")
	}
	if rep.Level3.AllPass {
		t.Error("junction check should fail")
	}
	if len(rep.Findings) == 0 {
		t.Error("findings should explain the failure")
	}
}

func TestStudyModePlacement(t *testing.T) {
	// The Ariane exercise: demand a mode near the board's natural value →
	// placed; demand far off → finding raised.
	b := goodBoard()
	rep, err := Study(b, testScreen())
	if err != nil {
		t.Fatal(err)
	}
	fn := rep.Mech.FundamentalHz

	b2 := goodBoard()
	b2.TargetModeHz = fn * 1.05
	rep2, err := Study(b2, testScreen())
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Mech.ModePlaced {
		t.Error("near-target mode should count as placed")
	}
	b3 := goodBoard()
	b3.TargetModeHz = fn * 3
	rep3, err := Study(b3, testScreen())
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Mech.ModePlaced || rep3.Feasible {
		t.Error("far-off allocation should fail placement")
	}
}

func TestStudyForcedAirBoard(t *testing.T) {
	b := goodBoard()
	b.EdgeCooling = ForcedAir
	b.ChannelH = 60
	b.ChannelAirC = 45
	b.Edges = 0 // take the SSSS default path (guides on four sides)
	rep, err := Study(b, testScreen())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Level2.MaxBoardC <= 45 {
		t.Error("board must run above the channel air")
	}
	if rep.Level3.WorstC <= rep.Level2.MeanBoardC {
		t.Error("junctions above board")
	}
}

// TestForcedAirFilm pins the forced-air channel film: a board without
// one (ChannelH ≤ 0) gets 40 W/m²K, the same study bit for bit as one
// that sets it, and a film that is not finite or lies under 1 W/m²K is
// an error naming the film in every entry that builds the board model,
// where 1e-9 W/m²K answered with a board at about 1.6e11 °C.  1 and
// 55 W/m²K still solve.
func TestForcedAirFilm(t *testing.T) {
	board := func(h float64) *BoardDesign {
		b := goodBoard()
		b.EdgeCooling = ForcedAir
		b.ChannelH = h
		b.ChannelAirC = 46
		return b
	}
	unset := board(0)
	l2, err := unset.Level2(testScreen())
	if err != nil {
		t.Fatal(err)
	}
	if unset.ChannelH != 40 {
		t.Errorf("unset film defaulted to %v W/m²K, want 40", unset.ChannelH)
	}
	want, err := board(40).Level2(testScreen())
	if err != nil {
		t.Fatal(err)
	}
	if l2.MaxBoardC != want.MaxBoardC || l2.MeanBoardC != want.MeanBoardC {
		t.Errorf("unset film: board %v / %v °C, at 40 W/m²K %v / %v °C", l2.MaxBoardC, l2.MeanBoardC, want.MaxBoardC, want.MeanBoardC)
	}
	for _, h := range []float64{1e-11, 0.5, math.NaN(), math.Inf(1)} {
		_, studyErr := Study(board(h), testScreen())
		_, l2Err := board(h).Level2(testScreen())
		_, conjErr := ConjugateStudy(context.Background(), board(h), 2e-3, 4)
		for name, err := range map[string]error{"Study": studyErr, "Level2": l2Err, "ConjugateStudy": conjErr} {
			if err == nil || !strings.Contains(err.Error(), "forced-air film") {
				t.Errorf("%s at %v W/m²K: err = %v, want the film rejected", name, h, err)
			}
		}
	}
	for _, h := range []float64{1, 55} {
		if _, err := Study(board(h), testScreen()); err != nil {
			t.Errorf("%v W/m²K: %v", h, err)
		}
	}
}

func TestStudyValidation(t *testing.T) {
	b := goodBoard()
	b.Components = nil
	if _, err := Study(b, testScreen()); err == nil {
		t.Error("componentless board should error")
	}
	b = goodBoard()
	b.Components[0].X = 99
	if _, err := Study(b, testScreen()); err == nil {
		t.Error("off-board component should error")
	}
	b = goodBoard()
	b.LengthM = 0
	if _, err := Study(b, testScreen()); err == nil {
		t.Error("bad geometry should error")
	}
	b = goodBoard()
	b.EdgeCooling = TwoPhase
	if _, err := Study(b, testScreen()); err == nil {
		t.Error("unsupported level-2 cooling should error")
	}
}

func TestTotalPower(t *testing.T) {
	b := goodBoard()
	if !units.ApproxEqual(b.TotalPower(), 12, 1e-12) {
		t.Errorf("TotalPower = %v", b.TotalPower())
	}
}

func TestAltitudeDeratesAirTechnologies(t *testing.T) {
	// At 40,000 ft the air-based capacities collapse while conduction,
	// liquid and two-phase hold — the driver for conduction-cooled
	// avionics in unpressurized bays.
	sl := testScreen()
	alt := testScreen()
	alt.AltitudeM = 12192
	for _, tech := range []CoolingTech{FreeConvection, ForcedAir} {
		l0, err := sl.Limits(tech)
		if err != nil {
			t.Fatal(err)
		}
		l1, err := alt.Limits(tech)
		if err != nil {
			t.Fatal(err)
		}
		if l1.MaxPowerW >= l0.MaxPowerW {
			t.Errorf("%v capacity should derate at altitude: %v vs %v", tech, l1.MaxPowerW, l0.MaxPowerW)
		}
	}
	for _, tech := range []CoolingTech{ConductionCooled, FlowThrough, TwoPhase} {
		l0, _ := sl.Limits(tech)
		l1, _ := alt.Limits(tech)
		if l1.MaxPowerW != l0.MaxPowerW {
			t.Errorf("%v should be altitude-independent", tech)
		}
	}
	// Forced air derates harder than free convection+radiation (the
	// radiative share buffers the free-convection case).
	f0, _ := sl.Limits(ForcedAir)
	f1, _ := alt.Limits(ForcedAir)
	n0, _ := sl.Limits(FreeConvection)
	n1, _ := alt.Limits(FreeConvection)
	if f1.MaxPowerW/f0.MaxPowerW >= n1.MaxPowerW/n0.MaxPowerW {
		t.Error("forced air should derate harder than free convection+radiation")
	}
	bad := testScreen()
	bad.AltitudeM = 1e6
	if _, err := bad.Limits(ForcedAir); err == nil {
		t.Error("absurd altitude should error")
	}
}

func TestStudyDetailedMech(t *testing.T) {
	// The FEM pass with discrete component masses: a valid, plausible
	// frequency, and one that falls when a heavy transformer is placed at
	// the centre of the board.
	b := goodBoard()
	b.DetailedMech = true
	rep, err := Study(b, testScreen())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mech.FundamentalHz < 50 || rep.Mech.FundamentalHz > 2000 {
		t.Errorf("detailed fundamental %v Hz implausible", rep.Mech.FundamentalHz)
	}
	heavy := goodBoard()
	heavy.DetailedMech = true
	heavy.Components = append(heavy.Components, &compact.Component{
		RefDes: "T1", Pkg: compact.TO220, Power: 0.1,
		X: 0.08, Y: 0.115, MassKg: 0.25,
	})
	repHeavy, err := Study(heavy, testScreen())
	if err != nil {
		t.Fatal(err)
	}
	if repHeavy.Mech.FundamentalHz >= rep.Mech.FundamentalHz {
		t.Errorf("central transformer must lower the mode: %v vs %v",
			repHeavy.Mech.FundamentalHz, rep.Mech.FundamentalHz)
	}
}

func TestConjugateStudy(t *testing.T) {
	b := goodBoard()
	b.EdgeCooling = ForcedAir
	b.ChannelH = 50
	b.ChannelAirC = 40
	const mdot = 2.5e-3 // kg/s through the channel
	res, err := ConjugateStudy(context.Background(), b, mdot, 6)
	if err != nil {
		t.Fatal(err)
	}
	// Air heats monotonically downstream from the inlet.
	if res.AirC[0] != 40 {
		t.Errorf("inlet = %v", res.AirC[0])
	}
	for i := 1; i < len(res.AirC); i++ {
		if res.AirC[i] < res.AirC[i-1]-1e-9 {
			t.Fatalf("air must heat downstream: %v", res.AirC)
		}
	}
	exitRise := res.AirC[len(res.AirC)-1] - 40
	if exitRise <= 0.5 {
		t.Errorf("exit rise %v K too small for %v W", exitRise, b.TotalPower())
	}
	// Energy bound: the air cannot pick up more than the board dissipates.
	cpRise := b.TotalPower() / (mdot * 1006)
	if exitRise > cpRise*1.05 {
		t.Errorf("exit rise %v exceeds the energy bound %v", exitRise, cpRise)
	}
	// Coupling converged in a few passes.
	if res.Iterations < 2 || res.Iterations >= 25 {
		t.Errorf("iterations = %v", res.Iterations)
	}
	// Downstream-biased component runs hotter than the single-air-temp
	// level-2 model would predict with inlet air everywhere.
	if res.BoardMaxC <= 40 {
		t.Error("board must run above the inlet air")
	}
	if len(res.LocalC) != len(b.Components) {
		t.Error("missing component probes")
	}
}

// biasBoard carries two identical components, one upstream and one
// downstream, the board of BenchmarkExt_ConjugateChannel.
func biasBoard() *BoardDesign {
	return &BoardDesign{
		Name: "bias", LengthM: 0.2, WidthM: 0.1, ThicknessM: 2e-3,
		CopperLayers: 8, CopperOz: 1, CopperCover: 0.5,
		EdgeCooling: ForcedAir, ChannelH: 50, ChannelAirC: 40,
		Components: []*compact.Component{
			{RefDes: "UP", Pkg: compact.BGA256, Power: 5, X: 0.04, Y: 0.05},
			{RefDes: "DOWN", Pkg: compact.BGA256, Power: 5, X: 0.16, Y: 0.05},
		},
	}
}

func TestConjugateStreamwiseBias(t *testing.T) {
	// The downstream component must run hotter because its air has
	// already been heated.
	res, err := ConjugateStudy(context.Background(), biasBoard(), 1.5e-3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.LocalC["DOWN"] <= res.LocalC["UP"] {
		t.Errorf("downstream part %v °C should run hotter than upstream %v °C",
			res.LocalC["DOWN"], res.LocalC["UP"])
	}
}

// TestConjugateBoardRunsFDM pins the conjugate study's board solves to
// fast diagonalization.  The board is unpainted, and its per-segment
// channel patches carry one film coefficient, so every boundary cell
// has the same conductance and the preconditioner is the exact inverse:
// each of the bias board's 3 FV solves, one per coupling iteration,
// runs one CG iteration under fdm (51 in all under MIC(0), when a patch
// selected the assembled CSR).  The study's table, as
// BenchmarkExt_ConjugateChannel prints it, is pinned too.
func TestConjugateBoardRunsFDM(t *testing.T) {
	reg := obs.NewRegistry()
	prevReg := obs.SetDefault(reg)
	defer obs.SetDefault(prevReg)
	tr := obs.NewTrace()
	prevTr := obs.SetTracer(tr)
	defer obs.SetTracer(prevTr)

	res, err := ConjugateStudy(context.Background(), biasBoard(), 1.5e-3, 8)
	if err != nil {
		t.Fatal(err)
	}
	solves, iters := reg.Counter("linalg_cg_solves_total").Value(), reg.Counter("linalg_solver_iterations_total").Value()
	if res.Iterations != 3 || solves != 3 || iters != 3 {
		t.Errorf("%d coupling iterations, %d CG solves, %d CG iterations; want 3, 3 and 3", res.Iterations, solves, iters)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ev := range file.TraceEvents {
		if ev.Name != "thermal.linSolve" {
			continue
		}
		n++
		if ev.Args["prec"] != "fdm" || ev.Args["iterations"] != "1" {
			t.Errorf("FV solve %d: prec %q, %q CG iterations; want fdm and 1", n, ev.Args["prec"], ev.Args["iterations"])
		}
	}
	if n != 3 {
		t.Errorf("%d thermal.linSolve spans, want 3", n)
	}
	got := fmt.Sprintf("%.1f → %.1f °C, UP %.1f °C, DOWN %.1f °C", res.AirC[0], res.AirC[len(res.AirC)-1], res.LocalC["UP"], res.LocalC["DOWN"])
	if want := "40.0 → 46.6 °C, UP 71.6 °C, DOWN 74.8 °C"; got != want {
		t.Errorf("conjugate table reads %s, want %s", got, want)
	}
}

func TestConjugateValidation(t *testing.T) {
	b := goodBoard() // conduction cooled
	if _, err := ConjugateStudy(context.Background(), b, 1e-3, 6); err == nil {
		t.Error("non-forced-air board should error")
	}
	b2 := goodBoard()
	b2.EdgeCooling = ForcedAir
	if _, err := ConjugateStudy(context.Background(), b2, -1, 6); err == nil {
		t.Error("bad flow should error")
	}
	if _, err := ConjugateStudy(context.Background(), b2, 1e-3, 1); err == nil {
		t.Error("too few segments should error")
	}
}

func TestSealedBoxPhysics(t *testing.T) {
	box := DefaultSealedBox()
	res, err := box.Solve(context.Background(), 20)
	if err != nil {
		t.Fatal(err)
	}
	// Ordering: board > case > ambient.
	if !(res.BoardC > res.CaseC && res.CaseC > box.AmbientC) {
		t.Errorf("temperature ordering broken: board %v, case %v, amb %v",
			res.BoardC, res.CaseC, box.AmbientC)
	}
	// A 20 W sealed unit of this size runs the board some tens of kelvin
	// above ambient.
	rise := res.BoardC - box.AmbientC
	if rise < 10 || rise > 90 {
		t.Errorf("board rise %v K implausible for 20 W", rise)
	}
	// Radiation carries a substantial share of the gap (the reason
	// internal surfaces are blackened): 30–70%.
	if res.GapRadiationShare < 0.3 || res.GapRadiationShare > 0.8 {
		t.Errorf("gap radiation share = %v, want ≈half", res.GapRadiationShare)
	}
	// Shiny internal surfaces hurt.
	shiny := DefaultSealedBox()
	shiny.EmissBoard, shiny.EmissCaseIn = 0.1, 0.1
	resShiny, err := shiny.Solve(context.Background(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if resShiny.BoardC <= res.BoardC {
		t.Error("low-emissivity internals must run hotter")
	}
}

func TestSealedBoxCapacity(t *testing.T) {
	box := DefaultSealedBox()
	pMax, err := box.MaxPower(context.Background(), 95)
	if err != nil {
		t.Fatal(err)
	}
	// Sealed units of this size carry a few tens of watts — the bottom
	// rung of the paper's Fig. 5 survey.
	if pMax < 10 || pMax > 120 {
		t.Errorf("sealed capacity = %v W, want tens", pMax)
	}
	// At the capacity point the board sits at the limit.
	r, err := box.Solve(context.Background(), pMax)
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(r.BoardC, 95, 0.02) {
		t.Errorf("board at capacity = %v °C, want 95", r.BoardC)
	}
	// Altitude shrinks the capacity.
	alt := DefaultSealedBox()
	alt.AltitudeM = 12192
	pAlt, err := alt.MaxPower(context.Background(), 95)
	if err != nil {
		t.Fatal(err)
	}
	if pAlt >= pMax {
		t.Errorf("altitude capacity %v should trail sea level %v", pAlt, pMax)
	}
	if _, err := box.MaxPower(context.Background(), 30); err == nil {
		t.Error("limit below ambient should error")
	}
}

// TestSealedBoxPinnedCapacity: MaxPower pins the board at its limit and
// reads the heat crossing the gap in one solve of at most 10
// factorizations; a forward solve at that power puts the board back on
// the limit within the network's 1e-3 K tolerance, at sea level and at
// FL400, for three limits.
func TestSealedBoxPinnedCapacity(t *testing.T) {
	reg := obs.NewRegistry()
	prev := obs.SetDefault(reg)
	defer obs.SetDefault(prev)
	factorizations := reg.Counter("thermal_network_factorizations_total")
	for _, alt := range []float64{0, 12192} {
		for _, limitC := range []float64{60, 95, 125} {
			box := DefaultSealedBox()
			box.AltitudeM = alt
			f0 := factorizations.Value()
			p, err := box.MaxPower(context.Background(), limitC)
			if err != nil {
				t.Fatalf("%g m, %g °C: %v", alt, limitC, err)
			}
			if f := factorizations.Value() - f0; f > 10 {
				t.Errorf("%g m, %g °C: MaxPower took %d factorizations, want ≤ 10", alt, limitC, f)
			}
			if p <= 0.5 || p >= 500 {
				t.Fatalf("%g m, %g °C: capacity %v W is clamped", alt, limitC, p)
			}
			r, err := box.Solve(context.Background(), p)
			if err != nil {
				t.Fatalf("%g m, %g °C: forward solve at %v W: %v", alt, limitC, p, err)
			}
			if d := math.Abs(r.BoardC - limitC); d > 1e-3 {
				t.Errorf("%g m, %g °C: forward solve at %v W puts the board %.3g K off its limit", alt, limitC, p, d)
			}
		}
	}
}

// TestSealedBoxSolveConverges solves the default box at every 0.25 W
// from 0.5 to 60 W at five altitudes.  Each solve must converge: a gap
// correlation with a jump leaves powers whose Picard loop cycles between
// two board temperatures for all its passes.
func TestSealedBoxSolveConverges(t *testing.T) {
	for _, alt := range []float64{0, 2438, 6000, 9000, 12192} {
		box := DefaultSealedBox()
		box.AltitudeM = alt
		for i := 2; i <= 240; i++ {
			p := 0.25 * float64(i)
			if _, err := box.Solve(context.Background(), p); err != nil {
				t.Errorf("%g m, %g W: %v", alt, p, err)
			}
		}
	}
}

func TestSealedBoxValidation(t *testing.T) {
	box := DefaultSealedBox()
	box.GapM = 0
	if _, err := box.Solve(context.Background(), 10); err == nil {
		t.Error("bad geometry should error")
	}
	box = DefaultSealedBox()
	box.EmissBoard = 2
	if _, err := box.Solve(context.Background(), 10); err == nil {
		t.Error("bad emissivity should error")
	}
	box = DefaultSealedBox()
	if _, err := box.Solve(context.Background(), -5); err == nil {
		t.Error("negative power should error")
	}
}

// TestLevel3Reproducible pins bitwise-reproducible junction results: a
// seven-part level-3 network has eight fixed nodes (the air and one
// board node per part), whose mean seeds the Picard iteration.  Summed
// in map order that seed jittered in its last bits from solve to solve.
func TestLevel3Reproducible(t *testing.T) {
	b := goodBoard()
	b.Components = append(b.Components,
		&compact.Component{RefDes: "U4", Pkg: compact.SOIC8, Power: 0.4, X: 0.13, Y: 0.05},
		&compact.Component{RefDes: "U5", Pkg: compact.BGA676, Power: 3, X: 0.1, Y: 0.04},
		&compact.Component{RefDes: "Q2", Pkg: compact.DPAK, Power: 0.8, X: 0.02, Y: 0.12},
	)
	l2 := &Level2Result{MeanBoardC: 41.3, LocalC: map[string]float64{}}
	for i, c := range b.Components {
		l2.LocalC[c.RefDes] = 37.1 + 1.7*float64(i)
	}
	first, err := b.Level3(l2)
	if err != nil {
		t.Fatal(err)
	}
	for run := 1; run < 200; run++ {
		got, err := b.Level3(l2)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range got.Margins {
			if math.Float64bits(m.Tj) != math.Float64bits(first.Margins[i].Tj) {
				t.Fatalf("run %d: %s Tj %v, first run %v", run, m.RefDes, m.Tj, first.Margins[i].Tj)
			}
		}
	}
}

func TestStudyFreeConvectionBoard(t *testing.T) {
	// The sealed/free-convection level-2 path: radiative+convective faces
	// at the screen ambient.  A light load closes; the board runs well
	// above the 71 °C ambient.
	b := goodBoard()
	b.EdgeCooling = FreeConvection
	b.Edges = 0
	for _, c := range b.Components {
		c.Power *= 0.3 // sealed boxes carry light loads
	}
	rep, err := Study(b, testScreen())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Level2.MaxBoardC <= 71 {
		t.Errorf("free-convection board %v °C should exceed the 71 °C ambient", rep.Level2.MaxBoardC)
	}
	if rep.Level3.WorstC <= rep.Level2.MeanBoardC {
		t.Error("junctions must ride above the board")
	}
}

// freeConvectionBoard is the board of the serve contract's
// study-budget-exceeded request: its level-2 field needs three
// radiating Newton passes.
func freeConvectionBoard() *BoardDesign {
	return &BoardDesign{
		Name: "demo-processing-module", LengthM: 0.16, WidthM: 0.23, ThicknessM: 2.4e-3,
		CopperLayers: 12, CopperOz: 2, CopperCover: 0.7,
		EdgeCooling: FreeConvection, RailTempC: 30, MassLoadKgM2: 3,
		Components: []*compact.Component{
			{RefDes: "U1", Pkg: compact.FCBGACPU, Power: 6, X: 0.08, Y: 0.115},
			{RefDes: "U2", Pkg: compact.BGA256, Power: 2.5, X: 0.04, Y: 0.06},
		},
	}
}

// TestRunKeepGoingBudgetStopsLevel2: with keep-going and a poll budget
// of 1, the level-2 solve stops with linalg.ErrStopped, level 3 is
// recorded as skipped, and the solver-free level-1 and mechanical
// sections are bitwise equal to the unbudgeted run's.  Without
// keep-going the same budget fails the study.
func TestRunKeepGoingBudgetStopsLevel2(t *testing.T) {
	screen := DefaultScreen(Envelope{L: 0.4, W: 0.3, H: 0.2})
	clean, errs, err := Run(context.Background(), freeConvectionBoard(), screen, robust.Options{})
	if err != nil || errs != nil {
		t.Fatalf("unbudgeted run: errs %v, err %v", errs, err)
	}
	budget := robust.WithPollBudget(context.Background(), 1)
	if _, _, err := Run(budget, freeConvectionBoard(), screen, robust.Options{}); !errors.Is(err, linalg.ErrStopped) {
		t.Errorf("without keep-going: err = %v, want linalg.ErrStopped", err)
	}

	budget = robust.WithPollBudget(context.Background(), 1)
	rep, errs, err := Run(budget, freeConvectionBoard(), screen, robust.Options{KeepGoing: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) != 2 || errs[0].Label != "level2" || !errors.Is(errs[0], linalg.ErrStopped) ||
		errs[1].Label != "level3" || !strings.Contains(errs[1].Error(), "skipped") {
		t.Fatalf("point errors = %v, want level 2 stopped and level 3 skipped", errs)
	}
	if rep.Level2 != nil || rep.Level3 != nil || rep.Feasible {
		t.Errorf("report keeps level 2 %v, level 3 %v, feasible %t; want neither and infeasible", rep.Level2, rep.Level3, rep.Feasible)
	}
	if rep.Level1 != clean.Level1 {
		t.Errorf("level 1 = %+v, want the unbudgeted %+v", rep.Level1, clean.Level1)
	}
	if rep.Mech == nil || *rep.Mech != *clean.Mech {
		t.Errorf("mech = %+v, want the unbudgeted %+v", rep.Mech, clean.Mech)
	}
}
