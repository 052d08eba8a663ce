package cosee

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"aeropack/internal/linalg"
	"aeropack/internal/materials"
	"aeropack/internal/robust"
	"aeropack/internal/units"
)

func TestNoLHPCurveShape(t *testing.T) {
	// Fig. 10 "without LHP": monotone, sublinear-in-ΔT curve reaching
	// ≈60 K at ≈40 W.
	cfg := Config{}
	pts, _, err := cfg.Sweep(context.Background(), []float64{10, 20, 30, 40, 50}, robust.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].DeltaTK <= pts[i-1].DeltaTK {
			t.Fatal("ΔT must increase with power")
		}
	}
	at40 := pts[3].DeltaTK
	if at40 < 52 || at40 > 68 {
		t.Errorf("ΔT(40 W, no LHP) = %v K, paper shows ≈60", at40)
	}
	// Natural convection: ΔT grows sublinearly... actually R falls with
	// ΔT so the curve is concave-down in ΔT(P)?  h∝ΔT^{1/4} → ΔT∝P^{4/5}:
	// check ΔT(40)/ΔT(20) < 2 (sublinear).
	if pts[3].DeltaTK/pts[1].DeltaTK >= 2 {
		t.Error("natural-convection curve should be sublinear in power")
	}
	// No LHP flow in this configuration.
	if pts[3].LHPPower != 0 {
		t.Error("no-LHP configuration must carry no loop power")
	}
}

func TestFig10HeadlineNumbers(t *testing.T) {
	// The paper's headline: 40 W → 100 W capability at constant PCB
	// temperature (+150%), a 32 °C PCB temperature decrease at 40 W, and
	// 58 W carried by the loops at 100 W SEB power.
	s, _, err := RunFig10(context.Background(), Config{Structure: materials.Al6061}, robust.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.CapabilityNoLHP < 34 || s.CapabilityNoLHP > 47 {
		t.Errorf("no-LHP capability = %v W, paper ≈40", s.CapabilityNoLHP)
	}
	if s.CapabilityLHP < 88 || s.CapabilityLHP > 114 {
		t.Errorf("LHP capability = %v W, paper ≈100", s.CapabilityLHP)
	}
	if s.ImprovementPct < 110 || s.ImprovementPct > 190 {
		t.Errorf("improvement = %v%%, paper ≈150%%", s.ImprovementPct)
	}
	if s.CoolingAt40W < 24 || s.CoolingAt40W > 40 {
		t.Errorf("cooling at 40 W = %v K, paper ≈32", s.CoolingAt40W)
	}
	if s.LHPPowerAt100W < 45 || s.LHPPowerAt100W > 70 {
		t.Errorf("LHP power at 100 W = %v W, paper ≈58", s.LHPPowerAt100W)
	}
}

func TestTiltInsensitivity(t *testing.T) {
	// Fig. 10: the 22° tilt curve hugs the horizontal curve.
	s, _, err := RunFig10(context.Background(), Config{Structure: materials.Al6061}, robust.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rel := math.Abs(s.CapabilityTilt-s.CapabilityLHP) / s.CapabilityLHP
	if rel > 0.05 {
		t.Errorf("tilt changes capability by %v%%, paper shows near-identical curves", rel*100)
	}
}

func TestCompositeSeat(t *testing.T) {
	// §IV.A: carbon-composite structure — "results slightly under those
	// obtained with aluminium": ≈70 W capability (+80%) and ≈20 K cooling
	// at 40 W.
	al, _, err := RunFig10(context.Background(), Config{Structure: materials.Al6061}, robust.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cc, _, err := RunFig10(context.Background(), Config{Structure: materials.CarbonComposite}, robust.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cc.CapabilityLHP >= al.CapabilityLHP {
		t.Errorf("composite capability %v should trail aluminium %v", cc.CapabilityLHP, al.CapabilityLHP)
	}
	if cc.CapabilityLHP < 58 || cc.CapabilityLHP > 80 {
		t.Errorf("composite capability = %v W, paper ≈70", cc.CapabilityLHP)
	}
	if cc.ImprovementPct < 50 || cc.ImprovementPct > 110 {
		t.Errorf("composite improvement = %v%%, paper ≈80%%", cc.ImprovementPct)
	}
	if cc.CoolingAt40W < 12 || cc.CoolingAt40W > 30 {
		t.Errorf("composite cooling at 40 W = %v K, paper ≈20", cc.CoolingAt40W)
	}
	// Still a tremendous improvement over nothing.
	if cc.CoolingAt40W >= al.CoolingAt40W {
		t.Error("composite cooling should trail aluminium cooling")
	}
}

func TestLHPShareGrowsWithPower(t *testing.T) {
	// At low power the loops barely start; their share rises with load —
	// the variable-conductance signature.
	cfg := Config{UseLHP: true}
	p20, err := cfg.Solve(20)
	if err != nil {
		t.Fatal(err)
	}
	p100, err := cfg.Solve(100)
	if err != nil {
		t.Fatal(err)
	}
	share20 := p20.LHPPower / 20
	share100 := p100.LHPPower / 100
	if share100 <= share20 {
		t.Errorf("LHP share should grow with power: %v → %v", share20, share100)
	}
}

func TestEnergyConservation(t *testing.T) {
	// The network solution must route all injected power to the air node.
	cfg := Config{UseLHP: true}
	n, err := cfg.BuildNetwork(80)
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.SolveSteadyTol(context.Background(), 1e-4, 300)
	if err != nil {
		t.Fatal(err)
	}
	toAir := n.FlowBetween(res, "wall", "air") + n.FlowBetween(res, "structure", "air")
	if !units.ApproxEqual(toAir, 80, 0.01) {
		t.Errorf("power to air = %v, want 80", toAir)
	}
}

func TestCapabilityErrors(t *testing.T) {
	cfg := Config{}
	if _, err := cfg.CapabilityAt(context.Background(), -5); err == nil {
		t.Error("negative ΔT should error")
	}
	if _, err := cfg.Solve(-1); err == nil {
		t.Error("negative power should error")
	}
	if _, err := cfg.BuildNetwork(0); err == nil {
		t.Error("zero power should error")
	}
}

func TestAmbientIndependenceOfDeltaT(t *testing.T) {
	// ΔT(P) should be nearly ambient-independent over the cabin range
	// (weak property variation only).
	warm := Config{UseLHP: true, AmbientC: 35}
	cool := Config{UseLHP: true, AmbientC: 15}
	pw, err := warm.Solve(60)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := cool.Solve(60)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pw.DeltaTK-pc.DeltaTK) > 5 {
		t.Errorf("ΔT should be weakly ambient-dependent: %v vs %v", pw.DeltaTK, pc.DeltaTK)
	}
}

func TestDefaultsIdempotent(t *testing.T) {
	c := Config{}
	c.Defaults()
	before := c
	c.Defaults()
	// Config carries a func-typed FaultFn, so it is not ==-comparable;
	// DeepEqual treats the two nil FaultFns as equal.
	if !reflect.DeepEqual(c, before) {
		t.Error("Defaults should be idempotent")
	}
	if c.LHPCount != 2 {
		t.Errorf("default LHP count = %d, paper used two", c.LHPCount)
	}
}

func TestWarmupTransient(t *testing.T) {
	// Power-on soak of the bare SEB at 40 W: the PCB must rise
	// monotonically from ambient and hit 90% of its steady rise within a
	// plausible soak window (minutes to a couple of hours).
	cfg := Config{}
	res, t90, err := cfg.Warmup(context.Background(), 40, 30, 600) // 5 h window
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(t90, 1) {
		t.Fatal("SEB never soaked within the window")
	}
	if t90 < 120 || t90 > 2*3600 {
		t.Errorf("t90 = %v s, want minutes-to-hours", t90)
	}
	hist := res.T["pcb"]
	for i := 1; i < len(hist); i++ {
		if hist[i] < hist[i-1]-1e-9 {
			t.Fatal("warm-up must be monotone")
		}
	}
	// Final value close to the steady solution.
	steady, err := cfg.Solve(40)
	if err != nil {
		t.Fatal(err)
	}
	finalDT := res.Final()["pcb"] - units.CToK(cfg.AmbientC)
	if !units.ApproxEqual(finalDT, steady.DeltaTK, 0.05) {
		t.Errorf("transient end %v vs steady %v", finalDT, steady.DeltaTK)
	}
}

func TestWarmupLHPFasterSoak(t *testing.T) {
	// The LHP kit drops the thermal resistance, so the PCB settles at a
	// much lower temperature; its soak to 90% of that (smaller) rise is
	// at least as fast as the bare box's.
	_, t90bare, err := (&Config{}).Warmup(context.Background(), 40, 30, 600)
	if err != nil {
		t.Fatal(err)
	}
	_, t90kit, err := (&Config{UseLHP: true}).Warmup(context.Background(), 40, 30, 600)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(t90kit, 1) {
		t.Fatal("kit never soaked")
	}
	if t90kit > t90bare*2 {
		t.Errorf("kit soak %v s should not be far beyond bare %v s", t90kit, t90bare)
	}
}

func TestCabinAltitudeDerating(t *testing.T) {
	// At the 8,000 ft cabin the buoyant films weaken ~10%, so the PCB
	// runs measurably hotter than the sea-level prediction — but far less
	// than the full altitude derate because radiation is unaffected.
	sl := Config{UseLHP: true}
	cab := Config{UseLHP: true, CabinAltitudeM: materials.CabinAltitudeM}
	pSL, err := sl.Solve(80)
	if err != nil {
		t.Fatal(err)
	}
	pCab, err := cab.Solve(80)
	if err != nil {
		t.Fatal(err)
	}
	if pCab.DeltaTK <= pSL.DeltaTK {
		t.Errorf("cabin altitude must heat the PCB: %v vs %v", pCab.DeltaTK, pSL.DeltaTK)
	}
	if pCab.DeltaTK > pSL.DeltaTK*1.12 {
		t.Errorf("cabin penalty %v K vs %v K too strong — radiation should buffer it",
			pCab.DeltaTK, pSL.DeltaTK)
	}
}

func TestSingleLHPFailure(t *testing.T) {
	// Availability study: with one of the two loops failed, the SEB keeps
	// a large share of the retrofit benefit (graceful degradation) —
	// capability sits between the bare box and the healthy kit.
	healthy := Config{UseLHP: true}
	degraded := Config{UseLHP: true, LHPCount: 1}
	bare := Config{}
	cH, err := healthy.CapabilityAt(context.Background(), 60)
	if err != nil {
		t.Fatal(err)
	}
	cD, err := degraded.CapabilityAt(context.Background(), 60)
	if err != nil {
		t.Fatal(err)
	}
	cB, err := bare.CapabilityAt(context.Background(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if !(cB < cD && cD < cH) {
		t.Errorf("degradation ordering broken: bare %v, one-loop %v, two-loop %v", cB, cD, cH)
	}
	// One loop retains at least 70% of the two-loop capability (the loop
	// is not the bottleneck at these powers).
	if cD < 0.7*cH {
		t.Errorf("single-loop capability %v too low vs %v", cD, cH)
	}
}

func TestFleetStudy(t *testing.T) {
	// A 300-seat widebody with 60 W boxes: one 5 W fan per seat costs
	// 1.5 kW of cabin power and a steady maintenance stream; the passive
	// kit handles 60 W inside a 45 K rise without any of it.
	res, err := FleetStudy(context.Background(), 300, 60, 5, 40000, 4000, 45)
	if err != nil {
		t.Fatal(err)
	}
	if res.FanPowerTotalW != 1500 {
		t.Errorf("fleet fan power = %v, want 1500", res.FanPowerTotalW)
	}
	// 300 fans × 4000 h/y ÷ 40000 h MTBF = 30 replacements a year.
	if !units.ApproxEqual(res.FanFailuresPerYear, 30, 1e-9) {
		t.Errorf("fan failures = %v, want 30", res.FanFailuresPerYear)
	}
	if !res.PassiveOK {
		t.Errorf("passive kit should hold 60 W under 45 K (got %v K)", res.PassiveDeltaTK)
	}
	// At double the power the kit cannot stay inside the same budget.
	res2, err := FleetStudy(context.Background(), 300, 130, 5, 40000, 4000, 45)
	if err != nil {
		t.Fatal(err)
	}
	if res2.PassiveOK {
		t.Errorf("130 W should exceed the 45 K budget (got %v K)", res2.PassiveDeltaTK)
	}
	if _, err := FleetStudy(context.Background(), 0, 60, 5, 40000, 4000, 45); err == nil {
		t.Error("invalid inputs should error")
	}
}

func TestThermosyphonAlternative(t *testing.T) {
	// The gravity-driven loop also rescues the SEB — comparable capability
	// to the LHP kit when the seat is level…
	lhp := Config{UseLHP: true}
	tsy := Config{UseLHP: true, UseThermosyphon: true}
	cL, err := lhp.CapabilityAt(context.Background(), 60)
	if err != nil {
		t.Fatal(err)
	}
	cT, err := tsy.CapabilityAt(context.Background(), 60)
	if err != nil {
		t.Fatal(err)
	}
	if cT < 0.6*cL {
		t.Errorf("thermosyphon capability %v too far below LHP %v", cT, cL)
	}
	bare, _ := (&Config{}).CapabilityAt(context.Background(), 60)
	if cT <= bare*1.3 {
		t.Errorf("thermosyphon %v should clearly beat the bare box %v", cT, bare)
	}
	// …but unlike the LHP it is orientation-limited: past ≈37° of seat
	// tilt the condenser drops below the evaporator, gravity return
	// inverts and the loops die — the SEB falls back to the bare box.
	inverted := Config{UseLHP: true, UseThermosyphon: true, TiltDeg: 40}
	cInv, err := inverted.CapabilityAt(context.Background(), 60)
	if err != nil {
		t.Fatal(err)
	}
	// The loops die but the embedded heat pipes still spread internally,
	// so capability lands between the bare box and the working kit.
	if cInv > 0.8*cT {
		t.Errorf("inverted thermosyphon %v W should drop well below %v W", cInv, cT)
	}
	if cInv <= bare {
		t.Errorf("internal HPs should retain some benefit: %v vs bare %v", cInv, bare)
	}
	lhpTilt := Config{UseLHP: true, TiltDeg: 40}
	cLT, _ := lhpTilt.CapabilityAt(context.Background(), 60)
	if cLT < 0.9*cL {
		t.Errorf("the LHP should shrug off 40°: %v vs %v", cLT, cL)
	}
}

// TestWarmupHonoursStop: the context budgets the warm-up transient
// like every steady solve the configuration runs.
func TestWarmupHonoursStop(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{}
	if _, _, err := cfg.Warmup(ctx, 40, 30, 600); !errors.Is(err, linalg.ErrStopped) {
		t.Errorf("err = %v, want an error wrapping linalg.ErrStopped", err)
	}
}

func TestWarmupBadPower(t *testing.T) {
	if _, _, err := (&Config{}).Warmup(context.Background(), -5, 10, 10); err == nil {
		t.Error("negative power should error")
	}
	if _, _, err := (&Config{}).Warmup(context.Background(), 40, -1, 10); err == nil {
		t.Error("bad dt should error")
	}
}
