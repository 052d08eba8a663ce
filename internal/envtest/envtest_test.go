package envtest

import (
	"context"
	"strings"
	"testing"

	"aeropack/internal/cosee"
	"aeropack/internal/robust"
	"aeropack/internal/units"
)

// sebArticle builds the COSEE SEB+seat assembly as a qualification
// article, its thermal hook backed by the cosee network model.
func sebArticle() *Article {
	cfg := cosee.Config{UseLHP: true}
	return &Article{
		Name:        "SEB+seat (HP/LHP kit)",
		MassKg:      3.5,
		MountFnHz:   180,
		DampingZeta: 0.05,
		MountArea:   4 * 25e-6, // four M6-class bonded pads
		MountYield:  80e6,

		BoardSpan:   0.25,
		BoardThk:    2e-3,
		CompLen:     0.025,
		CompConst:   1.0,
		PosFactor:   1.0,
		FatigueExpB: 6.4,

		PowerW: 60,
		DeltaTAt: func(p float64) (float64, error) {
			pt, err := cfg.Solve(p)
			if err != nil {
				return 0, err
			}
			return pt.DeltaTK, nil
		},
		MaxPointC: 105,
		MinStartC: -40,

		ShockCyclesRequired: 100,
		JointDTFactor:       0.5,
	}
}

func TestDefaultCampaignMatchesPaper(t *testing.T) {
	c := DefaultCampaign()
	if c.AccelG != 9 {
		t.Errorf("acceleration level = %v g, paper used 9 g", c.AccelG)
	}
	if c.VibCurve != "C1" {
		t.Errorf("vibration curve = %s, paper used DO-160 C1", c.VibCurve)
	}
	if c.ShockLowC != -45 || c.ShockHighC != 55 || c.ShockRateCMin != 5 {
		t.Errorf("shock profile %+v differs from paper (−45/+55 at 5°C/min)", c)
	}
	if c.ClimaticLowC != -25 || c.ClimaticHighC != 55 {
		t.Errorf("climatic range %v..%v differs from paper", c.ClimaticLowC, c.ClimaticHighC)
	}
}

func TestSEBPassesFullCampaign(t *testing.T) {
	// The paper: "the seats have been submitted to all the different
	// tests without damage".  Our virtual article must reproduce that.
	a := sebArticle()
	results, _, err := DefaultCampaign().Run(context.Background(), a, robust.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("expected 4 tests, got %d", len(results))
	}
	for _, r := range results {
		if !r.Pass {
			t.Errorf("test %q failed: %s", r.Test, r.Detail)
		}
		if r.Detail == "" || r.Units == "" {
			t.Errorf("test %q lacks reporting detail", r.Test)
		}
	}
	if !AllPass(results) {
		t.Error("AllPass should be true")
	}
	if WorstMargin(results) <= 0 {
		t.Errorf("worst margin = %v, should be positive for a passing article", WorstMargin(results))
	}
}

func TestAccelerationFailsWeakMounts(t *testing.T) {
	a := sebArticle()
	a.MountArea = 1e-7 // nearly unsupported
	r, err := DefaultCampaign().RunAcceleration(a)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pass {
		t.Error("tiny mounts must fail the 9 g test")
	}
	if r.Margin() >= 0 {
		t.Error("failed test should have negative margin")
	}
}

func TestVibrationFailsSoftBoard(t *testing.T) {
	// A low-frequency mount with weak damping and a long component on a
	// thick board (Steinberg's allowable shrinks with thickness and
	// component length) accumulates fatal fatigue damage.
	a := sebArticle()
	a.MountFnHz = 45
	a.DampingZeta = 0.01
	a.BoardThk = 3e-3
	a.CompLen = 0.06
	r, err := DefaultCampaign().RunVibration(a)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pass {
		t.Errorf("soft board should fail vibration: %s", r.Detail)
	}
}

func TestClimaticFailsWithoutCooling(t *testing.T) {
	// The same SEB without the LHP kit runs ≈83 K above ambient at 60 W:
	// at +55 °C chamber that exceeds a 105 °C limit — the very problem
	// COSEE was launched to solve.
	bare := cosee.Config{}
	a := sebArticle()
	a.DeltaTAt = func(p float64) (float64, error) {
		pt, err := bare.Solve(p)
		if err != nil {
			return 0, err
		}
		return pt.DeltaTK, nil
	}
	r, err := DefaultCampaign().RunClimatic(a)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pass {
		t.Errorf("uncooled SEB should fail hot climatic: %s", r.Detail)
	}
	// With the kit it passes (covered by the full-campaign test).
}

func TestClimaticColdStartLimit(t *testing.T) {
	a := sebArticle()
	a.MinStartC = -10 // unit not rated for the chamber low
	r, err := DefaultCampaign().RunClimatic(a)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pass {
		t.Error("under-rated cold start should fail")
	}
	if !strings.Contains(r.Detail, "cold start") {
		t.Errorf("detail should flag cold start: %s", r.Detail)
	}
}

func TestThermalShockCycleBudget(t *testing.T) {
	a := sebArticle()
	r, err := DefaultCampaign().RunThermalShock(a)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Pass {
		t.Errorf("nominal article should survive shock: %s", r.Detail)
	}
	// Demanding 100× the cycles must fail.
	a.ShockCyclesRequired = 100000
	r, err = DefaultCampaign().RunThermalShock(a)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pass {
		t.Error("excessive cycle budget should fail")
	}
}

func TestArticleValidation(t *testing.T) {
	if err := (&Article{}).Validate(); err == nil {
		t.Error("empty article should fail validation")
	}
	a := sebArticle()
	a.DeltaTAt = nil
	if err := a.Validate(); err == nil {
		t.Error("missing thermal hook should fail")
	}
	a = sebArticle()
	a.JointDTFactor = 2
	if err := a.Validate(); err == nil {
		t.Error("bad joint factor should fail")
	}
	a = sebArticle()
	a.MassKg = -1
	if _, _, err := DefaultCampaign().Run(context.Background(), a, robust.Options{KeepGoing: true}); err == nil {
		t.Error("Run on invalid article should error, keep-going or not")
	}
}

func TestAllPassEmpty(t *testing.T) {
	if AllPass(nil) {
		t.Error("empty result set should not pass")
	}
}

func TestResultMargin(t *testing.T) {
	r := Result{Metric: 60, Limit: 100}
	if !units.ApproxEqual(r.Margin(), 0.4, 1e-12) {
		t.Errorf("margin = %v", r.Margin())
	}
	if (Result{}).Margin() != 0 {
		t.Error("zero-limit margin should be 0")
	}
}

func TestVibrationUnknownCurve(t *testing.T) {
	c := DefaultCampaign()
	c.VibCurve = "Z9"
	if _, err := c.RunVibration(sebArticle()); err == nil {
		t.Error("unknown DO-160 curve should error")
	}
	if _, _, err := c.Run(context.Background(), sebArticle(), robust.Options{Workers: 1}); err == nil {
		t.Error("Run should propagate the curve error")
	}
}
