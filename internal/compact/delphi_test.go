package compact

import (
	"context"
	"testing"

	"aeropack/internal/thermal"
	"aeropack/internal/units"
)

func TestDelphiLibrary(t *testing.T) {
	if len(DelphiNames()) < 3 {
		t.Fatalf("delphi library too small: %v", DelphiNames())
	}
	for _, name := range DelphiNames() {
		d, err := GetDelphi(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// Every multi-node package also has a two-resistor entry.
		if _, err := Get(name); err != nil {
			t.Errorf("%s: missing two-resistor counterpart", name)
		}
	}
	if _, err := GetDelphi("SOIC8"); err == nil {
		t.Error("missing model should error")
	}
}

func TestDelphiValidate(t *testing.T) {
	d, _ := GetDelphi("BGA256")
	bad := d
	bad.RJTop = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero resistance should fail")
	}
	bad = d
	bad.TopArea = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero area should fail")
	}
	bad = d
	bad.Name = ""
	if err := bad.Validate(); err == nil {
		t.Error("unnamed should fail")
	}
}

func TestDelphiJunctionPhysics(t *testing.T) {
	d, _ := GetDelphi("BGA256")
	env := Environment{Name: "nominal", HTop: 20, HBottom: 3000, BoardC: 70, AirC: 50}
	tj, err := d.JunctionDelphi(context.Background(), env, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Junction above the board, below the adiabatic-top bound.
	if tj <= units.CToK(70) {
		t.Errorf("junction %v must exceed the board", units.KToC(tj))
	}
	if tj >= units.CToK(70)+3*d.RJBottom+3 {
		t.Errorf("junction %v above the bottom-only bound", units.KToC(tj))
	}
	// More power → hotter, linearly (the network is linear).
	tj2, _ := d.JunctionDelphi(context.Background(), env, 6)
	rise1 := tj - units.CToK(70)
	if !units.ApproxEqual(tj2-units.CToK(70), 2*rise1, 0.15) {
		t.Errorf("junction rise not ≈linear: %v vs %v", tj2-units.CToK(70), 2*rise1)
	}
}

func TestDelphiTopCoolingResponds(t *testing.T) {
	// A heatsinked top must pull the junction down vs still air — the
	// behaviour the two-resistor model under-represents for lidded parts.
	d, _ := GetDelphi("FCBGA-CPU")
	still := Environment{Name: "still", HTop: 8, HBottom: 3000, BoardC: 70, AirC: 45}
	sink := Environment{Name: "sink", HTop: 500, HBottom: 3000, BoardC: 70, AirC: 45}
	tjStill, err := d.JunctionDelphi(context.Background(), still, 20)
	if err != nil {
		t.Fatal(err)
	}
	tjSink, err := d.JunctionDelphi(context.Background(), sink, 20)
	if err != nil {
		t.Fatal(err)
	}
	if tjSink >= tjStill-5 {
		t.Errorf("heatsink should pull the FCBGA junction down hard: %v vs %v",
			units.KToC(tjSink), units.KToC(tjStill))
	}
}

func TestBCIStudy(t *testing.T) {
	res, err := BCIStudy(context.Background(), "BGA256", 3, StandardBCIEnvironments())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Environments) != 4 {
		t.Fatalf("expected 4 environments")
	}
	// Both model classes produce physical junctions everywhere.
	for i := range res.Environments {
		if res.TjDelphi[i] < units.CToK(40) || res.TjDelphi[i] > units.CToK(200) {
			t.Errorf("%s: delphi Tj %v implausible", res.Environments[i], units.KToC(res.TjDelphi[i]))
		}
		if res.TjTwoR[i] < units.CToK(40) || res.TjTwoR[i] > units.CToK(200) {
			t.Errorf("%s: two-R Tj %v implausible", res.Environments[i], units.KToC(res.TjTwoR[i]))
		}
	}
	// The models agree within a few kelvin in board-dominated conditions
	// but diverge measurably somewhere in the set — the reason DELPHI
	// models exist.
	if res.MaxSpreadK < 0.5 {
		t.Errorf("models never diverge (max spread %v K) — BCI study degenerate", res.MaxSpreadK)
	}
	if res.MaxSpreadK > 30 {
		t.Errorf("models diverge wildly (%v K) — fits inconsistent", res.MaxSpreadK)
	}
	if _, err := BCIStudy(context.Background(), "BGA256", -1, StandardBCIEnvironments()); err == nil {
		t.Error("bad power should error")
	}
	if _, err := BCIStudy(context.Background(), "SOIC8", 1, StandardBCIEnvironments()); err == nil {
		t.Error("package without delphi model should error")
	}
}

func TestDelphiAttachErrors(t *testing.T) {
	d, _ := GetDelphi("BGA256")
	n := thermal.NewNetwork()
	n.FixT("board", 340)
	n.FixT("air", 320)
	if err := d.Attach(n, "U9", "board", "air", -1, 10, 3000); err == nil {
		t.Error("negative power should error")
	}
	bad := d
	bad.RShunt = 0
	if err := bad.Attach(n, "U9", "board", "air", 1, 10, 3000); err == nil {
		t.Error("invalid model should error")
	}
}
