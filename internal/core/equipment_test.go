package core

import (
	"context"
	"strings"
	"testing"

	"aeropack/internal/compact"
)

// forcedAirBoard builds one card of the rack with ChannelAirC unset so the
// equipment study assigns it.
func forcedAirBoard(name string, cpuW float64) *BoardDesign {
	return &BoardDesign{
		Name: name, LengthM: 0.16, WidthM: 0.23, ThicknessM: 2.4e-3,
		CopperLayers: 12, CopperOz: 2, CopperCover: 0.7,
		EdgeCooling: ForcedAir, ChannelH: 55,
		MassLoadKgM2: 3,
		Components: []*compact.Component{
			{RefDes: "U1", Pkg: compact.FCBGACPU, Power: cpuW, X: 0.08, Y: 0.115},
			{RefDes: "U2", Pkg: compact.BGA256, Power: 2, X: 0.04, Y: 0.06},
		},
	}
}

func TestStudyEquipmentRack(t *testing.T) {
	eq := &Equipment{
		Name:     "nav-computer",
		Envelope: Envelope{L: 0.5, W: 0.3, H: 0.26},
		Boards: []*BoardDesign{
			forcedAirBoard("cpu-a", 7),
			forcedAirBoard("cpu-b", 7),
			forcedAirBoard("io", 3),
		},
		InletAirC: 40,
	}
	rep, err := StudyEquipment(context.Background(), eq, DefaultScreen(eq.Envelope))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Boards) != 3 {
		t.Fatalf("expected 3 board reports")
	}
	if rep.TotalPowerW != 7+2+7+2+3+2 {
		t.Errorf("total power = %v", rep.TotalPowerW)
	}
	// ARINC sizing: rise is the standard ≈16 K and channels see inlet+rise/2.
	if rep.AirRiseK < 13 || rep.AirRiseK > 19 {
		t.Errorf("air rise = %v K, ARINC sizing gives ≈16", rep.AirRiseK)
	}
	for _, b := range eq.Boards {
		if b.ChannelAirC <= 40 || b.ChannelAirC >= 40+rep.AirRiseK {
			t.Errorf("board %s channel air %v not assigned from the rack balance", b.Name, b.ChannelAirC)
		}
	}
	if !rep.Feasible {
		t.Errorf("nominal rack should close; findings: %v", rep.Findings)
	}
}

func TestStudyEquipmentDeratedFlow(t *testing.T) {
	// A platform that only supplies 40% of the ARINC allocation: the air
	// rise balloons past the 25 K envelope and the equipment fails.
	eq := &Equipment{
		Name:     "starved-rack",
		Envelope: Envelope{L: 0.5, W: 0.3, H: 0.26},
		Boards: []*BoardDesign{
			forcedAirBoard("cpu-a", 7),
			forcedAirBoard("cpu-b", 7),
		},
		InletAirC:  40,
		FlowDerate: 0.4,
	}
	rep, err := StudyEquipment(context.Background(), eq, DefaultScreen(eq.Envelope))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Feasible {
		t.Error("starved rack should fail")
	}
	found := false
	for _, f := range rep.Findings {
		if strings.Contains(f, "air rise") {
			found = true
		}
	}
	if !found {
		t.Errorf("findings should flag the air rise: %v", rep.Findings)
	}
}

func TestStudyEquipmentValidation(t *testing.T) {
	if _, err := StudyEquipment(context.Background(), nil, testScreen()); err == nil {
		t.Error("nil equipment should error")
	}
	if _, err := StudyEquipment(context.Background(), &Equipment{Name: "empty"}, testScreen()); err == nil {
		t.Error("empty equipment should error")
	}
	eq := &Equipment{
		Name:       "bad-derate",
		Boards:     []*BoardDesign{forcedAirBoard("a", 5)},
		FlowDerate: -1,
	}
	if _, err := StudyEquipment(context.Background(), eq, testScreen()); err == nil {
		t.Error("bad derate should error")
	}
	eq2 := &Equipment{
		Name:   "bad-board",
		Boards: []*BoardDesign{{Name: "no-geometry"}},
	}
	if _, err := StudyEquipment(context.Background(), eq2, testScreen()); err == nil {
		t.Error("invalid board should propagate error")
	}
}

func TestDesignDocumentRendering(t *testing.T) {
	rep, err := Study(goodBoard(), testScreen())
	if err != nil {
		t.Fatal(err)
	}
	doc := rep.Document()
	for _, want := range []string{
		"PACKAGING DESIGN DOCUMENT",
		"SPECIFICATION ANALYSIS",
		"THERMAL DESIGN",
		"level 1", "level 2", "level 3",
		"MECHANICAL DESIGN",
		"WEAKNESSES AND MARGINS",
		"VERDICT: PASS",
		"U1",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("document missing %q", want)
		}
	}
	// A failing design documents its findings.
	hot := goodBoard()
	hot.Components[0].Power = 45
	repHot, err := Study(hot, testScreen())
	if err != nil {
		t.Fatal(err)
	}
	docHot := repHot.Document()
	if !strings.Contains(docHot, "VERDICT: FAIL") {
		t.Error("hot design document should fail")
	}
	if strings.Contains(docHot, "none — design closes") {
		t.Error("hot design should list findings")
	}
}

func TestEquipmentDocument(t *testing.T) {
	eq := &Equipment{
		Name:      "doc-rack",
		Envelope:  Envelope{L: 0.5, W: 0.3, H: 0.26},
		Boards:    []*BoardDesign{forcedAirBoard("only", 5)},
		InletAirC: 40,
	}
	rep, err := StudyEquipment(context.Background(), eq, DefaultScreen(eq.Envelope))
	if err != nil {
		t.Fatal(err)
	}
	doc := rep.Document()
	for _, want := range []string{"EQUIPMENT DESIGN DOCUMENT", "doc-rack", "ARINC flow", "EQUIPMENT VERDICT"} {
		if !strings.Contains(doc, want) {
			t.Errorf("equipment document missing %q", want)
		}
	}
}
