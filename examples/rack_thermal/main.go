// rack_thermal runs the paper's three-level thermal methodology on a
// forced-air avionics computer rack (the Fig. 4 / Fig. 6 workload): an
// ARINC 600 heat balance at equipment level, a finite-volume board model
// at PCB level, and compact component models for junction temperatures —
// then rolls the junctions into an MTBF prediction.
//
//	go run ./examples/rack_thermal
package main

import (
	"context"
	"fmt"
	"log"

	"aeropack/internal/compact"
	"aeropack/internal/convection"
	"aeropack/internal/core"
	"aeropack/internal/reliability"
	"aeropack/internal/robust"
	"aeropack/internal/units"
)

func main() {
	board := &core.BoardDesign{
		Name: "graphics-module", LengthM: 0.16, WidthM: 0.23, ThicknessM: 2.4e-3,
		CopperLayers: 12, CopperOz: 2, CopperCover: 0.7,
		EdgeCooling: core.ForcedAir, ChannelH: 55, ChannelAirC: 46,
		MassLoadKgM2: 3,
		Components: []*compact.Component{
			{RefDes: "GPU", Pkg: compact.FCBGACPU, Power: 9, X: 0.08, Y: 0.115},
			{RefDes: "RAM0", Pkg: compact.BGA256, Power: 2, X: 0.04, Y: 0.06},
			{RefDes: "RAM1", Pkg: compact.BGA256, Power: 2, X: 0.04, Y: 0.17},
			{RefDes: "PHY", Pkg: compact.QFP208, Power: 2.5, X: 0.12, Y: 0.17},
			{RefDes: "REG", Pkg: compact.TO263, Power: 1.5, X: 0.13, Y: 0.05},
		},
	}
	const nModules = 8

	// Level 1 — equipment: ARINC 600 sizing of the rack airflow.
	rackPower := board.TotalPower() * nModules
	mdot := convection.ARINCMassFlow(rackPower)
	rise := convection.AirTempRise(rackPower, mdot, units.CToK(40))
	fmt.Printf("LEVEL 1  rack %.0f W → ARINC flow %.1f kg/h, air 40 °C → %.1f °C\n",
		rackPower, units.ToKgPerHour(mdot), 40+rise)

	// Levels 2+3 — board and components via the co-design flow.
	screen := core.DefaultScreen(core.Envelope{L: 0.5, W: 0.3, H: 0.26})
	rep, _, err := core.Run(context.Background(), board, screen, robust.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LEVEL 2  board max %.1f °C (mean %.1f °C)\n",
		rep.Level2.MaxBoardC, rep.Level2.MeanBoardC)
	fmt.Printf("LEVEL 3  junctions (limit 125 °C):\n")
	for _, m := range rep.Level3.Margins {
		fmt.Printf("         %-5s Tj %6.1f °C  margin %5.1f K\n",
			m.RefDes, units.KToC(m.Tj), m.Margin)
	}

	// Reliability: the junctions feed the MTBF roll-up (§II.B).
	bom := &reliability.Board{
		Name: board.Name,
		Parts: []reliability.Part{
			{Name: "GPU", BaseFIT: 70, EaEV: 0.7, Quality: reliability.QualMil, Quantity: 1},
			{Name: "RAM0", BaseFIT: 25, EaEV: 0.6, Quality: reliability.QualMil, Quantity: 1},
			{Name: "RAM1", BaseFIT: 25, EaEV: 0.6, Quality: reliability.QualMil, Quantity: 1},
			{Name: "PHY", BaseFIT: 45, EaEV: 0.7, Quality: reliability.QualMil, Quantity: 1},
			{Name: "REG", BaseFIT: 20, EaEV: 0.5, Quality: reliability.QualMil, Quantity: 1},
			{Name: "Passives", BaseFIT: 1.2, EaEV: 0.3, Quality: reliability.QualMil, Quantity: 150},
		},
	}
	tj := map[string]float64{}
	for _, m := range rep.Level3.Margins {
		tj[m.RefDes] = m.Tj
	}
	pred, err := bom.Predict(tj, units.CToK(rep.Level2.MeanBoardC), reliability.AirborneInhabitedCargo)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MTBF     %.0f h (target class: 40,000 h); top contributor %s (%.0f%%)\n",
		pred.MTBFHours, pred.Contributions[0].Name, pred.Contributions[0].Fraction*100)
	fmt.Printf("VERDICT  feasible: %v\n", rep.Feasible)
}
