// tim_selection compares thermal interface materials for a hot avionics
// processor lid (the NANOPACK use case): for each candidate it computes
// the junction temperature in a lid → TIM → heatsink stack, measures the
// material on the virtual ASTM D5470 tester, and checks the NANOPACK
// project objectives.
//
//	go run ./examples/tim_selection
package main

import (
	"context"
	"fmt"
	"log"

	"aeropack/internal/compact"
	"aeropack/internal/report"
	"aeropack/internal/thermal"
	"aeropack/internal/tim"
	"aeropack/internal/units"
)

func main() {
	const (
		powerW   = 35.0 // the paper's "30 W to 50 W in the coming years"
		sinkC    = 55.0
		pressure = 2e5
		rSinkAbs = 0.35 // heatsink-to-air, K/W
	)
	pkg := compact.FCBGACPU
	lidArea := pkg.Length * pkg.Width

	tester := tim.NewD5470(7)
	t := report.NewTable(
		fmt.Sprintf("TIM selection for a %.0f W processor (sink at %.0f °C)", powerW, sinkC),
		"TIM", "R_tim K/W", "Tj °C", "D5470 reading", "NANOPACK targets")
	for _, m := range tim.All() {
		rAbs, err := m.ResistanceAbs(pressure, lidArea)
		if err != nil {
			log.Fatal(err)
		}
		n := thermal.NewNetwork()
		n.FixT("sink", units.CToK(sinkC))
		n.AddSource("junction", powerW)
		if err := n.AddResistor("junction", "lid", pkg.ThetaJCTop); err != nil {
			log.Fatal(err)
		}
		if err := n.AddResistor("lid", "sinkbase", rAbs); err != nil {
			log.Fatal(err)
		}
		if err := n.AddResistor("sinkbase", "sink", rSinkAbs); err != nil {
			log.Fatal(err)
		}
		res, err := n.SolveSteady(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		tj, _ := res.At("junction")
		meas, err := tester.Measure(&m)
		if err != nil {
			log.Fatal(err)
		}
		kOK, rOK, bltOK := m.MeetsNanopackTarget(pressure)
		targets := fmt.Sprintf("k:%v R:%v BLT:%v", mark(kOK), mark(rOK), mark(bltOK))
		t.AddRow(m.Name,
			fmt.Sprintf("%.4f", rAbs),
			fmt.Sprintf("%.1f", units.KToC(tj)),
			fmt.Sprintf("%.1f K·mm²/W", units.ToKMm2PerW(meas.RMeasured)),
			targets)
	}
	fmt.Print(t.String())
	fmt.Println("\nNANOPACK objectives: k ≥ 20 W/m·K, R < 5 K·mm²/W, BLT < 20 µm.")
}

func mark(ok bool) string {
	if ok {
		return "✓"
	}
	return "✗"
}
