// design_optimization automates two choices the paper's design procedure
// makes by engineering iteration:
//
//  1. isolator tuning — pick the IMU mount frequency and damping that
//     minimise the random-vibration response on DO-160 C1 inside a sway-
//     space budget;
//
//  2. board stack-up — find the cheapest copper content that still closes
//     the level-2/level-3 thermal design of a conduction-cooled module.
//
//     go run ./examples/design_optimization
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"aeropack/internal/compact"
	"aeropack/internal/core"
	"aeropack/internal/optimize"
	"aeropack/internal/robust"
	"aeropack/internal/vibration"
)

func main() {
	tuneIsolators()
	fmt.Println()
	tuneCopper()
}

func tuneIsolators() {
	psd, err := vibration.DO160("C1")
	if err != nil {
		log.Fatal(err)
	}
	objective := func(v []float64) float64 {
		fn, zeta := v[0], v[1]
		g, err := vibration.ResponseRMS(psd, fn, zeta)
		if err != nil {
			return math.Inf(1)
		}
		if sway := vibration.BoardDisp3Sigma(g, fn); sway > 4e-3 {
			return g + 100*(sway*1e3-4) // sway-space penalty beyond 4 mm
		}
		return g
	}
	naive, _ := vibration.ResponseRMS(psd, 45, 0.1)
	x, fx, err := optimize.PatternSearch(objective, []float64{60, 0.1},
		[]optimize.Bounds{{Lo: 20, Hi: 300}, {Lo: 0.02, Hi: 0.5}}, 1e-5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("ISOLATOR TUNING (DO-160 C1, 4 mm sway budget)")
	fmt.Printf("  naive design   : 45 Hz, ζ=0.10 → %.2f gRMS\n", naive)
	fmt.Printf("  optimised      : %.0f Hz, ζ=%.2f → %.2f gRMS (−%.0f%%)\n",
		x[0], x[1], fx, (1-fx/naive)*100)
}

func tuneCopper() {
	// Minimise copper coverage (cost, weight) subject to the design
	// closing: findings-free Study run.
	ctx := context.Background()
	mk := func(cover float64) *core.BoardDesign {
		return &core.BoardDesign{
			Name: "cost-optimised", LengthM: 0.16, WidthM: 0.23, ThicknessM: 2.4e-3,
			CopperLayers: 10, CopperOz: 1, CopperCover: cover,
			EdgeCooling: core.ConductionCooled, RailTempC: 35,
			MassLoadKgM2: 3,
			Components: []*compact.Component{
				{RefDes: "U1", Pkg: compact.FCBGACPU, Power: 7, X: 0.08, Y: 0.115},
				{RefDes: "U2", Pkg: compact.BGA256, Power: 2.5, X: 0.04, Y: 0.06},
			},
		}
	}
	screen := core.DefaultScreen(core.Envelope{L: 0.5, W: 0.3, H: 0.26})
	feasibleAt := func(cover float64) bool {
		rep, _, err := core.Run(ctx, mk(cover), screen, robust.Options{})
		return err == nil && rep.Feasible
	}
	// Bisect the feasibility boundary in coverage.
	lo, hi := 0.1, 0.9
	if !feasibleAt(hi) {
		log.Fatal("even maximum copper cannot close this design")
	}
	if feasibleAt(lo) {
		hi = lo
	}
	boundary, err := optimize.Bisect(func(c float64) float64 {
		if feasibleAt(c) {
			return 1
		}
		return -1
	}, lo, hi, 0.01)
	if err != nil && hi != lo { //lint:allow floatcmp degenerate-interval sentinel
		log.Fatal(err)
	}
	chosen := math.Min(0.9, boundary+0.05) // 5% margin above the cliff
	rep, _, err := core.Run(ctx, mk(chosen), screen, robust.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("BOARD STACK-UP (minimum copper that closes the design)")
	fmt.Printf("  feasibility boundary: %.0f%% coverage\n", boundary*100)
	fmt.Printf("  selected (with 5%% margin): %.0f%% → worst Tj %.1f °C, feasible %v\n",
		chosen*100, rep.Level3.WorstC, rep.Feasible)
}
