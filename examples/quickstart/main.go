// Quickstart: the smallest useful aeropack program.
//
// It answers the everyday packaging question: a 15 W component sits on a
// cold plate through a TIM — what junction temperature do we get, and
// would a heat pipe spreader help?  Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"aeropack/internal/compact"
	"aeropack/internal/fluids"
	"aeropack/internal/thermal"
	"aeropack/internal/tim"
	"aeropack/internal/twophase"
	"aeropack/internal/units"
)

func main() {
	// 1. A lumped thermal network: junction → case → TIM → cold plate.
	pkg := compact.FCBGACPU
	grease := tim.GreaseStandard
	lidArea := pkg.Length * pkg.Width

	n := thermal.NewNetwork()
	n.FixT("coldplate", units.CToK(40))
	n.AddSource("junction", 15)
	if err := n.AddResistor("junction", "case", pkg.ThetaJCTop); err != nil {
		log.Fatal(err)
	}
	rTIM, err := grease.ResistanceAbs(2e5, lidArea)
	if err != nil {
		log.Fatal(err)
	}
	if err := n.AddResistor("case", "coldplate", rTIM); err != nil {
		log.Fatal(err)
	}
	res, err := n.SolveSteady(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("junction: %.1f °C (case %.1f °C, cold plate 40 °C)\n",
		units.KToC(res.T["junction"]), units.KToC(res.T["case"]))

	// 2. Could a copper/water heat pipe carry this power to a remote sink?
	hp := &twophase.HeatPipe{
		Fluid: fluids.Water,
		Wick:  twophase.SinteredCopperWick(0.75e-3),
		LEvap: 0.05, LAdia: 0.15, LCond: 0.08,
		RadiusVapor:   2e-3,
		WallThickness: 0.5e-3,
		WallK:         398,
	}
	qMax, mech, err := hp.MaxPower(units.CToK(60))
	if err != nil {
		log.Fatal(err)
	}
	r, err := hp.Resistance(units.CToK(60), 15)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("heat pipe: carries up to %.0f W (%s limit); at 15 W it adds only %.3f K/W\n",
		qMax, mech, r)
}
