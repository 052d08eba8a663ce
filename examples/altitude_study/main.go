// altitude_study puts the level-1 cooling screen at altitude: the same
// equipment that closes comfortably at sea level loses half its free-
// convection capacity at cruise in an unpressurized bay, and fan cooling
// fares even worse — the environmental constraint that pushes avionics
// toward conduction-cooled and two-phase architectures.
//
//	go run ./examples/altitude_study
package main

import (
	"context"
	"fmt"
	"log"

	"aeropack/internal/core"
	"aeropack/internal/cosee"
	"aeropack/internal/materials"
)

func main() {
	ctx := context.Background()
	env := core.Envelope{L: 0.4, W: 0.3, H: 0.2}
	const needW, fluxWcm2 = 150.0, 3.0

	fmt.Printf("equipment: %.0f W, %.1f W/cm² hot spots\n\n", needW, fluxWcm2)
	fmt.Println("altitude      free conv    forced air   recommended")
	for _, alt := range []float64{0, 2438, 8000, 12192} {
		screen := core.DefaultScreen(env)
		screen.AltitudeM = alt
		fc, err := screen.Limits(core.FreeConvection)
		if err != nil {
			log.Fatal(err)
		}
		fa, err := screen.Limits(core.ForcedAir)
		if err != nil {
			log.Fatal(err)
		}
		rec, err := screen.Recommend(needW, fluxWcm2)
		name := "none feasible"
		if err == nil {
			name = rec.Tech.String()
		}
		isa, _ := materials.StandardAtmosphere(alt)
		fmt.Printf("%6.0f m      %5.0f W      %5.0f W      %s   (ρ=%.2f kg/m³)\n",
			alt, fc.MaxPowerW, fa.MaxPowerW, name, isa.Rho)
	}

	// The cabin case: the COSEE seat boxes live at 8,000 ft equivalent.
	fmt.Println()
	sl := cosee.Config{UseLHP: true}
	cab := cosee.Config{UseLHP: true, CabinAltitudeM: materials.CabinAltitudeM}
	pSL, err := sl.SolveContext(ctx, 80)
	if err != nil {
		log.Fatal(err)
	}
	pCab, err := cab.SolveContext(ctx, 80)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("COSEE SEB at 80 W: ΔT %.1f K at sea level, %.1f K at the 8,000 ft cabin\n",
		pSL.DeltaTK, pCab.DeltaTK)
	fmt.Println("(radiation and the two-phase loops do not derate — only the buoyant films)")
}
