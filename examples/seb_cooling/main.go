// seb_cooling walks the COSEE scenario end to end: an IFE seat electronic
// box buried under a passenger seat, not connected to the aircraft
// environmental control system, whose dissipation keeps growing.  How hot
// does the PCB run, what does the HP+LHP retrofit buy, and what happens
// when the airline switches to a carbon-composite seat frame?
//
//	go run ./examples/seb_cooling
package main

import (
	"context"
	"fmt"
	"log"

	"aeropack/internal/cosee"
	"aeropack/internal/materials"
)

func main() {
	ctx := context.Background()
	cabin := 25.0 // °C

	fmt.Println("Seat electronic box study (cabin at 25 °C)")
	fmt.Println()

	// 1. Today's box at 40 W: passive case cooling only.
	bare := cosee.Config{AmbientC: cabin}
	p, err := bare.SolveContext(ctx, 40)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bare SEB at 40 W:  PCB runs %.0f K above cabin (%.0f °C)\n",
		p.DeltaTK, cabin+p.DeltaTK)

	// 2. Next-generation IFE needs 100 W.  Bare box?
	p, err = bare.SolveContext(ctx, 100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("bare SEB at 100 W: PCB at %.0f °C — electronics cannot live there\n",
		cabin+p.DeltaTK)

	// 3. Retrofit the HP + LHP kit using the aluminium seat frame as sink.
	kit := cosee.Config{UseLHP: true, AmbientC: cabin}
	p, err = kit.SolveContext(ctx, 100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("with HP+LHP kit:   PCB at %.0f °C, loops carry %.0f W into the frame\n",
		cabin+p.DeltaTK, p.LHPPower)

	// 4. Capability at the classic ΔT = 60 K design point.
	c0, err := bare.CapabilityAt(ctx, 60)
	if err != nil {
		log.Fatal(err)
	}
	c1, err := kit.CapabilityAt(ctx, 60)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("capability @ΔT=60K: %.0f W → %.0f W (%+.0f%%)\n", c0, c1, (c1/c0-1)*100)

	// 5. Does the seat tilt in cruise hurt?  (Loop heat pipes barely care.)
	tilted := cosee.Config{UseLHP: true, TiltDeg: 22, AmbientC: cabin}
	ct, err := tilted.CapabilityAt(ctx, 60)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("at 22° tilt:        %.0f W (%+.1f%% vs horizontal)\n", ct, (ct/c1-1)*100)

	// 6. The composite-seat variant: the frame is a worse fin.
	composite := cosee.Config{UseLHP: true, AmbientC: cabin,
		Structure: materials.CarbonComposite}
	cc, err := composite.CapabilityAt(ctx, 60)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("composite frame:    %.0f W — still %+.0f%% over the bare box\n",
		cc, (cc/c0-1)*100)
}
