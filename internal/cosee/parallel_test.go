package cosee

import (
	"context"
	"testing"

	"aeropack/internal/materials"
	"aeropack/internal/robust"
)

// TestSweepParallelGolden is the Fig. 10 serial-vs-parallel golden
// comparison: every point of the sweep, at several worker counts and in
// both failure modes, must be bitwise identical to the serial curve of
// point solves, for three configurations.
func TestSweepParallelGolden(t *testing.T) {
	ctx := context.Background()
	powers := []float64{10, 25, 40, 60, 80, 100}
	for _, cfg := range []struct {
		name string
		c    Config
	}{
		{"bare", Config{}},
		{"lhp", Config{UseLHP: true}},
		{"lhp-tilted-composite", Config{UseLHP: true, TiltDeg: 22, Structure: materials.CarbonComposite}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			want := make([]Point, len(powers))
			for i, p := range powers {
				serialCfg := cfg.c
				pt, err := serialCfg.SolveContext(ctx, p)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = pt
			}
			for _, keepGoing := range []bool{false, true} {
				for _, w := range []int{1, 2, 4, 0} {
					parCfg := cfg.c
					got, errs, err := parCfg.Sweep(ctx, powers, robust.Options{Workers: w, KeepGoing: keepGoing})
					if err != nil || errs != nil {
						t.Fatalf("workers=%d keep-going=%t: errs %v, err %v", w, keepGoing, errs, err)
					}
					if len(got) != len(want) {
						t.Fatalf("workers=%d keep-going=%t: %d points, want %d", w, keepGoing, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("workers=%d keep-going=%t: point %d = %+v, want %+v (must be bitwise identical)",
								w, keepGoing, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestRunFig10ParallelGolden: the Fig. 10 summary is bitwise identical
// at any worker count, in both failure modes and through RunFig10Opts.
func TestRunFig10ParallelGolden(t *testing.T) {
	base := Config{Structure: materials.Al6061}
	want, _, err := RunFig10(context.Background(), base, robust.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []robust.Options{{Workers: 4}, {Workers: 4, KeepGoing: true}} {
		got, errs, err := RunFig10(context.Background(), base, o)
		if err != nil || errs != nil {
			t.Fatalf("%+v: errs %v, err %v", o, errs, err)
		}
		if *got != *want {
			t.Fatalf("%+v: parallel Fig. 10 summary %+v differs from serial %+v", o, *got, *want)
		}
	}
	got, _, err := RunFig10Opts(Fig10Options{Structure: materials.Al6061, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("RunFig10Opts summary %+v differs from serial %+v", *got, *want)
	}
}
