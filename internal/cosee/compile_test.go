package cosee

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"aeropack/internal/robust"
	"aeropack/internal/units"
)

// TestSweepKeepGoingErrorParity pins the per-point errors of a
// keep-going sweep: a point fails its power check before the network's
// build error, and a non-finite power is the network's source error,
// with the labels and messages these studies have always reported.
func TestSweepKeepGoingErrorParity(t *testing.T) {
	powers := []float64{40, -1, math.NaN(), math.Inf(1), 60}
	const (
		notPositive = "cosee: power must be positive"
		badR        = `thermal: resistance -1 between "pcb" and "wall" must be positive and finite`
	)
	for _, tc := range []struct {
		name string
		c    Config
		want map[int]string // failed point index → message
	}{
		{"lhp", Config{UseLHP: true, TiltDeg: 22}, map[int]string{
			1: notPositive,
			2: `thermal: node "pcb" has non-finite source NaN W`,
			3: `thermal: node "pcb" has non-finite source +Inf W`,
		}},
		{"unbuildable", Config{InternalR: -1}, map[int]string{
			0: badR, 1: notPositive, 2: badR, 3: badR, 4: badR,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, w := range []int{1, 3} {
				pts, errs, err := tc.c.Sweep(context.Background(), powers, robust.Options{Workers: w, KeepGoing: true})
				if err != nil {
					t.Fatal(err)
				}
				if len(errs) != len(tc.want) {
					t.Fatalf("workers=%d: %d point errors %v, want %d", w, len(errs), errs, len(tc.want))
				}
				labels := []string{"P=40 W", "P=-1 W", "P=NaN W", "P=+Inf W", "P=60 W"}
				for _, pe := range errs {
					msg, ok := tc.want[pe.Index]
					if !ok {
						t.Fatalf("workers=%d: unexpected failure %v", w, pe)
					}
					if pe.Label != labels[pe.Index] || pe.Err.Error() != msg {
						t.Errorf("workers=%d: point %d = (%q, %q), want (%q, %q)",
							w, pe.Index, pe.Label, pe.Err, labels[pe.Index], msg)
					}
				}
				for i, p := range pts {
					if _, failed := tc.want[i]; !failed && !(p.PowerW == powers[i] && p.DeltaTK > 0) {
						t.Errorf("workers=%d: surviving point %d = %+v", w, i, p)
					}
				}
			}
		})
	}
}

// TestSweepFaultFnOncePerPoint: the fault seam sees every point of a
// sweep exactly once, with that point's power, whether or not the
// point then solves.
func TestSweepFaultFnOncePerPoint(t *testing.T) {
	powers := []float64{40, -1, math.NaN(), math.Inf(1), 60, 40}
	for _, c := range []Config{{UseLHP: true}, {InternalR: -1}} {
		var mu sync.Mutex
		var seen []uint64
		c.FaultFn = func(p float64) error {
			mu.Lock()
			seen = append(seen, math.Float64bits(p))
			mu.Unlock()
			return nil
		}
		if _, _, err := c.Sweep(context.Background(), powers, robust.Options{Workers: 2, KeepGoing: true}); err != nil {
			t.Fatal(err)
		}
		want := make([]uint64, len(powers))
		for i, p := range powers {
			want[i] = math.Float64bits(p)
		}
		slices.Sort(want)
		slices.Sort(seen)
		if !slices.Equal(seen, want) {
			t.Errorf("InternalR=%g: FaultFn saw %v, want each of %v once", c.InternalR, seen, want)
		}
	}
}

// TestSharedConfigWarmupAndBuild: Warmup and BuildNetwork only read
// their Config, so goroutines sharing one may call them at once (run
// under -race).
func TestSharedConfigWarmupAndBuild(t *testing.T) {
	c := Config{UseLHP: true}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := c.Warmup(context.Background(), 40, 30, 20); err != nil {
				t.Error(err)
			}
			if _, err := c.BuildNetwork(40); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if c.AmbientC != 0 || c.LHPCount != 0 {
		t.Errorf("the shared Config was written: %+v", c)
	}
}

// TestCompiledNetworkConcurrent: one compiled configuration solved at
// 16 powers from 8 goroutines at once gives, bit for bit, the point a
// fresh serial SolveContext gives (run under -race).
func TestCompiledNetworkConcurrent(t *testing.T) {
	ctx := context.Background()
	c := Config{UseLHP: true, TiltDeg: 22}
	powers := make([]float64, 16)
	want := make([]Point, len(powers))
	for i := range powers {
		powers[i] = 10 + 10*float64(i)
		pt, err := c.SolveContext(ctx, powers[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = pt
	}
	r := c.compile()
	got := make([][]Point, 8)
	var wg sync.WaitGroup
	for g := range got {
		got[g] = make([]Point, len(powers))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range powers {
				i := (k + 2*g) % len(powers) // each goroutine starts elsewhere
				pt, err := r.solve(ctx, powers[i])
				if err != nil {
					t.Error(err)
					return
				}
				got[g][i] = pt
			}
		}()
	}
	wg.Wait()
	bits := func(p Point) [3]uint64 {
		return [3]uint64{math.Float64bits(p.PowerW), math.Float64bits(p.DeltaTK), math.Float64bits(p.LHPPower)}
	}
	for g := range got {
		for i := range powers {
			if bits(got[g][i]) != bits(want[i]) {
				t.Errorf("goroutine %d, %g W: %+v, want %+v", g, powers[i], got[g][i], want[i])
			}
		}
	}
}

// TestIndexedReadsMatchNames: the PCB temperature and loop flows a point
// reads by index are, bit for bit, what the network built for that
// power reports by name.
func TestIndexedReadsMatchNames(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		c     Config
		loops int
	}{
		{Config{}, 0},
		{Config{UseLHP: true, TiltDeg: 22}, 2},
		{Config{UseLHP: true, UseThermosyphon: true, LHPCount: 3}, 3},
	} {
		pt, err := tc.c.SolveContext(ctx, 70)
		if err != nil {
			t.Fatal(err)
		}
		n, err := tc.c.BuildNetwork(70)
		if err != nil {
			t.Fatal(err)
		}
		res, err := n.SolveSteady(ctx)
		if err != nil {
			t.Fatal(err)
		}
		pcb, ok := res.At("pcb")
		if !ok {
			t.Fatal("no pcb node")
		}
		lhp := 0.0
		for i := 0; i < tc.loops; i++ {
			lhp += n.FlowBetween(res, fmt.Sprintf("evap%d", i), "structure")
		}
		if math.Float64bits(pt.DeltaTK) != math.Float64bits(pcb-units.CToK(25)) ||
			math.Float64bits(pt.LHPPower) != math.Float64bits(lhp) {
			t.Errorf("%+v: point %+v, by name ΔT %v and loop flow %v", tc.c, pt, pcb-units.CToK(25), lhp)
		}
	}
}
