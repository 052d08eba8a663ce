package vibration

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"
)

// The ref* functions are the kernels in their first form: math.Pow
// squares, seven logarithms per PSD.At call, and a log grid rebuilt and
// sorted with the resonance cluster on every call.  The kernels must
// match them bit for bit.

func refTransmissibility(r, zeta float64) float64 {
	num := 1 + math.Pow(2*zeta*r, 2)
	den := math.Pow(1-r*r, 2) + math.Pow(2*zeta*r, 2)
	return math.Sqrt(num / den)
}

func refAt(p *PSD, f float64) float64 {
	if f < p.F[0] || f > p.F[len(p.F)-1] {
		return 0
	}
	i := sort.SearchFloat64s(p.F, f)
	if i < len(p.F) && p.F[i] == f {
		return p.G[i]
	}
	lo, hi := i-1, i
	t := (math.Log(f) - math.Log(p.F[lo])) / (math.Log(p.F[hi]) - math.Log(p.F[lo]))
	return math.Exp(math.Log(p.G[lo]) + t*(math.Log(p.G[hi])-math.Log(p.G[lo])))
}

func refResponseRMS(p *PSD, fn, zeta float64) (float64, error) {
	if fn <= 0 || zeta <= 0 {
		return 0, fmt.Errorf("vibration: fn and zeta must be positive")
	}
	fMin, fMax := p.F[0], p.F[len(p.F)-1]
	// Log grid plus dense resonance cluster.
	var grid []float64
	const n = 600
	for i := 0; i <= n; i++ {
		grid = append(grid, fMin*math.Pow(fMax/fMin, float64(i)/n))
	}
	for df := -3.0; df <= 3.0; df += 0.05 {
		f := fn * (1 + df*zeta)
		if f > fMin && f < fMax {
			grid = append(grid, f)
		}
	}
	sort.Float64s(grid)
	area := 0.0
	prevF := grid[0]
	prevV := refIntegrand(p, fn, zeta, prevF)
	for _, f := range grid[1:] {
		if f == prevF {
			continue
		}
		v := refIntegrand(p, fn, zeta, f)
		area += 0.5 * (v + prevV) * (f - prevF)
		prevF, prevV = f, v
	}
	return math.Sqrt(area), nil
}

func refIntegrand(p *PSD, fn, zeta, f float64) float64 {
	t := refTransmissibility(f/fn, zeta)
	return t * t * refAt(p, f)
}

func refSineSweepPeak(fn, zeta, f0, f1 float64, amp func(f float64) float64) (float64, error) {
	if fn <= 0 || zeta <= 0 || f0 <= 0 || f1 <= f0 || amp == nil {
		return 0, fmt.Errorf("vibration: invalid sweep inputs")
	}
	peak := 0.0
	const n = 2000
	for i := 0; i <= n; i++ {
		f := f0 * math.Pow(f1/f0, float64(i)/n)
		r := refTransmissibility(f/fn, zeta) * amp(f)
		if r > peak {
			peak = r
		}
	}
	return peak, nil
}

// narrowPSD is a spectrum outside DO-160, over 20–1000 Hz.
func narrowPSD(t testing.TB) *PSD {
	t.Helper()
	p, err := NewPSD([]float64{20, 80, 350, 1000}, []float64{0.04, 0.04, 0.01, 0.02})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// kernelPSDs returns the three DO-160 curves and narrowPSD, each with
// natural frequencies below its band, inside it, on a breakpoint and
// above it.
func kernelPSDs(t testing.TB) (psds []*PSD, fns [][]float64) {
	t.Helper()
	for _, c := range []string{"B1", "C1", "D1"} {
		p, err := DO160(c)
		if err != nil {
			t.Fatal(err)
		}
		psds = append(psds, p)
		fns = append(fns, []float64{4, 10, 27.3, 40, 180, 500, 1234.5, 2000, 3100})
	}
	psds = append(psds, narrowPSD(t))
	fns = append(fns, []float64{6, 20, 80, 180, 350, 777.7, 1000, 1600})
	return psds, fns
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestPSDAtMatchesReference(t *testing.T) {
	psds, _ := kernelPSDs(t)
	for _, p := range psds {
		fs := append([]float64{1, 2500}, p.F...)
		for i := 0; i <= 400; i++ {
			fs = append(fs, 5*math.Pow(600, float64(i)/400))
		}
		for _, f := range fs {
			if got, want := p.At(f), refAt(p, f); !sameBits(got, want) {
				t.Errorf("PSD %v: At(%v) = %v, want %v", p.F, f, got, want)
			}
		}
	}
}

func TestResponseRMSMatchesReference(t *testing.T) {
	psds, fns := kernelPSDs(t)
	for k, p := range psds {
		for _, fn := range fns[k] {
			for _, zeta := range []float64{0.005, 0.05, 0.5} {
				got, err := ResponseRMS(p, fn, zeta)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := refResponseRMS(p, fn, zeta)
				if !sameBits(got, want) {
					t.Errorf("PSD %v, fn %v, ζ %v: %v, want %v", p.F, fn, zeta, got, want)
				}
			}
		}
	}
	if _, err := ResponseRMS(psds[0], 0, 0.05); err == nil {
		t.Error("fn = 0 should error")
	}
}

func TestSineSweepPeakMatchesReference(t *testing.T) {
	amps := []func(float64) float64{
		func(float64) float64 { return 1.5 },
		func(f float64) float64 { return 0.5 + f/1000 },
	}
	for _, band := range [][2]float64{{10, 2000}, {20, 1000}, {5, 50}} {
		for _, fn := range []float64{4, 10, 27.3, 40, 180, 500, 1234.5, 3100} {
			for _, zeta := range []float64{0.005, 0.05, 0.5} {
				for k, amp := range amps {
					got, err := SineSweepPeak(fn, zeta, band[0], band[1], amp)
					if err != nil {
						t.Fatal(err)
					}
					want, _ := refSineSweepPeak(fn, zeta, band[0], band[1], amp)
					if !sameBits(got, want) {
						t.Errorf("band %v, fn %v, ζ %v, amp %d: %v, want %v", band, fn, zeta, k, got, want)
					}
				}
			}
		}
	}
}

// TestSharedGridsConcurrent runs ResponseRMS and SineSweepPeak from 8
// goroutines that alternate between two bands, so each call site's grid
// slot is replaced while other goroutines read the grid it held.  Run it
// under -race.
func TestSharedGridsConcurrent(t *testing.T) {
	c1, err := DO160("C1")
	if err != nil {
		t.Fatal(err)
	}
	psds := []*PSD{c1, narrowPSD(t)}              // 10–2000 and 20–1000 Hz
	bands := [][2]float64{{10, 2000}, {20, 1000}} // the same two bands
	amp := func(f float64) float64 { return 0.5 + f/1000 }
	const fn, zeta = 180.0, 0.05
	var wantRMS, wantPeak [2]float64
	for b := range bands {
		wantRMS[b], _ = refResponseRMS(psds[b], fn, zeta)
		wantPeak[b], _ = refSineSweepPeak(fn, zeta, bands[b][0], bands[b][1], amp)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				b := (g + i) % 2
				rms, err := ResponseRMS(psds[b], fn, zeta)
				if err != nil || !sameBits(rms, wantRMS[b]) {
					t.Errorf("goroutine %d, band %v: ResponseRMS = %v (%v), want %v", g, bands[b], rms, err, wantRMS[b])
					return
				}
				peak, err := SineSweepPeak(fn, zeta, bands[b][0], bands[b][1], amp)
				if err != nil || !sameBits(peak, wantPeak[b]) {
					t.Errorf("goroutine %d, band %v: SineSweepPeak = %v (%v), want %v", g, bands[b], peak, err, wantPeak[b])
					return
				}
			}
		}()
	}
	wg.Wait()
}
