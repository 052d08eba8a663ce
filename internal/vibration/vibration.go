// Package vibration implements random-vibration and shock analysis for
// avionics qualification: acceleration PSD spectra (including DO-160
// random-vibration curves — the paper's SEB qualification used "vibrations
// according to DO160 Curve C1"), Miles' equation, exact RMS response
// integration through an SDOF transmissibility, Steinberg's three-band
// fatigue method for board-mounted components, and shock response spectra
// for half-sine pulses.
package vibration

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"aeropack/internal/mech"
	"aeropack/internal/units"
)

// PSD is a one-sided acceleration power spectral density defined by
// breakpoints (f in Hz, value in g²/Hz) interpolated log-log, the standard
// presentation of qualification spectra.  Build one with NewPSD and do
// not modify F or G afterwards: At reads the logs NewPSD took of them.
type PSD struct {
	F []float64 // Hz, strictly increasing
	G []float64 // g²/Hz, positive

	lnF, lnG []float64 // ln F and ln G
}

// NewPSD validates and stores a spectrum, with the logs of its
// breakpoints for At.
func NewPSD(f, g []float64) (*PSD, error) {
	if len(f) != len(g) || len(f) < 2 {
		return nil, fmt.Errorf("vibration: PSD needs ≥2 matched breakpoints")
	}
	for i := range f {
		if g[i] <= 0 {
			return nil, fmt.Errorf("vibration: PSD values must be positive")
		}
		if i > 0 && f[i] <= f[i-1] {
			return nil, fmt.Errorf("vibration: PSD frequencies must increase")
		}
	}
	if f[0] <= 0 {
		return nil, fmt.Errorf("vibration: PSD frequencies must be positive")
	}
	p := &PSD{F: append([]float64(nil), f...), G: append([]float64(nil), g...),
		lnF: make([]float64, len(f)), lnG: make([]float64, len(g))}
	for i := range f {
		p.lnF[i], p.lnG[i] = math.Log(f[i]), math.Log(g[i])
	}
	return p, nil
}

// At returns the PSD value at frequency f (g²/Hz), log-log interpolated,
// zero outside the band.  It takes one logarithm and one exponential:
// the breakpoints' logs are NewPSD's.
func (p *PSD) At(f float64) float64 {
	if f < p.F[0] || f > p.F[len(p.F)-1] {
		return 0
	}
	i := sort.SearchFloat64s(p.F, f)
	if i < len(p.F) && p.F[i] == f { //lint:allow floatcmp exact breakpoint hit from binary search
		return p.G[i]
	}
	lo, hi := i-1, i
	t := (math.Log(f) - p.lnF[lo]) / (p.lnF[hi] - p.lnF[lo])
	return math.Exp(p.lnG[lo] + t*(p.lnG[hi]-p.lnG[lo]))
}

// RMS returns the overall g-RMS of the spectrum (exact integration of the
// log-log segments).
func (p *PSD) RMS() float64 {
	area := 0.0
	for i := 0; i+1 < len(p.F); i++ {
		f1, f2 := p.F[i], p.F[i+1]
		g1, g2 := p.G[i], p.G[i+1]
		// Slope in dB/octave terms: G = g1·(f/f1)^m.
		m := math.Log(g2/g1) / math.Log(f2/f1)
		if math.Abs(m+1) < 1e-12 {
			area += g1 * f1 * math.Log(f2/f1)
		} else {
			area += g1 / (m + 1) * (f2*math.Pow(f2/f1, m) - f1)
		}
	}
	return math.Sqrt(area)
}

// Scale returns a copy with all PSD values multiplied by s (s>0) — used
// to derive response spectra or margin-test levels.
func (p *PSD) Scale(s float64) (*PSD, error) {
	if s <= 0 {
		return nil, fmt.Errorf("vibration: scale must be positive")
	}
	g := make([]float64, len(p.G))
	for i, v := range p.G {
		g[i] = v * s
	}
	return NewPSD(p.F, g)
}

// DO160 returns a representative RTCA DO-160 Section 8 random-vibration
// spectrum by curve designation.  Curve C1 is the one the COSEE seats were
// qualified against; B1 (fuselage, lower level) and D1 (higher level,
// e.g. rotorcraft-adjacent zones) are provided for comparative studies.
// Shapes follow the standard 10–2000 Hz template: rising low-frequency
// flank, flat plateau, falling high-frequency flank.
func DO160(curve string) (*PSD, error) {
	switch curve {
	case "B1":
		return NewPSD(
			[]float64{10, 40, 500, 2000},
			[]float64{0.0005, 0.002, 0.002, 0.0005})
	case "C1":
		return NewPSD(
			[]float64{10, 40, 500, 2000},
			[]float64{0.003, 0.012, 0.012, 0.003})
	case "D1":
		return NewPSD(
			[]float64{10, 40, 500, 2000},
			[]float64{0.01, 0.04, 0.04, 0.01})
	default:
		return nil, fmt.Errorf("vibration: unknown DO-160 curve %q", curve)
	}
}

// Miles returns the g-RMS response of a lightly damped SDOF at natural
// frequency fn with amplification Q on a locally flat input PSD (g²/Hz):
// g_rms = √(π/2 · fn · Q · W).
func Miles(fn, q, psdAtFn float64) float64 {
	if fn <= 0 || q <= 0 || psdAtFn <= 0 {
		return 0
	}
	return math.Sqrt(math.Pi / 2 * fn * q * psdAtFn)
}

// ResponseRMS integrates the exact SDOF base-excitation transmissibility
// over the input PSD, returning the response g-RMS: the trapezoid rule on
// the log grid fMin·(fMax/fMin)^(i/600), i = 0…600, merged with a
// resonance cluster fn·(1 + k·ζ), k = −3…3 in steps of 0.05, inside the
// band.  The log grid is shared (see gridMemo); the cluster ascends, so it
// merges into the grid point by point, and a point equal to the one
// before it is skipped.
func ResponseRMS(p *PSD, fn, zeta float64) (float64, error) {
	if fn <= 0 || zeta <= 0 {
		return 0, fmt.Errorf("vibration: fn and zeta must be positive")
	}
	fMin, fMax := p.F[0], p.F[len(p.F)-1]
	grid := responseGrid.grid(fMin, fMax)
	area := 0.0
	prevF := grid[0]
	prevV := integrand(p, fn, zeta, prevF)
	add := func(f float64) {
		if f == prevF { //lint:allow floatcmp dedup of identical sorted grid points
			return
		}
		v := integrand(p, fn, zeta, f)
		area += 0.5 * (v + prevV) * (f - prevF)
		prevF, prevV = f, v
	}
	i := 1
	for df := -3.0; df <= 3.0; df += 0.05 {
		f := fn * (1 + df*zeta)
		if f > fMin && f < fMax {
			for ; i < len(grid) && grid[i] <= f; i++ {
				add(grid[i])
			}
			add(f)
		}
	}
	for ; i < len(grid); i++ {
		add(grid[i])
	}
	return math.Sqrt(area), nil
}

func integrand(p *PSD, fn, zeta, f float64) float64 {
	t := mech.SDOFTransmissibility(f/fn, zeta)
	return t * t * p.At(f)
}

// SteinbergMaxDisp returns Steinberg's allowable 3σ single-amplitude board
// deflection (m) for 20-million-cycle component fatigue life:
// Z3σ = 0.00022·B / (c·h·r·√L) with B, L, h in inches; the function takes
// metres and converts internally.
//   - boardSpan: board dimension parallel to component, m
//   - compLen: component body length, m
//   - h: board thickness, m
//   - c: component type constant (1.0 DIP, 1.26 side-brazed, 0.75 BGA …)
//   - r: position factor (1.0 centre, 0.707 half-way, 0.5 quarter-point)
func SteinbergMaxDisp(boardSpan, compLen, h, c, r float64) (float64, error) {
	if boardSpan <= 0 || compLen <= 0 || h <= 0 || c <= 0 || r <= 0 {
		return 0, fmt.Errorf("vibration: Steinberg inputs must be positive")
	}
	const inch = 0.0254
	bIn := boardSpan / inch
	lIn := compLen / inch
	hIn := h / inch
	zIn := 0.00022 * bIn / (c * hIn * r * math.Sqrt(lIn))
	return zIn * inch, nil
}

// BoardDisp3Sigma converts a board RMS acceleration response (g) at its
// natural frequency fn to the 3σ dynamic single-amplitude displacement
// (m): Z = 3·a/(2πfn)² with a in m/s².
func BoardDisp3Sigma(gRMS, fn float64) float64 {
	if fn <= 0 {
		return math.Inf(1)
	}
	a := units.GLevel(3 * gRMS)
	w := 2 * math.Pi * fn
	return a / (w * w)
}

// ThreeBandDamage returns the Miner fatigue damage fraction accumulated in
// duration (s) by a component with Basquin exponent b (S-N slope, positive
// as used here: N = Nref·(Zlimit/Z)^b) responding at fn.  The Steinberg
// three-band technique weights 1σ/2σ/3σ excursions 68.3/27.1/4.33%.
// zRatio is Z3σ/Zlimit where Zlimit is the 20-Mcycle (3σ basis) allowable:
// zRatio = 1 is the design point.
func ThreeBandDamage(fn, durationS, zRatio, b float64) (float64, error) {
	if fn <= 0 || durationS < 0 || zRatio < 0 || b <= 0 {
		return 0, fmt.Errorf("vibration: invalid three-band inputs")
	}
	if zRatio == 0 || durationS == 0 {
		return 0, nil
	}
	const nRef = 20e6 // cycles at Zlimit (3σ basis)
	cycles := fn * durationS
	damage := 0.0
	// The allowable is defined on a 3σ basis: when 3·Z1σ = Zlimit the
	// spectrum accumulates unit damage after Nref cycles.
	for _, band := range []struct {
		sigma float64
		frac  float64
	}{{1, 0.683}, {2, 0.271}, {3, 0.0433}} {
		zOverLimit := band.sigma * zRatio / 3
		n := nRef * math.Pow(1/math.Max(zOverLimit, 1e-12), b)
		damage += band.frac * cycles / n
	}
	return damage, nil
}

// HalfSineSRS computes the maximax absolute-acceleration shock response
// spectrum of a half-sine pulse (amplitude g, duration s) over the given
// natural frequencies using direct time integration of each SDOF with
// amplification Q.
func HalfSineSRS(ampG, durS float64, freqs []float64, q float64) ([]float64, error) {
	if ampG <= 0 || durS <= 0 || q <= 0.5 {
		return nil, fmt.Errorf("vibration: invalid SRS inputs")
	}
	zeta := 1 / (2 * q)
	out := make([]float64, len(freqs))
	for i, fn := range freqs {
		if fn <= 0 {
			return nil, fmt.Errorf("vibration: SRS frequency must be positive")
		}
		wn := 2 * math.Pi * fn
		// Integrate z̈ + 2ζwn·ż + wn²z = −ü_base; absolute acc = z̈+ü.
		dt := math.Min(durS/200, 1/(fn*40))
		tEnd := durS + 8/fn // ring-down window
		var z, zd float64
		peak := 0.0
		for t := 0.0; t < tEnd; t += dt {
			base := 0.0
			if t < durS {
				base = ampG * math.Sin(math.Pi*t/durS)
			}
			// RK4 on the SDOF.
			f := func(z, zd, tt float64) (float64, float64) {
				b := 0.0
				if tt < durS {
					b = ampG * math.Sin(math.Pi*tt/durS)
				}
				return zd, -2*zeta*wn*zd - wn*wn*z - units.GLevel(b)
			}
			k1z, k1v := f(z, zd, t)
			k2z, k2v := f(z+0.5*dt*k1z, zd+0.5*dt*k1v, t+0.5*dt)
			k3z, k3v := f(z+0.5*dt*k2z, zd+0.5*dt*k2v, t+0.5*dt)
			k4z, k4v := f(z+dt*k3z, zd+dt*k3v, t+dt)
			z += dt / 6 * (k1z + 2*k2z + 2*k3z + k4z)
			zd += dt / 6 * (k1v + 2*k2v + 2*k3v + k4v)
			// Absolute acceleration in g.
			zdd := -2*zeta*wn*zd - wn*wn*z - units.GLevel(base)
			abs := math.Abs(units.ToGLevel(zdd) + base)
			if abs > peak {
				peak = abs
			}
		}
		out[i] = peak
	}
	return out, nil
}

// SineSweepPeak returns the worst-case response acceleration (g) of an
// SDOF (fn, zeta) under a slow sine sweep with the given input amplitude
// profile amp(f) in g, evaluated on the log grid f0·(f1/f0)^(i/2000),
// i = 0…2000, which is shared (see gridMemo).
func SineSweepPeak(fn, zeta, f0, f1 float64, amp func(f float64) float64) (float64, error) {
	if fn <= 0 || zeta <= 0 || f0 <= 0 || f1 <= f0 || amp == nil {
		return 0, fmt.Errorf("vibration: invalid sweep inputs")
	}
	peak := 0.0
	for _, f := range sweepGrid.grid(f0, f1) {
		r := mech.SDOFTransmissibility(f/fn, zeta) * amp(f)
		if r > peak {
			peak = r
		}
	}
	return peak, nil
}

// gridMemo keeps the last log-spaced grid lo·(hi/lo)^(i/n), i = 0…n, that
// one call site built, so calls with the same band (every served one asks
// for 10–2000 Hz) skip the n+1 math.Pow calls.  A stored grid is never
// written again, so concurrent callers share it read-only; a call with
// another band builds its own grid and replaces the slot, so a memo holds
// one grid whatever it is asked for.  The band is matched by its bits.
type gridMemo struct {
	n    int
	last atomic.Pointer[logGrid]
}

type logGrid struct {
	lo, hi uint64 // math.Float64bits of the band edges
	f      []float64
}

var (
	responseGrid = &gridMemo{n: 600}  // ResponseRMS
	sweepGrid    = &gridMemo{n: 2000} // SineSweepPeak
)

// grid returns the grid over [lo, hi] in ascending order.  The sort
// guards ResponseRMS's merge (SineSweepPeak's maximum does not depend on
// the order): math.Pow is not correctly rounded, so nothing promises
// that its powers ascend to the last bit.
func (m *gridMemo) grid(lo, hi float64) []float64 {
	bl, bh := math.Float64bits(lo), math.Float64bits(hi)
	if g := m.last.Load(); g != nil && g.lo == bl && g.hi == bh {
		return g.f
	}
	f := make([]float64, m.n+1)
	for i := range f {
		f[i] = lo * math.Pow(hi/lo, float64(i)/float64(m.n))
	}
	sort.Float64s(f)
	m.last.Store(&logGrid{lo: bl, hi: bh, f: f})
	return f
}

// DistributedRandomRMS returns the absolute-acceleration g-RMS at each
// structural node of a base-excited distributed structure by modal
// superposition: per mode, the SDOF random response at its frequency is
// weighted by Γ_j·φ_j(node) and the modal contributions combined SRSS —
// the standard upgrade from Steinberg's single-mode estimate when a
// structure has several participating modes in the excitation band.
func DistributedRandomRMS(modes []mech.DistMode, psd *PSD, zeta float64) ([]float64, error) {
	if len(modes) == 0 {
		return nil, fmt.Errorf("vibration: no modes supplied")
	}
	if zeta <= 0 {
		return nil, fmt.Errorf("vibration: damping must be positive")
	}
	nn := len(modes[0].Shape)
	out := make([]float64, nn)
	for _, md := range modes {
		if len(md.Shape) != nn {
			return nil, fmt.Errorf("vibration: inconsistent mode shape lengths")
		}
		if md.FreqHz <= 0 {
			continue
		}
		r, err := ResponseRMS(psd, md.FreqHz, zeta)
		if err != nil {
			return nil, err
		}
		for i, phi := range md.Shape {
			c := md.Participation * phi * r
			out[i] += c * c
		}
	}
	for i := range out {
		out[i] = math.Sqrt(out[i])
	}
	return out, nil
}
