// Package mech implements the structural-dynamics models behind the
// paper's mechanical design flow (§II.A, Figs. 2–3): lumped mass–spring–
// damper assemblies for equipment-on-isolator studies (the inertial
// measurement unit with its "mechanical filtering function and dampers"),
// Euler–Bernoulli beam finite elements for chassis members and card
// strips, and classical plate modal formulas for PCBs (the Ariane power
// supply whose "main resonant mode [was] located around 500 Hz").
//
// Frequencies are Hz, stiffnesses N/m, masses kg.
package mech

import (
	"fmt"
	"math"
	"math/cmplx"

	"aeropack/internal/linalg"
	"aeropack/internal/units"
)

// Ground is the reserved node name for the fixed base in lumped systems.
const Ground = "ground"

// Lumped is a lumped-parameter structural system: point masses connected
// by springs and viscous dampers, optionally to ground.  The base can be
// excited to compute transmissibilities (isolator design).
type Lumped struct {
	names  map[string]int
	labels []string
	mass   []float64

	springs []coupling
	dampers []coupling
}

type coupling struct {
	a, b int // index; -1 = ground
	v    float64
}

// NewLumped returns an empty lumped system.
func NewLumped() *Lumped {
	return &Lumped{names: map[string]int{}}
}

func (s *Lumped) node(name string) int {
	if name == Ground {
		return -1
	}
	if id, ok := s.names[name]; ok {
		return id
	}
	id := len(s.labels)
	s.names[name] = id
	s.labels = append(s.labels, name)
	s.mass = append(s.mass, 0)
	return id
}

// AddMass assigns mass m (kg) to a node, accumulating over calls.
func (s *Lumped) AddMass(name string, m float64) error {
	if name == Ground {
		return fmt.Errorf("mech: cannot assign mass to ground")
	}
	if m <= 0 {
		return fmt.Errorf("mech: mass must be positive")
	}
	s.mass[s.node(name)] += m
	return nil
}

// AddSpring connects two nodes (or a node and Ground) with stiffness k.
func (s *Lumped) AddSpring(a, b string, k float64) error {
	if k <= 0 {
		return fmt.Errorf("mech: spring stiffness must be positive")
	}
	ia, ib := s.node(a), s.node(b)
	if ia == ib {
		return fmt.Errorf("mech: spring endpoints identical (%q)", a)
	}
	s.springs = append(s.springs, coupling{ia, ib, k})
	return nil
}

// AddDamper connects two nodes (or a node and Ground) with viscous damping
// coefficient c (N·s/m).
func (s *Lumped) AddDamper(a, b string, c float64) error {
	if c < 0 {
		return fmt.Errorf("mech: damping must be non-negative")
	}
	ia, ib := s.node(a), s.node(b)
	if ia == ib {
		return fmt.Errorf("mech: damper endpoints identical (%q)", a)
	}
	s.dampers = append(s.dampers, coupling{ia, ib, c})
	return nil
}

// matrices assembles K, C, M (dense) plus the base-coupling vectors kg, cg
// holding the stiffness/damping each DOF shares with ground.
func (s *Lumped) matrices() (k, c, m *linalg.Dense, kg, cg []float64, err error) {
	n := len(s.labels)
	if n == 0 {
		return nil, nil, nil, nil, nil, fmt.Errorf("mech: empty system")
	}
	for i, mv := range s.mass {
		if mv <= 0 {
			return nil, nil, nil, nil, nil, fmt.Errorf("mech: node %q has no mass", s.labels[i])
		}
	}
	k = linalg.NewDense(n, n)
	c = linalg.NewDense(n, n)
	m = linalg.NewDense(n, n)
	kg = make([]float64, n)
	cg = make([]float64, n)
	for i, mv := range s.mass {
		m.Set(i, i, mv)
	}
	apply := func(dst *linalg.Dense, gvec []float64, cpl coupling) {
		switch {
		case cpl.a < 0:
			dst.Add(cpl.b, cpl.b, cpl.v)
			gvec[cpl.b] += cpl.v
		case cpl.b < 0:
			dst.Add(cpl.a, cpl.a, cpl.v)
			gvec[cpl.a] += cpl.v
		default:
			dst.Add(cpl.a, cpl.a, cpl.v)
			dst.Add(cpl.b, cpl.b, cpl.v)
			dst.Add(cpl.a, cpl.b, -cpl.v)
			dst.Add(cpl.b, cpl.a, -cpl.v)
		}
	}
	for _, sp := range s.springs {
		apply(k, kg, sp)
	}
	for _, dp := range s.dampers {
		apply(c, cg, dp)
	}
	return k, c, m, kg, cg, nil
}

// Mode is one natural mode of a system.
type Mode struct {
	FreqHz float64
	Shape  map[string]float64 // mass-normalised displacement per node
}

// Modal returns the undamped natural modes, ascending in frequency.
func (s *Lumped) Modal() ([]Mode, error) {
	k, _, m, _, _, err := s.matrices()
	if err != nil {
		return nil, err
	}
	vals, vecs, err := linalg.EigenGeneral(k, m, 1e-12, 200)
	if err != nil {
		return nil, err
	}
	modes := make([]Mode, len(vals))
	for j := range vals {
		lam := vals[j]
		if lam < 0 {
			lam = 0
		}
		shape := make(map[string]float64, len(s.labels))
		for i, name := range s.labels {
			shape[name] = vecs.At(i, j)
		}
		modes[j] = Mode{FreqHz: math.Sqrt(lam) / (2 * math.Pi), Shape: shape}
	}
	return modes, nil
}

// Transmissibility returns |X_node/X_base| at frequency f (Hz) for
// harmonic base excitation applied through every ground-connected spring
// and damper.
func (s *Lumped) Transmissibility(node string, f float64) (float64, error) {
	if f < 0 {
		return 0, fmt.Errorf("mech: negative frequency")
	}
	id, ok := s.names[node]
	if !ok {
		return 0, fmt.Errorf("mech: unknown node %q", node)
	}
	k, c, m, kg, cg, err := s.matrices()
	if err != nil {
		return 0, err
	}
	n := len(s.labels)
	w := 2 * math.Pi * f
	// (−ω²M + iωC + K)·x = (K_g + iωC_g)·u, u = 1.
	a := make([]complex128, n*n)
	b := make([]complex128, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i*n+j] = complex(k.At(i, j)-w*w*m.At(i, j), w*c.At(i, j))
		}
		b[i] = complex(kg[i], w*cg[i])
	}
	x, err := solveComplex(a, b, n)
	if err != nil {
		return 0, err
	}
	return cmplx.Abs(x[id]), nil
}

// TransmissibilitySweep evaluates Transmissibility over a log-spaced
// frequency grid [f0, f1] with npts points, returning parallel slices.
func (s *Lumped) TransmissibilitySweep(node string, f0, f1 float64, npts int) ([]float64, []float64, error) {
	if f0 <= 0 || f1 <= f0 || npts < 2 {
		return nil, nil, fmt.Errorf("mech: invalid sweep range")
	}
	fs := make([]float64, npts)
	ts := make([]float64, npts)
	for i := 0; i < npts; i++ {
		fs[i] = f0 * math.Pow(f1/f0, float64(i)/float64(npts-1))
		t, err := s.Transmissibility(node, fs[i])
		if err != nil {
			return nil, nil, err
		}
		ts[i] = t
	}
	return fs, ts, nil
}

// solveComplex performs Gaussian elimination with partial pivoting on an
// n×n complex system stored row-major.
func solveComplex(a []complex128, b []complex128, n int) ([]complex128, error) {
	for col := 0; col < n; col++ {
		// Pivot.
		p, best := col, cmplx.Abs(a[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := cmplx.Abs(a[r*n+col]); v > best {
				p, best = r, v
			}
		}
		if best < 1e-300 {
			return nil, fmt.Errorf("mech: singular dynamic stiffness matrix")
		}
		if p != col {
			for j := 0; j < n; j++ {
				a[p*n+j], a[col*n+j] = a[col*n+j], a[p*n+j]
			}
			b[p], b[col] = b[col], b[p]
		}
		inv := 1 / a[col*n+col]
		for r := col + 1; r < n; r++ {
			f := a[r*n+col] * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				a[r*n+j] -= f * a[col*n+j]
			}
			b[r] -= f * b[col]
		}
	}
	x := make([]complex128, n)
	for i := n - 1; i >= 0; i-- {
		sum := b[i]
		for j := i + 1; j < n; j++ {
			sum -= a[i*n+j] * x[j]
		}
		x[i] = sum / a[i*n+i]
	}
	return x, nil
}

// SDOF helpers — the isolator designer's back-of-envelope formulas.

// NaturalFreqHz returns f_n = (1/2π)·√(k/m).
func NaturalFreqHz(k, m float64) float64 {
	if k <= 0 || m <= 0 {
		return 0
	}
	return math.Sqrt(k/m) / (2 * math.Pi)
}

// SDOFTransmissibility returns the classic base-excitation
// transmissibility of a single DOF at frequency ratio r = f/f_n with
// damping ratio zeta, √((1 + (2ζr)²) / ((1 − r²)² + (2ζr)²)).  Each
// square is one product, which rounds as math.Pow(x, 2) does; the
// float64 conversions keep a multiply-add architecture from fusing a
// square into the sum after it.
func SDOFTransmissibility(r, zeta float64) float64 {
	c := 2 * zeta * r
	b := 1 - r*r
	c2 := float64(c * c)
	return math.Sqrt((1 + c2) / (float64(b*b) + c2))
}

// IsolatorStiffness returns the spring rate (per isolator, count n) that
// places a mass m (kg) at natural frequency fn (Hz).
func IsolatorStiffness(m, fn float64, n int) (float64, error) {
	if m <= 0 || fn <= 0 || n < 1 {
		return 0, fmt.Errorf("mech: invalid isolator sizing inputs")
	}
	w := 2 * math.Pi * fn
	return m * w * w / float64(n), nil
}

// QFactor converts a damping ratio to the resonant amplification Q ≈ 1/(2ζ).
func QFactor(zeta float64) float64 {
	if zeta <= 0 {
		return math.Inf(1)
	}
	return 1 / (2 * zeta)
}

// StaticDeflection returns each node's quasi-static displacement (m)
// under a steady base acceleration of gLevel (g) — the 9 g sustained-
// acceleration clearance check: x = K⁻¹·M·1·a.
func (s *Lumped) StaticDeflection(gLevel float64) (map[string]float64, error) {
	k, _, m, _, _, err := s.matrices()
	if err != nil {
		return nil, err
	}
	n := len(s.labels)
	f := make([]float64, n)
	a := units.GLevel(gLevel)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			f[i] += m.At(i, j) * a
		}
	}
	x, err := linalg.SolveDense(k, f)
	if err != nil {
		return nil, fmt.Errorf("mech: static solve failed (unconstrained system?): %w", err)
	}
	out := make(map[string]float64, n)
	for i, name := range s.labels {
		out[name] = x[i]
	}
	return out, nil
}
