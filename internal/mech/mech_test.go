package mech

import (
	"math"
	"testing"

	"aeropack/internal/materials"
	"aeropack/internal/units"
)

func TestSDOFNaturalFreq(t *testing.T) {
	// k = 4π²·m → f = 1 Hz.
	m := 2.5
	k := 4 * math.Pi * math.Pi * m
	if got := NaturalFreqHz(k, m); !units.ApproxEqual(got, 1, 1e-12) {
		t.Errorf("fn = %v", got)
	}
	if NaturalFreqHz(-1, 1) != 0 || NaturalFreqHz(1, 0) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

func TestSDOFTransmissibility(t *testing.T) {
	// At r ≪ 1: T → 1.  At resonance: T ≈ Q = 1/(2ζ).  At r = √2: T = 1.
	// Above: isolation (T < 1).
	zeta := 0.05
	if got := SDOFTransmissibility(0.01, zeta); !units.ApproxEqual(got, 1, 1e-3) {
		t.Errorf("low-freq T = %v", got)
	}
	q := SDOFTransmissibility(1, zeta)
	if !units.ApproxEqual(q, QFactor(zeta), 0.02) {
		t.Errorf("resonant T = %v, want ≈%v", q, QFactor(zeta))
	}
	if got := SDOFTransmissibility(math.Sqrt2, zeta); !units.ApproxEqual(got, 1, 0.01) {
		t.Errorf("crossover T = %v, want 1", got)
	}
	if got := SDOFTransmissibility(5, zeta); got >= 1 {
		t.Errorf("isolation region T = %v, want <1", got)
	}
}

// powSDOFTransmissibility is SDOFTransmissibility in its math.Pow form,
// the reference the product form must match bit for bit.
func powSDOFTransmissibility(r, zeta float64) float64 {
	num := 1 + math.Pow(2*zeta*r, 2)
	den := math.Pow(1-r*r, 2) + math.Pow(2*zeta*r, 2)
	return math.Sqrt(num / den)
}

// TestSDOFTransmissibilityMatchesPowForm pins the product form to the
// math.Pow form's bits: r = 0, r = 1 and 601 ratios log-spaced over
// 1e-3…1e3, at three dampings.
func TestSDOFTransmissibilityMatchesPowForm(t *testing.T) {
	rs := []float64{0, 1}
	for i := 0; i <= 600; i++ {
		rs = append(rs, 1e-3*math.Pow(1e6, float64(i)/600))
	}
	for _, zeta := range []float64{0.005, 0.05, 0.5} {
		for _, r := range rs {
			got, want := SDOFTransmissibility(r, zeta), powSDOFTransmissibility(r, zeta)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("T(r=%v, ζ=%v) = %v, want %v", r, zeta, got, want)
			}
		}
	}
}

func TestQFactor(t *testing.T) {
	if QFactor(0.05) != 10 {
		t.Errorf("Q = %v", QFactor(0.05))
	}
	if !math.IsInf(QFactor(0), 1) {
		t.Error("zero damping → infinite Q")
	}
}

func TestIsolatorStiffness(t *testing.T) {
	// 4 isolators placing a 6 kg IMU at 45 Hz.
	k, err := IsolatorStiffness(6, 45, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Verify round trip: total stiffness restores fn.
	if got := NaturalFreqHz(4*k, 6); !units.ApproxEqual(got, 45, 1e-9) {
		t.Errorf("round trip fn = %v", got)
	}
	if _, err := IsolatorStiffness(-1, 45, 4); err == nil {
		t.Error("bad inputs should error")
	}
}

func TestLumpedSDOFModal(t *testing.T) {
	s := NewLumped()
	if err := s.AddMass("box", 2); err != nil {
		t.Fatal(err)
	}
	if err := s.AddSpring("box", Ground, 2*4*math.Pi*math.Pi*100); err != nil {
		t.Fatal(err)
	}
	modes, err := s.Modal()
	if err != nil {
		t.Fatal(err)
	}
	if len(modes) != 1 {
		t.Fatalf("expected 1 mode, got %d", len(modes))
	}
	if !units.ApproxEqual(modes[0].FreqHz, 10, 1e-9) {
		t.Errorf("fn = %v, want 10", modes[0].FreqHz)
	}
}

func TestLumpedTwoDOFModal(t *testing.T) {
	// Two equal masses, three equal springs (fixed-fixed chain):
	// ω₁ = √(k/m), ω₂ = √(3k/m).
	s := NewLumped()
	s.AddMass("m1", 1)
	s.AddMass("m2", 1)
	k := 1000.0
	s.AddSpring(Ground, "m1", k)
	s.AddSpring("m1", "m2", k)
	s.AddSpring("m2", Ground, k)
	modes, err := s.Modal()
	if err != nil {
		t.Fatal(err)
	}
	w1 := math.Sqrt(k / 1)
	w2 := math.Sqrt(3 * k / 1)
	if !units.ApproxEqual(modes[0].FreqHz, w1/(2*math.Pi), 1e-9) {
		t.Errorf("mode 1 = %v", modes[0].FreqHz)
	}
	if !units.ApproxEqual(modes[1].FreqHz, w2/(2*math.Pi), 1e-9) {
		t.Errorf("mode 2 = %v", modes[1].FreqHz)
	}
	// First mode: in-phase; second: out-of-phase.
	if modes[0].Shape["m1"]*modes[0].Shape["m2"] <= 0 {
		t.Error("first mode should be in phase")
	}
	if modes[1].Shape["m1"]*modes[1].Shape["m2"] >= 0 {
		t.Error("second mode should be out of phase")
	}
}

func TestLumpedTransmissibilityMatchesSDOF(t *testing.T) {
	// Numeric MDOF transmissibility must reproduce the closed-form SDOF
	// curve.
	m, fn, zeta := 3.0, 50.0, 0.08
	k := m * math.Pow(2*math.Pi*fn, 2)
	c := 2 * zeta * math.Sqrt(k*m)
	s := NewLumped()
	s.AddMass("eq", m)
	s.AddSpring("eq", Ground, k)
	s.AddDamper("eq", Ground, c)
	for _, r := range []float64{0.3, 0.9, 1.0, 1.5, 3} {
		got, err := s.Transmissibility("eq", r*fn)
		if err != nil {
			t.Fatal(err)
		}
		want := SDOFTransmissibility(r, zeta)
		if !units.ApproxEqual(got, want, 1e-6) {
			t.Errorf("T(r=%v) = %v, want %v", r, got, want)
		}
	}
}

func TestLumpedIsolationAttenuates(t *testing.T) {
	// The paper's IMU case: isolators filter high-frequency rack input.
	// Check >10× attenuation one decade above the mount frequency.
	s := NewLumped()
	s.AddMass("imu", 6)
	kIso, _ := IsolatorStiffness(6, 45, 4)
	for i := 0; i < 4; i++ {
		s.AddSpring("imu", Ground, kIso)
	}
	c := 2 * 0.1 * math.Sqrt(4*kIso*6)
	s.AddDamper("imu", Ground, c)
	tHigh, err := s.Transmissibility("imu", 450)
	if err != nil {
		t.Fatal(err)
	}
	if tHigh > 0.1 {
		t.Errorf("isolation at 10×fn = %v, want <0.1", tHigh)
	}
}

func TestLumpedSweep(t *testing.T) {
	s := NewLumped()
	s.AddMass("a", 1)
	s.AddSpring("a", Ground, 4e4)
	fs, ts, err := s.TransmissibilitySweep("a", 10, 1000, 31)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 31 || len(ts) != 31 {
		t.Fatal("sweep sizes wrong")
	}
	if fs[0] != 10 || !units.ApproxEqual(fs[30], 1000, 1e-9) {
		t.Errorf("sweep endpoints %v %v", fs[0], fs[30])
	}
	if _, _, err := s.TransmissibilitySweep("a", -1, 10, 5); err == nil {
		t.Error("bad range should error")
	}
	if _, err := s.Transmissibility("nope", 10); err == nil {
		t.Error("unknown node should error")
	}
}

func TestLumpedErrors(t *testing.T) {
	s := NewLumped()
	if err := s.AddMass(Ground, 1); err == nil {
		t.Error("mass on ground should error")
	}
	if err := s.AddMass("a", -1); err == nil {
		t.Error("negative mass should error")
	}
	if err := s.AddSpring("a", "a", 10); err == nil {
		t.Error("self spring should error")
	}
	if err := s.AddSpring("a", "b", -1); err == nil {
		t.Error("negative stiffness should error")
	}
	if err := s.AddDamper("a", "a", 1); err == nil {
		t.Error("self damper should error")
	}
	if _, err := s.Modal(); err == nil {
		t.Error("massless node should error")
	}
	empty := NewLumped()
	if _, err := empty.Modal(); err == nil {
		t.Error("empty system should error")
	}
}

func TestBeamMatchesAnalytic(t *testing.T) {
	al := materials.Al6061
	for _, tc := range []struct {
		left, right Support
	}{
		{Pinned, Pinned},
		{Clamped, Clamped},
		{Clamped, Free},
	} {
		b, err := NewBeamRect(al, 0.3, 0.02, 0.004, 30)
		if err != nil {
			t.Fatal(err)
		}
		b.LeftBC, b.RightBC = tc.left, tc.right
		got, err := b.FundamentalHz()
		if err != nil {
			t.Fatal(err)
		}
		want, err := AnalyticBeamFreq(b.EI, b.RhoA, b.Length, tc.left, tc.right, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !units.ApproxEqual(got, want, 0.005) {
			t.Errorf("BC %v-%v: FEM %v vs analytic %v", tc.left, tc.right, got, want)
		}
	}
}

func TestBeamHigherModes(t *testing.T) {
	al := materials.Al6061
	b, _ := NewBeamRect(al, 0.3, 0.02, 0.004, 40)
	freqs, err := b.ModalFrequencies(3)
	if err != nil {
		t.Fatal(err)
	}
	// Pinned-pinned: f_n ∝ n².
	if !units.ApproxEqual(freqs[1]/freqs[0], 4, 0.01) {
		t.Errorf("mode ratio 2:1 = %v, want 4", freqs[1]/freqs[0])
	}
	if !units.ApproxEqual(freqs[2]/freqs[0], 9, 0.02) {
		t.Errorf("mode ratio 3:1 = %v, want 9", freqs[2]/freqs[0])
	}
}

func TestBeamPointMassLowersFrequency(t *testing.T) {
	al := materials.Al6061
	bare, _ := NewBeamRect(al, 0.3, 0.02, 0.004, 20)
	f0, err := bare.FundamentalHz()
	if err != nil {
		t.Fatal(err)
	}
	loaded, _ := NewBeamRect(al, 0.3, 0.02, 0.004, 20)
	loaded.PointMasses = map[int]float64{10: 0.2} // mid-span transformer
	f1, err := loaded.FundamentalHz()
	if err != nil {
		t.Fatal(err)
	}
	if f1 >= f0 {
		t.Errorf("point mass must lower frequency: %v vs %v", f1, f0)
	}
	bad, _ := NewBeamRect(al, 0.3, 0.02, 0.004, 20)
	bad.PointMasses = map[int]float64{99: 1}
	if _, err := bad.FundamentalHz(); err == nil {
		t.Error("out-of-range point mass should error")
	}
}

func TestBeamValidation(t *testing.T) {
	al := materials.Al6061
	if _, err := NewBeamRect(al, 0, 0.02, 0.004, 10); err == nil {
		t.Error("zero length should error")
	}
	if _, err := NewBeamRect(al, 0.3, 0.02, 0.004, 1); err == nil {
		t.Error("too few elements should error")
	}
	if _, err := AnalyticBeamFreq(1, 1, 1, Free, Free, 1); err == nil {
		t.Error("free-free analytic not supported")
	}
	if _, err := AnalyticBeamFreq(1, 1, 1, Pinned, Pinned, 0); err == nil {
		t.Error("mode 0 should error")
	}
}

func TestPlateSSSSAnalytic(t *testing.T) {
	// Bare FR4 card 160×100×1.6 mm simply supported.
	p := &Plate{A: 0.16, B: 0.10, Thickness: 1.6e-3, Material: materials.FR4, Edges: SSSS}
	f, err := p.FundamentalHz()
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against ModeHz(1,1).
	f11, err := p.ModeHz(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(f, f11, 1e-9) {
		t.Errorf("FundamentalHz %v != ModeHz(1,1) %v", f, f11)
	}
	// Magnitude: a bare Eurocard sits in the few-hundred-Hz range.
	if f < 100 || f > 1000 {
		t.Errorf("Eurocard fundamental = %v Hz, implausible", f)
	}
	// Higher modes ordered.
	f21, _ := p.ModeHz(2, 1)
	f12, _ := p.ModeHz(1, 2)
	if f21 <= f || f12 <= f {
		t.Error("higher modes must exceed the fundamental")
	}
}

func TestPlateEdgeStiffnessOrdering(t *testing.T) {
	mk := func(e PlateEdge) float64 {
		p := &Plate{A: 0.16, B: 0.10, Thickness: 1.6e-3, Material: materials.FR4, Edges: e}
		f, err := p.FundamentalHz()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	ssss := mk(SSSS)
	cccc := mk(CCCC)
	sssf := mk(SSSF)
	if !(cccc > ssss && ssss > sssf) {
		t.Errorf("edge ordering broken: CCCC=%v SSSS=%v SSSF=%v", cccc, ssss, sssf)
	}
}

func TestPlateMassLoadingLowersFrequency(t *testing.T) {
	bare := &Plate{A: 0.16, B: 0.10, Thickness: 1.6e-3, Material: materials.FR4, Edges: SSSS}
	loaded := *bare
	loaded.MassLoadKgM2 = 3 // populated board
	f0, _ := bare.FundamentalHz()
	f1, _ := loaded.FundamentalHz()
	if f1 >= f0 {
		t.Errorf("mass loading must lower frequency: %v vs %v", f1, f0)
	}
}

func TestPlateThicknessForFrequency(t *testing.T) {
	// The Ariane power-supply exercise: choose thickness to put the main
	// mode at 500 Hz.
	p := &Plate{A: 0.2, B: 0.15, Material: materials.FR4, Edges: CCCC, MassLoadKgM2: 2}
	thk, err := p.ThicknessForFrequency(500)
	if err != nil {
		t.Fatal(err)
	}
	p.Thickness = thk
	f, err := p.FundamentalHz()
	if err != nil {
		t.Fatal(err)
	}
	if !units.ApproxEqual(f, 500, 1e-3) {
		t.Errorf("placed mode at %v Hz, want 500", f)
	}
	if _, err := p.ThicknessForFrequency(1e6); err == nil {
		t.Error("unachievable target should error")
	}
	if _, err := p.ThicknessForFrequency(-5); err == nil {
		t.Error("negative target should error")
	}
}

func TestPlateValidation(t *testing.T) {
	p := &Plate{}
	if _, err := p.FundamentalHz(); err == nil {
		t.Error("empty plate should error")
	}
	q := &Plate{A: 0.1, B: 0.1, Thickness: 1e-3, Material: materials.FR4, Edges: SSSS}
	if _, err := q.ModeHz(0, 1); err == nil {
		t.Error("mode 0 should error")
	}
	q.Edges = CCCC
	if _, err := q.ModeHz(2, 2); err == nil {
		t.Error("higher modes for CCCC should error")
	}
}

func TestOctaveRule(t *testing.T) {
	ratio, pass := OctaveRule(250, 600)
	if !pass || !units.ApproxEqual(ratio, 2.4, 1e-9) {
		t.Errorf("octave rule: ratio %v pass %v", ratio, pass)
	}
	if _, pass := OctaveRule(250, 400); pass {
		t.Error("1.6× should fail the octave rule")
	}
	if _, pass := OctaveRule(0, 400); !pass {
		t.Error("no carrier mode should pass trivially")
	}
}

func TestBaseModesParticipation(t *testing.T) {
	al := materials.Al6061
	b, _ := NewBeamRect(al, 0.3, 0.02, 0.004, 30)
	modes, err := b.BaseModes(6)
	if err != nil {
		t.Fatal(err)
	}
	// Frequencies match ModalFrequencies.
	freqs, _ := b.ModalFrequencies(6)
	for i := range modes {
		if !units.ApproxEqual(modes[i].FreqHz, freqs[i], 1e-9) {
			t.Errorf("mode %d frequency mismatch", i)
		}
	}
	// Pinned-pinned uniform beam: mode 1 carries ≈81% of the mass
	// (8/π²)²·… classical: Γ₁²/m_total = 8/π² ≈ 0.811 of the mass.
	total := b.RhoA * b.Length
	frac1 := modes[0].EffectiveModalMass() / total
	if !units.ApproxEqual(frac1, 0.811, 0.03) {
		t.Errorf("mode-1 effective mass fraction = %v, want ≈0.81", frac1)
	}
	// Antisymmetric modes (2, 4, …) have ≈zero participation.
	if math.Abs(modes[1].Participation) > 0.05*math.Abs(modes[0].Participation) {
		t.Errorf("mode 2 participation %v should vanish by symmetry", modes[1].Participation)
	}
	// Cumulative effective mass approaches the total.
	frac, err := ModalMassFraction(modes, total)
	if err != nil {
		t.Fatal(err)
	}
	if frac < 0.85 || frac > 1.01 {
		t.Errorf("6-mode mass fraction = %v, want ≳0.9", frac)
	}
	if _, err := ModalMassFraction(modes, -1); err == nil {
		t.Error("bad total mass should error")
	}
}

func TestBaseModesShapeSampling(t *testing.T) {
	al := materials.Al6061
	b, _ := NewBeamRect(al, 0.3, 0.02, 0.004, 20)
	modes, err := b.BaseModes(1)
	if err != nil {
		t.Fatal(err)
	}
	shape := modes[0].Shape
	if len(shape) != 21 {
		t.Fatalf("shape should sample all %d nodes", 21)
	}
	// Pinned ends: zero deflection.
	if shape[0] != 0 || shape[20] != 0 {
		t.Error("pinned ends must be zero in the sampled shape")
	}
	// Mode 1 peaks at mid-span.
	mid := math.Abs(shape[10])
	for i, v := range shape {
		if math.Abs(v) > mid+1e-12 {
			t.Errorf("node %d exceeds mid-span deflection", i)
		}
	}
}

func TestStaticDeflection(t *testing.T) {
	// SDOF under 9 g: x = m·a/k = a/ω² — the textbook sag formula.
	fn := 45.0
	s := NewLumped()
	s.AddMass("imu", 6)
	k, _ := IsolatorStiffness(6, fn, 1)
	s.AddSpring("imu", Ground, k)
	defl, err := s.StaticDeflection(9)
	if err != nil {
		t.Fatal(err)
	}
	w := 2 * math.Pi * fn
	want := 9 * 9.80665 / (w * w)
	if !units.ApproxEqual(defl["imu"], want, 1e-9) {
		t.Errorf("9 g sag = %v, want %v", defl["imu"], want)
	}
	// Softer mount → more sag (the sway-space trade).
	s2 := NewLumped()
	s2.AddMass("imu", 6)
	k2, _ := IsolatorStiffness(6, 20, 1)
	s2.AddSpring("imu", Ground, k2)
	d2, _ := s2.StaticDeflection(9)
	if d2["imu"] <= defl["imu"] {
		t.Error("softer mount must sag more")
	}
	// Unconstrained system fails.
	free := NewLumped()
	free.AddMass("a", 1)
	free.AddMass("b", 1)
	free.AddSpring("a", "b", 100)
	if _, err := free.StaticDeflection(9); err == nil {
		t.Error("floating system should error")
	}
}
