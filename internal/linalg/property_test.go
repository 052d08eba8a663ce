package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// randomSPD builds a seeded random sparse symmetric positive-definite
// matrix: a random symmetric sparsity pattern with the diagonal forced
// strictly dominant, plus a matching random right-hand side.  Same seed,
// same system — the property tables below are fully reproducible.
func randomSPD(seed int64, n int, fill float64) (*CSR, []float64) {
	rng := rand.New(rand.NewSource(seed))
	off := make([]map[int]float64, n)
	for i := range off {
		off[i] = map[int]float64{}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < fill {
				v := 2*rng.Float64() - 1
				off[i][j] = v
				off[j][i] = v
			}
		}
	}
	coo := NewCOO(n, n)
	for i := 0; i < n; i++ {
		rowSum := 0.0
		for j, v := range off[i] {
			coo.Add(i, j, v)
			rowSum += math.Abs(v)
		}
		// Strict diagonal dominance with a random positive margin keeps
		// the matrix SPD for any sparsity draw.
		coo.Add(i, i, rowSum+0.5+rng.Float64())
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = 2*rng.Float64() - 1
	}
	return coo.ToCSR(), b
}

func relDiff(x, y []float64) float64 {
	num, den := 0.0, 0.0
	for i := range x {
		d := x[i] - y[i]
		num += d * d
		den += y[i] * y[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// TestPropertyIterativeAgreesWithDense is the table-driven property
// check: on seeded random SPD systems, CG and BiCGSTAB must agree with
// the dense LU reference solve to solver tolerance.
func TestPropertyIterativeAgreesWithDense(t *testing.T) {
	cases := []struct {
		seed int64
		n    int
		fill float64
	}{
		{1, 20, 0.30},
		{2, 40, 0.20},
		{3, 60, 0.10},
		{4, 80, 0.08},
		{5, 120, 0.05},
		{6, 120, 0.15},
	}
	for _, tc := range cases {
		a, b := randomSPD(tc.seed, tc.n, tc.fill)
		ref, err := SolveDense(a.ToDense(), b)
		if err != nil {
			t.Fatalf("seed %d n %d: dense reference failed: %v", tc.seed, tc.n, err)
		}
		xcg, stats, err := CG(a, b, nil, NewJacobiPrec(a), 1e-11, 10*tc.n+100)
		if err != nil {
			t.Errorf("seed %d n %d: CG failed: %v", tc.seed, tc.n, err)
		} else if d := relDiff(xcg, ref); d > 1e-8 {
			t.Errorf("seed %d n %d: CG differs from dense by %.3g (stats %+v)", tc.seed, tc.n, d, stats)
		}
		xbi, stats, err := BiCGSTAB(a, b, nil, NewJacobiPrec(a), 1e-11, 10*tc.n+100)
		if err != nil {
			t.Errorf("seed %d n %d: BiCGSTAB failed: %v", tc.seed, tc.n, err)
		} else if d := relDiff(xbi, ref); d > 1e-8 {
			t.Errorf("seed %d n %d: BiCGSTAB differs from dense by %.3g (stats %+v)", tc.seed, tc.n, d, stats)
		}
	}
}
