package linalg

import (
	"math/rand"
	"testing"
)

func TestToCSRCancellationDrop(t *testing.T) {
	cases := []struct {
		name    string
		build   func() *COO
		wantNNZ int
		check   func(t *testing.T, m *CSR)
	}{
		{
			name: "exact cancellation dropped",
			build: func() *COO {
				c := NewCOO(3, 3)
				c.Add(1, 2, 5.0)
				c.Add(1, 2, -5.0) // duplicate sums to exactly zero
				c.Add(0, 0, 1.0)
				c.Add(2, 2, 3.0)
				return c
			},
			wantNNZ: 2,
			check: func(t *testing.T, m *CSR) {
				if v := m.At(1, 2); v != 0 {
					t.Errorf("At(1,2) = %g, want 0", v)
				}
				if m.RowPtr[2]-m.RowPtr[1] != 0 {
					t.Errorf("row 1 still stores %d entries", m.RowPtr[2]-m.RowPtr[1])
				}
			},
		},
		{
			name: "three-way cancellation dropped",
			build: func() *COO {
				c := NewCOO(2, 2)
				c.Add(0, 1, 2.5)
				c.Add(0, 1, 1.5)
				c.Add(0, 1, -4.0)
				c.Add(1, 1, 7.0)
				return c
			},
			wantNNZ: 1,
			check: func(t *testing.T, m *CSR) {
				if v := m.At(1, 1); v != 7.0 {
					t.Errorf("At(1,1) = %g, want 7", v)
				}
			},
		},
		{
			name: "near-zero residue kept",
			build: func() *COO {
				c := NewCOO(2, 2)
				c.Add(0, 0, 1.0)
				c.Add(0, 0, -1.0+1e-9) // does not cancel exactly
				return c
			},
			wantNNZ: 1,
			check: func(t *testing.T, m *CSR) {
				if v := m.At(0, 0); v == 0 {
					t.Error("tiny residue was incorrectly dropped")
				}
			},
		},
		{
			name: "all entries cancel",
			build: func() *COO {
				c := NewCOO(2, 2)
				c.Add(0, 0, 4.0)
				c.Add(0, 0, -4.0)
				c.Add(1, 0, 0.5)
				c.Add(1, 0, -0.5)
				return c
			},
			wantNNZ: 0,
			check: func(t *testing.T, m *CSR) {
				if m.RowPtr[len(m.RowPtr)-1] != 0 {
					t.Errorf("RowPtr ends at %d, want 0", m.RowPtr[len(m.RowPtr)-1])
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.build().ToCSR()
			if m.NNZ() != tc.wantNNZ {
				t.Errorf("NNZ = %d, want %d", m.NNZ(), tc.wantNNZ)
			}
			if len(m.ColIdx) != len(m.Val) {
				t.Fatalf("ColIdx/Val length mismatch: %d vs %d", len(m.ColIdx), len(m.Val))
			}
			if got := m.RowPtr[len(m.RowPtr)-1]; got != m.NNZ() {
				t.Errorf("RowPtr end %d inconsistent with NNZ %d", got, m.NNZ())
			}
			tc.check(t, m)
		})
	}
}

func TestMulVecAliasing(t *testing.T) {
	c := NewCOO(3, 3)
	c.Add(0, 0, 2)
	c.Add(0, 1, 1)
	c.Add(1, 0, 1)
	c.Add(1, 1, 3)
	c.Add(1, 2, 1)
	c.Add(2, 2, 4)
	m := c.ToCSR()

	x := []float64{1, 2, 3}
	want := m.MulVec(x, nil) // non-aliased reference

	v := []float64{1, 2, 3}
	got := m.MulVec(v, v) // y aliases x
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("aliased MulVec[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if &got[0] != &v[0] {
		t.Error("aliased MulVec did not reuse the caller's slice")
	}
}

func TestDiagRowWalk(t *testing.T) {
	cases := []struct {
		name  string
		build func() *COO
	}{
		{"dense-ish", func() *COO {
			c := NewCOO(4, 4)
			for i := 0; i < 4; i++ {
				for j := 0; j < 4; j++ {
					c.Add(i, j, float64(i*4+j+1))
				}
			}
			return c
		}},
		{"missing diagonal entries", func() *COO {
			c := NewCOO(4, 4)
			c.Add(0, 0, 2)
			c.Add(1, 3, 1) // row 1 has no diagonal
			c.Add(2, 2, 5)
			c.Add(3, 0, 1) // row 3 has no diagonal
			return c
		}},
		{"empty rows", func() *COO {
			c := NewCOO(3, 3)
			c.Add(2, 2, 9)
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.build().ToCSR()
			d := m.Diag()
			for i := 0; i < m.Rows; i++ {
				if want := m.At(i, i); d[i] != want {
					t.Errorf("Diag[%d] = %g, want %g", i, d[i], want)
				}
			}
		})
	}
}

func TestIsSymmetricRowWalk(t *testing.T) {
	sym := NewCOO(4, 4)
	sym.Add(0, 0, 2)
	sym.Add(0, 1, -1)
	sym.Add(1, 0, -1)
	sym.Add(1, 1, 2)
	sym.Add(1, 3, 0.5)
	sym.Add(3, 1, 0.5)
	sym.Add(2, 2, 1)
	sym.Add(3, 3, 2)
	if !sym.ToCSR().IsSymmetric(1e-12) {
		t.Error("symmetric matrix reported asymmetric")
	}

	val := NewCOO(3, 3)
	val.Add(0, 1, 1.0)
	val.Add(1, 0, 1.1) // value mismatch
	val.Add(0, 0, 1)
	val.Add(1, 1, 1)
	val.Add(2, 2, 1)
	m := val.ToCSR()
	if m.IsSymmetric(1e-3) {
		t.Error("value-asymmetric matrix reported symmetric")
	}
	if !m.IsSymmetric(0.2) {
		t.Error("asymmetry within tolerance rejected")
	}

	structural := NewCOO(3, 3)
	structural.Add(0, 2, 3) // no (2,0) mirror at all
	structural.Add(0, 0, 1)
	structural.Add(1, 1, 1)
	structural.Add(2, 2, 1)
	if structural.ToCSR().IsSymmetric(1e-9) {
		t.Error("structurally asymmetric matrix reported symmetric")
	}

	rect := NewCOO(2, 3)
	rect.Add(0, 0, 1)
	if rect.ToCSR().IsSymmetric(1e-9) {
		t.Error("rectangular matrix reported symmetric")
	}

	// Consistency with the dense mirror on a random symmetric pattern.
	rng := rand.New(rand.NewSource(7))
	c := NewCOO(50, 50)
	for e := 0; e < 200; e++ {
		i, j := rng.Intn(50), rng.Intn(50)
		v := rng.Float64()
		c.Add(i, j, v)
		if i != j {
			c.Add(j, i, v)
		}
	}
	if !c.ToCSR().IsSymmetric(1e-12) {
		t.Error("random symmetric matrix reported asymmetric")
	}
}
