package linalg

import (
	"strings"
	"testing"
)

// mustPanic runs fn and returns the panic message, failing the test if
// fn returns normally or panics with something other than the package's
// contract-check string messages.
func mustPanic(t *testing.T, fn func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("expected a contract panic, got normal return")
			}
			s, ok := r.(string)
			if !ok {
				t.Fatalf("contract panics must carry a string message, got %T (%v)", r, r)
			}
			msg = s
		}()
		fn()
	}()
	if !strings.HasPrefix(msg, "linalg: ") {
		t.Errorf("panic message %q should carry the linalg: prefix", msg)
	}
	return msg
}

// spd2 builds a well-conditioned 2×2 SPD matrix for factorization tests.
func spd2() *Dense {
	a := NewDense(2, 2)
	a.Set(0, 0, 4)
	a.Set(0, 1, 1)
	a.Set(1, 0, 1)
	a.Set(1, 1, 3)
	return a
}

// TestContractPanics drives every documented panic path in dense.go,
// sparse.go and kron.go through recover, checking both that the guard fires and that
// the message identifies the violated contract.
func TestContractPanics(t *testing.T) {
	lu, err := FactorLU(spd2())
	if err != nil {
		t.Fatal(err)
	}
	chol, err := FactorCholesky(spd2())
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		want string // substring of the panic message
		fn   func()
	}{
		{"NewDense zero rows", "invalid dense dimensions",
			func() { NewDense(0, 3) }},
		{"NewDense negative cols", "invalid dense dimensions",
			func() { NewDense(2, -1) }},
		{"Dense MulVec length", "dimension mismatch in MulVec",
			func() { NewDense(2, 2).MulVec([]float64{1}) }},
		{"Dense Mul inner dims", "dimension mismatch in Mul",
			func() { NewDense(2, 3).Mul(NewDense(2, 3)) }},
		{"LU solve length", "dimension mismatch in LU solve",
			func() { lu.Solve([]float64{1}) }},
		{"Cholesky solve length", "dimension mismatch in Cholesky solve",
			func() { chol.Solve([]float64{1, 2, 3}) }},
		{"Dot length", "dimension mismatch in Dot",
			func() { Dot([]float64{1, 2}, []float64{1}) }},
		{"Axpy length", "dimension mismatch in Axpy",
			func() { Axpy(2, []float64{1, 2}, []float64{1}) }},
		{"NewCOO zero cols", "invalid COO dimensions",
			func() { NewCOO(3, 0) }},
		{"COO row out of range", "out of range",
			func() { NewCOO(2, 2).Add(2, 0, 1) }},
		{"COO negative col", "out of range",
			func() { NewCOO(2, 2).Add(0, -1, 1) }},
		{"CSR MulVec length", "dimension mismatch in CSR MulVec",
			func() {
				coo := NewCOO(2, 2)
				coo.Add(0, 0, 1)
				coo.ToCSR().MulVec([]float64{1}, nil)
			}},
		{"KronSum MulVec length", "dimension mismatch in KronSum MulVec",
			func() {
				ax := Axis{Diag: []float64{1}, Mass: []float64{1}}
				(&KronSum{Axes: [3]Axis{ax, ax, ax}, Diag: []float64{1}}).MulVec([]float64{1, 2}, nil)
			}},
		{"KronSum malformed axis", "malformed axis in KronSum MulVec",
			func() {
				ax := Axis{Diag: []float64{1}, Mass: []float64{1}}
				bad := Axis{Diag: []float64{1}, Mass: []float64{1, 1}}
				(&KronSum{Axes: [3]Axis{ax, bad, ax}, Diag: []float64{1}}).MulVec([]float64{1}, nil)
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msg := mustPanic(t, tc.fn)
			if !strings.Contains(msg, tc.want) {
				t.Errorf("panic message %q should mention %q", msg, tc.want)
			}
		})
	}
}

// TestNoPanicOnValidInput is the complement: the same operations succeed
// quietly when the contracts hold.
func TestNoPanicOnValidInput(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, 2)
	a.Set(1, 1, 2)
	if got := a.MulVec([]float64{1, 1}); len(got) != 2 {
		t.Errorf("MulVec result length %d", len(got))
	}
	if got := a.Mul(NewDense(2, 2)); got.Rows != 2 || got.Cols != 2 {
		t.Error("Mul result has wrong shape")
	}
	if got := Dot([]float64{1, 2}, []float64{3, 4}); got != 11 {
		t.Errorf("Dot = %v, want 11", got)
	}
	coo := NewCOO(2, 2)
	coo.Add(0, 0, 1)
	coo.Add(1, 1, 1)
	if got := coo.ToCSR().MulVec([]float64{3, 4}, nil); got[0] != 3 || got[1] != 4 {
		t.Errorf("identity MulVec = %v", got)
	}
}
