package linalg

import (
	"sync"
	"testing"

	"aeropack/internal/obs"
)

func TestSolverSetupPrecReuse(t *testing.T) {
	s := NewSolverSetup()
	a, _ := randomSPD(1, 40, 0.1)
	for _, kind := range []string{"jacobi", "ssor", "ic0", "mic0"} {
		p1, err := s.PrecFor(kind, a, 1.2)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		p2, err := s.PrecFor(kind, a, 1.2)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if p1 != p2 {
			t.Errorf("%s: identical matrix content did not reuse the cached instance", kind)
		}
	}
	// Same structure, different values: a fresh preconditioner, but the
	// expensive IC(0) symbolic pattern is shared.
	a2 := &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Val: make([]float64, len(a.Val))}
	for i := range a.Val {
		a2.Val[i] = 2 * a.Val[i]
	}
	p1, _ := s.PrecFor("ic0", a, 1.2)
	p2, err := s.PrecFor("ic0", a2, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Error("value change reused a stale preconditioner")
	}
	if p1.(*ICPrec).sym != p2.(*ICPrec).sym {
		t.Error("same-structure matrices did not share the IC(0) symbolic pattern")
	}
	if m, _ := s.PrecFor("mic0", a2, 1.2); m.(*ICPrec).sym != p1.(*ICPrec).sym {
		t.Error("MIC(0) did not share the IC(0) symbolic pattern")
	}
	// A different SSOR omega is a different preconditioner.
	q1, _ := s.PrecFor("ssor", a, 1.2)
	q2, _ := s.PrecFor("ssor", a, 1.5)
	if q1 == q2 {
		t.Error("omega change reused a stale SSOR preconditioner")
	}
}

func TestSolverSetupIdentityAndUnknownKinds(t *testing.T) {
	s := NewSolverSetup()
	a, _ := randomSPD(2, 10, 0.2)
	for _, kind := range []string{"", "identity"} {
		p, err := s.PrecFor(kind, a, 0)
		if err != nil || p != nil {
			t.Errorf("PrecFor(%q) = %v, %v; want nil, nil", kind, p, err)
		}
	}
	if _, err := s.PrecFor("ilu-magic", a, 0); err == nil {
		t.Error("unknown kind accepted")
	}
	// IC(0) breakdown (indefinite matrix survives no shift rung) surfaces
	// as an error, leaving the caller to degrade.
	coo := NewCOO(2, 2)
	coo.Add(0, 0, -1)
	coo.Add(1, 1, 1)
	if _, err := s.PrecFor("ic0", coo.ToCSR(), 0); err == nil {
		t.Error("IC(0) breakdown did not surface as an error")
	}
}

func TestSolverSetupFIFOBounds(t *testing.T) {
	s := NewSolverSetup()
	// Preconditioner FIFO: one more distinct matrix than the bound.
	for i := 0; i <= setupMaxPrecs; i++ {
		m, _ := randomSPD(int64(100+i), 10, 0.3)
		if _, err := s.PrecFor("jacobi", m, 0); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.precs) != setupMaxPrecs || len(s.precOrd) != setupMaxPrecs {
		t.Errorf("prec cache holds %d/%d entries, want %d", len(s.precs), len(s.precOrd), setupMaxPrecs)
	}
}

func TestSolverSetupCounters(t *testing.T) {
	reg := obs.NewRegistry()
	prev := obs.SetDefault(reg)
	defer obs.SetDefault(prev)
	s := NewSolverSetup()
	a, _ := randomSPD(6, 30, 0.1)
	if _, err := s.PrecFor("ic0", a, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PrecFor("ic0", a, 0); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("linalg_setup_prec_reuse_total").Value(); got != 1 {
		t.Errorf("prec reuse counter = %v, want 1", got)
	}
	if n := reg.Histogram("linalg_prec_setup_seconds", nil).Count(); n != 1 {
		t.Errorf("linalg_prec_setup_seconds count = %d, want 1 (one build, one reuse)", n)
	}
}

// Concurrent use must be race-free (run under -race in verify.sh) and
// always yield working preconditioners.
func TestSolverSetupConcurrent(t *testing.T) {
	s := NewSolverSetup()
	mats := make([]*CSR, 4)
	rhss := make([][]float64, 4)
	for i := range mats {
		mats[i], rhss[i] = randomSPD(int64(20+i), 35, 0.12)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 25; it++ {
				a, b := mats[(g+it)%len(mats)], rhss[(g+it)%len(mats)]
				p, err := s.PrecFor("ic0", a, 0)
				if err != nil {
					t.Error(err)
					return
				}
				x, _, err := CG(a, b, nil, p, 1e-10, 400)
				if err != nil {
					t.Error(err)
					return
				}
				if r := relResidual(a, x, b); r > 1e-8 {
					t.Errorf("residual %g", r)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
