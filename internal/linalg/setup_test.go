package linalg

import (
	"fmt"
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

func TestSolverSetupResultCache(t *testing.T) {
	s := NewSolverSetup()
	a, b := randomSPD(3, 20, 0.15)
	key := s.Key("test:cg", a, b, nil, 1e-10)
	if _, _, ok := s.Cached(key); ok {
		t.Fatal("hit on an empty cache")
	}
	x := []float64{1, 2, 3}
	s.Store(key, x, IterStats{Converged: true, Iterations: 7})
	x[0] = 99 // the cache must have taken a copy
	got, stats, ok := s.Cached(key)
	if !ok {
		t.Fatal("miss after Store")
	}
	if got[0] != 1 || stats.Iterations != 7 {
		t.Fatalf("cached = %v, stats %+v", got, stats)
	}
	got[1] = -5 // and hand out copies, never its private slice
	again, _, _ := s.Cached(key)
	if again[1] != 2 {
		t.Fatal("Cached returned a mutable reference to the stored slice")
	}
	// Non-converged results must never be cached.
	key2 := s.Key("test:cg", a, b, nil, 1e-14)
	s.Store(key2, x, IterStats{Converged: false, Iterations: 500})
	if _, _, ok := s.Cached(key2); ok {
		t.Fatal("non-converged solve was cached")
	}
}

func TestSolverSetupKeyDistinguishesContent(t *testing.T) {
	s := NewSolverSetup()
	a, b := randomSPD(4, 15, 0.2)
	base := s.Key("lbl", a, b, nil, 1e-10)
	zeros := make([]float64, len(b))
	for name, k := range map[string]SolveKey{
		"label":         s.Key("lbl2", a, b, nil, 1e-10),
		"tolerance":     s.Key("lbl", a, b, nil, 1e-8),
		"rhs":           s.Key("lbl", a, append([]float64{1}, b[1:]...), nil, 1e-10),
		"nil-vs-zero-x": s.Key("lbl", a, b, zeros, 1e-10),
	} {
		if k == base {
			t.Errorf("%s change did not alter the solve key", name)
		}
	}
	if s.Key("lbl", a, b, nil, 1e-10) != base {
		t.Error("identical content hashed to different keys")
	}
}

func TestSolverSetupFIFOBounds(t *testing.T) {
	s := NewSolverSetup()
	a, b := randomSPD(5, 12, 0.25)
	keys := make([]SolveKey, setupMaxResults+1)
	for i := range keys {
		keys[i] = s.Key(fmt.Sprintf("solve-%d", i), a, b, nil, 1e-10)
		s.Store(keys[i], b, IterStats{Converged: true, Iterations: i})
	}
	if _, _, ok := s.Cached(keys[0]); ok {
		t.Error("oldest result survived past the FIFO bound")
	}
	for i := 1; i < len(keys); i++ {
		if _, _, ok := s.Cached(keys[i]); !ok {
			t.Errorf("result %d evicted early", i)
		}
	}
	if len(s.results) != setupMaxResults || len(s.resOrd) != setupMaxResults {
		t.Errorf("result cache holds %d/%d entries, want %d", len(s.results), len(s.resOrd), setupMaxResults)
	}
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
	a, b := randomSPD(6, 30, 0.1)
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
	key := s.Key("c", a, b, nil, 1e-9)
	s.Cached(key)
	s.Store(key, b, IterStats{Converged: true})
	s.Cached(key)
	if got := reg.Counter("linalg_setup_result_misses_total").Value(); got != 1 {
		t.Errorf("miss counter = %v, want 1", got)
	}
	if got := reg.Counter("linalg_setup_result_hits_total").Value(); got != 1 {
		t.Errorf("hit counter = %v, want 1", got)
	}
}

// Concurrent mixed use must be race-free (run under -race in verify.sh)
// and always yield working preconditioners — the SweepParallel sharing
// pattern.
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
				key := s.Key("conc", a, b, nil, 1e-10)
				if x, _, ok := s.Cached(key); ok {
					if r := relResidual(a, x, b); r > 1e-8 {
						t.Errorf("cached residual %g", r)
						return
					}
					continue
				}
				x, stats, err := CG(a, b, nil, p, 1e-10, 400)
				if err != nil {
					t.Error(err)
					return
				}
				s.Store(key, x, stats)
			}
		}(g)
	}
	wg.Wait()
}
