package linalg

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"aeropack/internal/obs"
)

// SolverSetup caches the reusable parts of iterative solves across the
// near-identical systems aeropack's workloads produce: a Fig. 10 sweep
// re-solves the same network topology at dozens of power points, a
// transient stepper refactors the same operator pattern every step, and
// benchmark or campaign loops re-solve bitwise-identical systems
// outright.  It mirrors the content-hash trick of the lint result cache
// (same inputs → cached output) at the linear-algebra layer:
//
//   - Preconditioner cache: keyed by (kind, structure hash, value hash).
//     Matrices sharing a sparsity pattern reuse the symbolic IC(0)
//     factorization; matrices identical in values reuse the finished
//     preconditioner.  Cached preconditioners are immutable once handed
//     out — a refresh never mutates an instance another goroutine may be
//     applying — so one setup can serve concurrent sweep workers.
//   - Result cache: keyed by the full solve content (method label,
//     matrix structure and values, right-hand side, warm-start vector,
//     tolerance).  A hit therefore returns a solution bitwise-identical
//     to the one re-running the deterministic solver would produce,
//     preserving aeropack's serial-vs-parallel identity guarantees.
//
// Both caches are bounded FIFO; eviction order is deterministic (no map
// iteration), keeping campaign runs reproducible.  All methods are safe
// for concurrent use.
type SolverSetup struct {
	mu      sync.Mutex
	syms    map[uint64]*icSymbolic // IC(0) symbolic patterns by structure hash
	symKeys []uint64
	precs   map[precKey]Preconditioner
	precOrd []precKey
	results map[SolveKey]*cachedSolve
	resOrd  []SolveKey
}

// setupMaxPrecs / setupMaxResults bound the FIFO caches; sweeps touch a
// handful of patterns and the result cache only pays off for exact
// repeats, so small bounds keep memory predictable.
const (
	setupMaxSyms    = 8
	setupMaxPrecs   = 16
	setupMaxResults = 32
)

type precKey struct {
	kind            string
	omega           uint64
	structH, valH   uint64
	structH2, valH2 uint64
}

// SolveKey identifies one exact solve content; obtain it from Cached and
// pass it back to Store.
type SolveKey struct{ h1, h2 uint64 }

type cachedSolve struct {
	x     []float64
	stats IterStats
}

// NewSolverSetup returns an empty setup cache.
func NewSolverSetup() *SolverSetup {
	return &SolverSetup{
		syms:    make(map[uint64]*icSymbolic),
		precs:   make(map[precKey]Preconditioner),
		results: make(map[SolveKey]*cachedSolve),
	}
}

// contentHash is a pair of independent 64-bit word mixers (splitmix-style
// finalisation), giving an effectively 128-bit content key: byte-wise
// FNV would walk the ~2.4 MB a big finite-volume solve hashes one byte
// at a time, this walks it one word at a time.
type contentHash struct{ a, b uint64 }

func newContentHash() contentHash {
	return contentHash{a: 0x9E3779B97F4A7C15, b: 0xC2B2AE3D27D4EB4F}
}

func (h *contentHash) word(w uint64) {
	h.a = (h.a ^ w) * 0xBF58476D1CE4E5B9
	h.a ^= h.a >> 29
	h.b = (h.b ^ bits.RotateLeft64(w, 31)) * 0x94D049BB133111EB
	h.b ^= h.b >> 31
}

func (h *contentHash) ints(xs []int) {
	h.word(uint64(len(xs)))
	for _, x := range xs {
		h.word(uint64(x))
	}
}

func (h *contentHash) floats(xs []float64) {
	h.word(uint64(len(xs)))
	for _, x := range xs {
		h.word(math.Float64bits(x))
	}
}

func (h *contentHash) str(s string) {
	h.word(uint64(len(s)))
	var w uint64
	var nb uint
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << nb
		if nb += 8; nb == 64 {
			h.word(w)
			w, nb = 0, 0
		}
	}
	if nb > 0 {
		h.word(w)
	}
}

// structHash digests the sparsity structure of a.
func structHash(a *CSR) contentHash {
	h := newContentHash()
	h.word(uint64(a.Rows))
	h.word(uint64(a.Cols))
	h.ints(a.RowPtr)
	h.ints(a.ColIdx)
	return h
}

// valHash digests the stored values of a.
func valHash(a *CSR) contentHash {
	h := newContentHash()
	h.floats(a.Val)
	return h
}

// PrecFor returns a preconditioner of the given kind ("jacobi", "ssor",
// "ic0", "mic0"; "" or "identity" yields nil, the identity) for matrix
// a, reusing a cached instance when an identical-content matrix was seen
// before and the symbolic pattern shared by IC(0) and MIC(0) when only
// the values changed.  omega is the SSOR relaxation factor (ignored by
// other kinds).  The returned preconditioner must be treated as
// immutable.  An error (incomplete-factorization breakdown surviving the
// whole shift ladder) leaves the caller free to degrade to a cheaper
// kind.
func (s *SolverSetup) PrecFor(kind string, a *CSR, omega float64) (Preconditioner, error) {
	switch kind {
	case "", "identity":
		return nil, nil
	case "jacobi", "ssor", "ic0", "mic0":
	default:
		return nil, fmt.Errorf("linalg: unknown preconditioner kind %q", kind)
	}
	sh, vh := structHash(a), valHash(a)
	key := precKey{kind: kind, omega: math.Float64bits(omega),
		structH: sh.a, structH2: sh.b, valH: vh.a, valH2: vh.b}
	s.mu.Lock()
	if p, ok := s.precs[key]; ok {
		s.mu.Unlock()
		if r := obs.Default(); r != nil {
			r.Counter("linalg_setup_prec_reuse_total").Inc()
		}
		if rec := obs.CurrentRecorder(); rec != nil {
			rec.Record("cache", "prec_reuse", obs.Attr{Key: "kind", Value: kind})
		}
		return p, nil
	}
	var sym *icSymbolic
	if kind == "ic0" || kind == "mic0" {
		sym = s.syms[sh.a]
	}
	s.mu.Unlock()

	// Build outside the lock: factorization may be expensive and must
	// never serialise concurrent sweep workers behind the mutex.
	t := startLayer()
	p, sym, err := buildPrec(kind, a, omega, sym)
	t.observe("linalg_prec_setup_seconds")
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if _, ok := s.syms[sh.a]; sym != nil && !ok {
		s.symKeys = append(s.symKeys, sh.a)
		s.syms[sh.a] = sym
		if len(s.symKeys) > setupMaxSyms {
			delete(s.syms, s.symKeys[0])
			s.symKeys = s.symKeys[1:]
		}
	}
	if _, ok := s.precs[key]; !ok {
		s.precOrd = append(s.precOrd, key)
		s.precs[key] = p
		if len(s.precOrd) > setupMaxPrecs {
			delete(s.precs, s.precOrd[0])
			s.precOrd = s.precOrd[1:]
		}
	} else {
		// A concurrent builder won the race; both instances were derived
		// from identical content, so either is correct — keep the stored
		// one for pointer-stable reuse.
		p = s.precs[key]
	}
	s.mu.Unlock()
	return p, nil
}

// buildPrec constructs a preconditioner of a known kind for a.  The
// incomplete factorizations reuse sym when a has its pattern and return
// the symbolic phase they used, for PrecFor to cache.
func buildPrec(kind string, a *CSR, omega float64, sym *icSymbolic) (Preconditioner, *icSymbolic, error) {
	switch kind {
	case "jacobi":
		return NewJacobiPrec(a), nil, nil
	case "ssor":
		return NewSSORPrec(a, omega), nil, nil
	}
	if sym == nil || !sym.matches(a) {
		var err error
		if sym, err = icSymbolicFromCSR(a); err != nil {
			return nil, nil, err
		}
	}
	icOmega := 0.0
	if kind == "mic0" {
		icOmega = micOmega
	}
	ic, err := sym.factor(a, icOmega)
	if err != nil {
		return nil, nil, err
	}
	if ic.shift > 0 {
		if r := obs.Default(); r != nil {
			r.Counter("linalg_ic0_shifted_total").Inc()
		}
	}
	return ic, sym, nil
}

// Key digests one solve's full content: the solver/chain label (which
// must encode anything else that alters the iterate sequence, e.g. the
// preconditioner kind and relaxation factor), the matrix, right-hand
// side, warm-start vector and tolerance.  nil and zero-valued x0 hash
// differently, matching their different CG trajectories.
func (s *SolverSetup) Key(label string, a *CSR, b, x0 []float64, tol float64) SolveKey {
	h := newContentHash()
	h.str(label)
	h.word(uint64(a.Rows))
	h.word(uint64(a.Cols))
	h.ints(a.RowPtr)
	h.ints(a.ColIdx)
	h.floats(a.Val)
	h.floats(b)
	if x0 == nil {
		h.word(0)
	} else {
		h.word(1)
		h.floats(x0)
	}
	h.word(math.Float64bits(tol))
	return SolveKey{h1: h.a, h2: h.b}
}

// Cached returns the stored solution for key, if any.  The returned
// slice is a private copy — callers may mutate it freely.  A hit bumps
// linalg_setup_result_hits_total but records no solver iterations: the
// solver_iters metrics count work actually performed.
func (s *SolverSetup) Cached(key SolveKey) ([]float64, IterStats, bool) {
	s.mu.Lock()
	e, ok := s.results[key]
	s.mu.Unlock()
	if !ok {
		if r := obs.Default(); r != nil {
			r.Counter("linalg_setup_result_misses_total").Inc()
		}
		if rec := obs.CurrentRecorder(); rec != nil {
			rec.Record("cache", "result_miss")
		}
		return nil, IterStats{}, false
	}
	if r := obs.Default(); r != nil {
		r.Counter("linalg_setup_result_hits_total").Inc()
	}
	if rec := obs.CurrentRecorder(); rec != nil {
		rec.Record("cache", "result_hit")
	}
	out := make([]float64, len(e.x))
	copy(out, e.x)
	return out, e.stats, true
}

// Store records a converged solution under key.  The solution is copied;
// callers keep ownership of x.  Non-converged or failed solves must not
// be stored — a cached entry asserts "this exact system solves to this
// exact vector".
func (s *SolverSetup) Store(key SolveKey, x []float64, stats IterStats) {
	if !stats.Converged {
		return
	}
	cp := make([]float64, len(x))
	copy(cp, x)
	s.mu.Lock()
	if _, ok := s.results[key]; !ok {
		s.resOrd = append(s.resOrd, key)
		s.results[key] = &cachedSolve{x: cp, stats: stats}
		if len(s.resOrd) > setupMaxResults {
			delete(s.results, s.resOrd[0])
			s.resOrd = s.resOrd[1:]
		}
	}
	s.mu.Unlock()
}
