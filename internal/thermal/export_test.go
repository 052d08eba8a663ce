package thermal

import "aeropack/internal/linalg"

// System returns m's first-pass steady system A·T = b as a CSR,
// assembled at the surface-temperature estimate SolveSteady starts from,
// and, for a separable model, the fast-diagonalization axes at that
// estimate.  Tests compare preconditioners on it directly through
// linalg.
func (m *Model) System() (*linalg.CSR, []float64, [3]linalg.Axis) {
	st := newStencil(m, nil)
	Tsurf := make([]float64, m.Grid.NumCells())
	if st.ws.films.radiating() {
		t0 := st.ws.films.balanceT(m.TotalSourcePower())
		for i := range Tsurf {
			Tsurf[i] = t0
		}
	}
	_, b := st.assemble(Tsurf)
	var axes [3]linalg.Axis
	if st.kron != nil {
		axes = st.fdmAxes()
	}
	return st.csr(Tsurf), b, axes
}

// csr returns the pass s last assembled, at the field T, as a CSR.  An
// unpainted model's pass ran on its KronSum, so csr lends the model an
// all-zero material map, the one a whole-box paint with material 0
// gives, builds the symbolic phase on first use and assembles the pass
// into the CSR: the operator of the model's painted twin bit for bit,
// rewriting the right-hand side with the same values.
func (s *stencil) csr(T []float64) *linalg.CSR {
	if s.kron != nil {
		m := s.m
		m.mat = make([]int, m.Grid.NumCells())
		s.assembleCSR(T)
		m.mat = nil
	}
	return &s.a
}
