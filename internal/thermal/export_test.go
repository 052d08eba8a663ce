package thermal

import "aeropack/internal/linalg"

// System returns m's first-pass steady system A·T = b, assembled at the
// surface-temperature estimate SolveSteady starts from, and, for a
// separable model, the fast-diagonalization axes at that estimate.
// Tests compare preconditioners on it directly through linalg.
func (m *Model) System() (*linalg.CSR, []float64, [3]linalg.Axis) {
	Tsurf := make([]float64, m.Grid.NumCells())
	if m.hasRadiation() {
		t0 := m.balanceT()
		for i := range Tsurf {
			Tsurf[i] = t0
		}
	}
	st := newStencil(m, nil)
	_, b := st.assemble(Tsurf)
	var axes [3]linalg.Axis
	if st.kron != nil {
		axes = st.fdmAxes()
	}
	return st.csr(), b, axes
}
