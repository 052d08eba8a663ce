// Package thermal implements aeropack's heat-transfer solvers:
//
//   - a finite-volume conduction solver on structured Cartesian meshes with
//     orthotropic materials, volumetric and surface heat sources, and
//     convective / radiative / fixed-temperature boundary conditions (the
//     role FloTHERM plays in the paper's level-2/level-3 simulations);
//   - a lumped thermal resistance network solver (the "resistive network
//     model" of the paper's Fig. 4, used at level 1 and level 3 and by the
//     compact component models and two-phase device models).
//
// Temperatures are kelvin, powers watts, conductances W/K.
package thermal

import (
	"fmt"
	"math"

	"aeropack/internal/materials"
	"aeropack/internal/mesh"
)

// BCKind enumerates boundary-condition types on mesh faces.
type BCKind int

// Supported boundary condition kinds.
const (
	// Adiabatic is a zero-flux boundary (the default).
	Adiabatic BCKind = iota
	// FixedT pins the boundary surface to temperature T.
	FixedT
	// Convection applies Newton cooling q = h·(Ts − T∞) with h in
	// W/(m²·K) and ambient T.
	Convection
	// ConvectionRadiation adds grey-body radiation to a Convection
	// boundary using the surface material's emissivity and the same
	// ambient as the radiative sink.
	ConvectionRadiation
)

// BC is one boundary condition.
type BC struct {
	Kind  BCKind
	T     float64 // ambient or wall temperature, K
	H     float64 // convection coefficient, W/(m²·K)
	Emiss float64 // surface emissivity override; 0 → use cell material
}

// emissivity is the ε a radiating bc gives a face of material mat: its
// own override, else the material's.
func (bc BC) emissivity(mat *materials.Material) float64 {
	if bc.Emiss != 0 {
		return bc.Emiss
	}
	return mat.Emiss
}

// patch applies a BC to a sub-box of one boundary face.
type patch struct {
	face mesh.Face
	box  mesh.Box
	bc   BC
}

// volSource is a uniformly distributed power over a box of cells.
type volSource struct {
	box   mesh.Box
	power float64 // total W spread over the box volume
}

// Model is a finite-volume conduction problem definition.
type Model struct {
	Grid *mesh.Grid
	// Mats is the material table PaintRegion indexes.
	Mats []materials.Material
	// FaceBC holds the default BC per outer face (Adiabatic if unset).
	FaceBC [mesh.NumFaces]BC

	// mat is each cell's index into Mats, allocated by the first paint
	// that covers a cell; nil while every cell holds Mats[0].
	mat     []int
	patches []patch
	sources []volSource
}

// NewModel creates an unpainted model over grid, every cell holding
// mats[0].  Every material's conductivities must be positive and
// finite, so every face of the FV stencil carries a non-zero
// conductance.
func NewModel(grid *mesh.Grid, mats []materials.Material) (*Model, error) {
	if grid == nil {
		return nil, fmt.Errorf("thermal: nil grid")
	}
	if len(mats) == 0 {
		return nil, fmt.Errorf("thermal: empty material table")
	}
	for i, mat := range mats {
		if kx, kz := mat.Kx(), mat.Kz(); !(kx > 0 && kz > 0) || math.IsInf(kx, 0) || math.IsInf(kz, 0) {
			return nil, fmt.Errorf("thermal: material %d (%s) conductivities kx=%g kz=%g must be positive and finite", i, mat.Name, kx, kz)
		}
	}
	return &Model{Grid: grid, Mats: mats}, nil
}

// PaintRegion assigns Mats[mat] to every cell whose centroid lies in the
// physical box and returns the number of cells painted (0: the box
// missed the mesh).  An index outside Mats is an error and paints
// nothing.  A painted model solves on the assembled CSR (SolveSteady).
func (m *Model) PaintRegion(x0, x1, y0, y1, z0, z1 float64, mat int) (int, error) {
	if mat < 0 || mat >= len(m.Mats) {
		return 0, fmt.Errorf("thermal: material %d outside table of %d", mat, len(m.Mats))
	}
	g := m.Grid
	b := g.LocateBox(x0, x1, y0, y1, z0, z1)
	if b.Empty() {
		return 0, nil
	}
	if m.mat == nil {
		m.mat = make([]int, g.NumCells())
	}
	for k := b.K0; k < b.K1; k++ {
		for j := b.J0; j < b.J1; j++ {
			for i := b.I0; i < b.I1; i++ {
				m.mat[g.Index(i, j, k)] = mat
			}
		}
	}
	return b.NumCells(), nil
}

// SetFaceBC sets the default boundary condition for an entire outer face.
func (m *Model) SetFaceBC(f mesh.Face, bc BC) {
	m.FaceBC[f] = bc
}

// AddPatchBC applies bc to the sub-area of face f whose cells fall in the
// physical box; it overrides the face default there.  Returns the number
// of boundary cells covered.
func (m *Model) AddPatchBC(f mesh.Face, x0, x1, y0, y1, z0, z1 float64, bc BC) int {
	b := m.Grid.LocateBox(x0, x1, y0, y1, z0, z1)
	// Clamp the box to the boundary layer of cells for the face.
	switch f {
	case mesh.XMin:
		b.I0, b.I1 = 0, 1
	case mesh.XMax:
		b.I0, b.I1 = m.Grid.Nx-1, m.Grid.Nx
	case mesh.YMin:
		b.J0, b.J1 = 0, 1
	case mesh.YMax:
		b.J0, b.J1 = m.Grid.Ny-1, m.Grid.Ny
	case mesh.ZMin:
		b.K0, b.K1 = 0, 1
	case mesh.ZMax:
		b.K0, b.K1 = m.Grid.Nz-1, m.Grid.Nz
	}
	if b.Empty() {
		return 0
	}
	m.patches = append(m.patches, patch{face: f, box: b, bc: bc})
	return b.NumCells()
}

// AddVolumeSource spreads power (W) uniformly over the cells inside the
// physical box; it returns the number of cells covered (0 means the source
// missed the mesh — callers should treat that as a modelling error).
func (m *Model) AddVolumeSource(x0, x1, y0, y1, z0, z1, power float64) int {
	b := m.Grid.LocateBox(x0, x1, y0, y1, z0, z1)
	if b.Empty() {
		return 0
	}
	m.sources = append(m.sources, volSource{box: b, power: power})
	return b.NumCells()
}

// TotalSourcePower returns the sum of all volumetric source powers.
func (m *Model) TotalSourcePower() float64 {
	sum := 0.0
	for _, s := range m.sources {
		sum += s.power
	}
	return sum
}

// kDir returns the directional conductivity of a material for axis 0(x),
// 1(y), 2(z).  In-plane is x/y; through-plane is z, matching how PCBs and
// laminates are laid into the mesh.
func kDir(mat *materials.Material, axis int) float64 {
	if axis == 2 {
		return mat.Kz()
	}
	return mat.Kx()
}
