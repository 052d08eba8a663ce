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
	// Mats maps the grid's material indices to materials.
	Mats []materials.Material
	// FaceBC holds the default BC per outer face (Adiabatic if unset).
	FaceBC [mesh.NumFaces]BC

	patches []patch
	sources []volSource
}

// NewModel creates a model over grid with the given material table.  Every
// material index used in the grid must be < len(mats), and every
// material's conductivities must be positive and finite, so every face
// of the FV stencil carries a non-zero conductance.
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
	for idx, m := range grid.MatIdx {
		if m < 0 || m >= len(mats) {
			return nil, fmt.Errorf("thermal: cell %d references material %d outside table of %d", idx, m, len(mats))
		}
	}
	return &Model{Grid: grid, Mats: mats}, nil
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

// bcAt resolves the effective BC for boundary cell (i,j,k) on face f,
// honouring patch overrides (later patches win).
func (m *Model) bcAt(f mesh.Face, i, j, k int) BC {
	bc := m.FaceBC[f]
	for _, p := range m.patches {
		if p.face != f {
			continue
		}
		if i >= p.box.I0 && i < p.box.I1 &&
			j >= p.box.J0 && j < p.box.J1 &&
			k >= p.box.K0 && k < p.box.K1 {
			bc = p.bc
		}
	}
	return bc
}

// matAt returns the material of cell (i,j,k).
func (m *Model) matAt(i, j, k int) *materials.Material {
	return &m.Mats[m.Grid.MatIdx[m.Grid.Index(i, j, k)]]
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
