// Package mesh provides the structured Cartesian grids used by aeropack's
// finite-volume thermal solver.  A Grid is a tensor-product mesh with
// (possibly non-uniform) spacing in each direction; it is geometry only.
// Which material a cell holds belongs to the model over the grid:
// thermal.Model paints boxes of cells to describe heterogeneous packaging
// stacks (die / TIM / lid / heatsink, or PCB / wedge-lock / chassis).
package mesh

import (
	"fmt"
	"math"
)

// Grid is a structured Cartesian mesh.  Cell (i,j,k) spans
// [XEdges[i], XEdges[i+1]] × [YEdges[j], YEdges[j+1]] × [ZEdges[k], ZEdges[k+1]].
type Grid struct {
	Nx, Ny, Nz int
	XEdges     []float64 // len Nx+1, strictly increasing, metres
	YEdges     []float64 // len Ny+1
	ZEdges     []float64 // len Nz+1
}

// Uniform builds a uniform grid over the box [0,lx]×[0,ly]×[0,lz] with
// nx×ny×nz cells.
func Uniform(nx, ny, nz int, lx, ly, lz float64) (*Grid, error) {
	if nx < 1 || ny < 1 || nz < 1 {
		return nil, fmt.Errorf("mesh: cell counts must be ≥1, got %d×%d×%d", nx, ny, nz)
	}
	if lx <= 0 || ly <= 0 || lz <= 0 {
		return nil, fmt.Errorf("mesh: box dimensions must be positive, got %g×%g×%g", lx, ly, lz)
	}
	return &Grid{
		Nx: nx, Ny: ny, Nz: nz,
		XEdges: linspace(0, lx, nx+1),
		YEdges: linspace(0, ly, ny+1),
		ZEdges: linspace(0, lz, nz+1),
	}, nil
}

// FromEdges builds a grid from explicit edge coordinate arrays.
func FromEdges(x, y, z []float64) (*Grid, error) {
	for _, e := range [][]float64{x, y, z} {
		if len(e) < 2 {
			return nil, fmt.Errorf("mesh: each edge array needs ≥2 entries")
		}
		for i := 1; i < len(e); i++ {
			if e[i] <= e[i-1] {
				return nil, fmt.Errorf("mesh: edge coordinates must be strictly increasing")
			}
		}
	}
	return &Grid{
		Nx: len(x) - 1, Ny: len(y) - 1, Nz: len(z) - 1,
		XEdges: append([]float64(nil), x...),
		YEdges: append([]float64(nil), y...),
		ZEdges: append([]float64(nil), z...),
	}, nil
}

func linspace(a, b float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = a + (b-a)*float64(i)/float64(n-1)
	}
	out[n-1] = b
	return out
}

// NumCells returns the total cell count.
func (g *Grid) NumCells() int { return g.Nx * g.Ny * g.Nz }

// Index linearises (i,j,k) with i fastest.
func (g *Grid) Index(i, j, k int) int {
	return i + g.Nx*(j+g.Ny*k)
}

// DX returns the x-extent of column i.
func (g *Grid) DX(i int) float64 { return g.XEdges[i+1] - g.XEdges[i] }

// DY returns the y-extent of row j.
func (g *Grid) DY(j int) float64 { return g.YEdges[j+1] - g.YEdges[j] }

// DZ returns the z-extent of layer k.
func (g *Grid) DZ(k int) float64 { return g.ZEdges[k+1] - g.ZEdges[k] }

// CellCenter returns the centroid of cell (i,j,k).
func (g *Grid) CellCenter(i, j, k int) (x, y, z float64) {
	return 0.5 * (g.XEdges[i] + g.XEdges[i+1]),
		0.5 * (g.YEdges[j] + g.YEdges[j+1]),
		0.5 * (g.ZEdges[k] + g.ZEdges[k+1])
}

// Box selects the half-open index ranges covering the physical box
// [x0,x1]×[y0,y1]×[z0,z1], snapping to the nearest cell boundaries.
type Box struct {
	I0, I1, J0, J1, K0, K1 int // half-open: I0 ≤ i < I1
}

// LocateBox returns the index Box whose cells have centroids inside the
// given physical box.  An empty selection is valid (I0==I1 etc.).
func (g *Grid) LocateBox(x0, x1, y0, y1, z0, z1 float64) Box {
	find := func(edges []float64, n int, lo, hi float64) (int, int) {
		a, b := n, 0
		for c := 0; c < n; c++ {
			mid := 0.5 * (edges[c] + edges[c+1])
			if mid >= lo && mid <= hi {
				if c < a {
					a = c
				}
				if c+1 > b {
					b = c + 1
				}
			}
		}
		if a > b {
			return 0, 0
		}
		return a, b
	}
	var bx Box
	bx.I0, bx.I1 = find(g.XEdges, g.Nx, x0, x1)
	bx.J0, bx.J1 = find(g.YEdges, g.Ny, y0, y1)
	bx.K0, bx.K1 = find(g.ZEdges, g.Nz, z0, z1)
	return bx
}

// Empty reports whether the box selects no cells.
func (b Box) Empty() bool {
	return b.I0 >= b.I1 || b.J0 >= b.J1 || b.K0 >= b.K1
}

// NumCells returns the number of cells inside the box.
func (b Box) NumCells() int {
	if b.Empty() {
		return 0
	}
	return (b.I1 - b.I0) * (b.J1 - b.J0) * (b.K1 - b.K0)
}

// Face identifies one of the six outer boundary faces of the grid.
type Face int

// Boundary faces in ±x, ±y, ±z order.
const (
	XMin Face = iota
	XMax
	YMin
	YMax
	ZMin
	ZMax
	NumFaces
)

// String returns the face name.
func (f Face) String() string {
	switch f {
	case XMin:
		return "x-"
	case XMax:
		return "x+"
	case YMin:
		return "y-"
	case YMax:
		return "y+"
	case ZMin:
		return "z-"
	case ZMax:
		return "z+"
	}
	return fmt.Sprintf("Face(%d)", int(f))
}

// TotalFaceArea returns the full area of boundary face f.
func (g *Grid) TotalFaceArea(f Face) float64 {
	lx := g.XEdges[g.Nx] - g.XEdges[0]
	ly := g.YEdges[g.Ny] - g.YEdges[0]
	lz := g.ZEdges[g.Nz] - g.ZEdges[0]
	switch f {
	case XMin, XMax:
		return ly * lz
	case YMin, YMax:
		return lx * lz
	default:
		return lx * ly
	}
}

// GradedEdges generates n+1 edge coordinates over [0,l] geometrically
// refined toward the start (ratio < 1) or end (ratio > 1); ratio 1 gives a
// uniform spacing.  Useful for resolving thin TIM layers and boundary
// layers without exploding the cell count.
func GradedEdges(l float64, n int, ratio float64) []float64 {
	if n < 1 {
		n = 1
	}
	if ratio <= 0 {
		ratio = 1
	}
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = math.Pow(ratio, float64(i))
		sum += w[i]
	}
	edges := make([]float64, n+1)
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += w[i] / sum * l
		edges[i+1] = acc
	}
	edges[n] = l
	return edges
}
