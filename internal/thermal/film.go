package thermal

import (
	"math"
	"slices"

	"aeropack/internal/materials"
	"aeropack/internal/mesh"
	"aeropack/internal/units"
)

// A boundary cell exchanges heat with its face's ambient through the
// half cell under its face, whose area-specific resistance is
// r″ = ½·Δ/k (Δ the cell's size normal to the face, k its material's
// conductivity along that normal), in series with the face's film h.
// Per unit area that is the film g = 1/(r″ + 1/h), and a cell of face
// area A has the conductance G = A·g.  On a tensor grid Δ is the same
// at every cell of a face, so g depends only on the cell's BC and
// material: it is computed once per SolveSteady for a run of cells, not
// per cell and pass.

// film is one run of boundary cells along a face row, the cells c0 ≤ c
// < c1 of the row, that share one BC and one material.  A face row is
// the cells of the face at one position across it: along y on an x
// face, along x on a y or z face, in the order mesh.Grid.Index numbers
// them.
type film struct {
	idx, stride int // the run's first cell's index, and the step to the next
	c0, c1      int // the run's positions along the row
	// across is the row's cell size across the face: cell c's face
	// area is along[c]·across, along being the face's cell sizes along
	// its rows.
	across float64
	// g is the film per unit area of a non-radiating run: 1/r″ on a
	// FixedT face, 1/(r″ + 1/H) on a film with H > 0, else 0.  On a
	// radiating run it is the film's convective part, which balanceT
	// reads.
	g float64
	// r is r″; h, es and ta are the BC's H, its emissivity times σ and
	// its ambient.  A radiating run's film moves with the surface
	// temperature, so the kernel forms it per cell from these.
	r, h, es, ta float64
	rad          bool
}

// newFilm returns the film of a non-adiabatic bc over material mat on
// a face whose normal is axis and whose boundary cells are delta thick,
// with no cells yet.
func newFilm(bc BC, mat *materials.Material, axis int, delta float64) film {
	r := 0.5 * delta / kDir(mat, axis)
	f := film{r: r, h: bc.H, ta: bc.T}
	switch bc.Kind {
	case FixedT:
		f.g = 1 / r
		return f
	case ConvectionRadiation:
		f.rad = true
		f.es = bc.emissivity(mat) * units.StefanBoltzmann
	}
	if bc.H > 0 {
		f.g = 1 / (r + 1/bc.H)
	}
	return f
}

// radFilm returns the conductance G (W/K) of a radiating cell of face
// area a at surface temperature ts, and its Newton term D (W/K).  The
// film is h = H + εσ(ts² + ta²)(ts + ta), so G = a·h/(r″h + 1), and
// with h′ = εσ(3ts² + 2ts·ta + ta²), dG/dts = a·h′/(r″h + 1)² and
// D = max(0, dG/dts·(ts − ta)): one division for both.  A film that is
// not positive exchanges no heat: G = D = 0.
func radFilm(a, r, h0, es, ta, ts float64) (G, D float64) {
	h := h0 + es*(ts*ts+ta*ta)*(ts+ta)
	if h <= 0 {
		return 0, 0
	}
	dh := es * (3*ts*ts + 2*ts*ta + ta*ta)
	q := 1 / (r*h + 1)
	return a * h * q, max(0, a*dh*(ts-ta)*q*q)
}

// films holds a model's boundary films as runs, face by face in the
// order XMin…ZMax and on each face row by row in mesh.Grid.Index order
// (the order a cell-by-cell walk of the face visits them), and the
// grid's cell sizes.  Adiabatic cells have no run.  build fills it once
// per SolveSteady, reusing its arrays.
type films struct {
	runs []film
	end  [mesh.NumFaces]int // face f's runs end at runs[end[f]]
	size [3][]float64       // cell sizes along x, y and z
	cuts []int              // build's buffer for one row's run boundaries
}

// of returns face f's runs and its cell sizes along its rows.
func (fs *films) of(f mesh.Face) ([]film, []float64) {
	lo := 0
	if f > mesh.XMin {
		lo = fs.end[f-1]
	}
	along := fs.size[0]
	if faceAxis(f) == 0 {
		along = fs.size[1]
	}
	return fs.runs[lo:fs.end[f]], along
}

// radiating reports whether any run radiates, the only cells whose
// terms depend on the field a pass is linearized about.
func (fs *films) radiating() bool {
	return slices.ContainsFunc(fs.runs, func(r film) bool { return r.rad })
}

// build computes m's films.  A face row splits at the edges of the
// patches that cover it and, on a painted model, where its cells'
// material changes; each piece takes the face's BC or that of the last
// patch covering it.  An unpainted model's cells are not visited: there
// a row with no patch is one run.
func (fs *films) build(m *Model) {
	g := m.Grid
	for d, edges := range [3][]float64{g.XEdges, g.YEdges, g.ZEdges} {
		fs.size[d] = fit(fs.size[d], len(edges)-1)
		for i := range fs.size[d] {
			fs.size[d][i] = edges[i+1] - edges[i]
		}
	}
	fs.runs = fs.runs[:0]
	for f := mesh.XMin; f < mesh.NumFaces; f++ {
		fs.face(m, f)
		fs.end[f] = len(fs.runs)
	}
}

// face appends face f's runs.  Cell c of row row on the face has the
// index base + c·stride + row·rowStride.
func (fs *films) face(m *Model, f mesh.Face) {
	g, axis := m.Grid, faceAxis(f)
	normal := fs.size[axis]
	layer := 0 // the boundary layer of cells: the first, or on a Max face (odd) the last
	if f%2 == 1 {
		layer = len(normal) - 1
	}
	delta := normal[layer]
	along, rows := fs.size[0], fs.size[1]
	base, stride, rowStride := g.Nx*g.Ny*layer, 1, g.Nx
	switch axis {
	case 0:
		along, rows = fs.size[1], fs.size[2]
		base, stride, rowStride = layer, g.Nx, g.Nx*g.Ny
	case 1:
		rows = fs.size[2]
		base, rowStride = g.Nx*layer, g.Nx*g.Ny
	}
	for row, across := range rows {
		at := func(c int) int { return base + c*stride + row*rowStride }
		fs.cuts = append(fs.cuts[:0], 0, len(along))
		for _, p := range m.patches {
			if c0, c1, r0, r1 := boxSpan(axis, p.box); p.face == f && r0 <= row && row < r1 {
				fs.cuts = append(fs.cuts, c0, c1)
			}
		}
		slices.Sort(fs.cuts)
		cuts := slices.Compact(fs.cuts)
		for i := 1; i < len(cuts); i++ {
			s, e := cuts[i-1], cuts[i]
			bc := m.FaceBC[f]
			for _, p := range m.patches {
				if c0, c1, r0, r1 := boxSpan(axis, p.box); p.face == f && r0 <= row && row < r1 && c0 <= s && e <= c1 {
					bc = p.bc
				}
			}
			if bc.Kind == Adiabatic {
				continue
			}
			for s < e {
				c, q := e, 0
				if m.mat != nil {
					q = m.mat[at(s)]
					c = s + 1
					for c < e && m.mat[at(c)] == q {
						c++
					}
				}
				run := newFilm(bc, &m.Mats[q], axis, delta)
				run.idx, run.stride, run.c0, run.c1, run.across = at(s), stride, s, c, across
				fs.runs = append(fs.runs, run)
				s = c
			}
		}
	}
}

// boxSpan returns the range a box of cells covers along the rows of a
// face whose normal is axis, and the range of those rows.
func boxSpan(axis int, b mesh.Box) (c0, c1, r0, r1 int) {
	switch axis {
	case 0:
		return b.J0, b.J1, b.K0, b.K1
	case 1:
		return b.I0, b.I1, b.K0, b.K1
	}
	return b.I0, b.I1, b.J0, b.J1
}

// add adds face f's films at the field T to a pass's system and returns
// their total G + D: for every cell, G + D to its diagonal, entry
// slot[i] of dst for cell i or entry i when slot is nil, and G·Ta + D·Ts
// to b[i].  A non-radiating cell's G is A·g, with no division and no
// dependence on T, which only a radiating cell reads (radFilm at
// Ts = T[i]); its D is 0.
//
//lint:hot
func (fs *films) add(f mesh.Face, T, dst []float64, slot []int, b []float64) float64 {
	runs, along := fs.of(f)
	total := 0.0
	for q := range runs {
		run := &runs[q]
		idx, stride, across, ta := run.idx, run.stride, run.across, run.ta
		cells := along[run.c0:run.c1]
		if !run.rad {
			g := run.g
			for _, a := range cells {
				G := a * across * g
				p := idx
				if slot != nil {
					p = slot[idx]
				}
				dst[p] += G
				b[idx] += G * ta
				total += G
				idx += stride
			}
			continue
		}
		r, h0, es := run.r, run.h, run.es
		for _, a := range cells {
			ts := T[idx]
			G, D := radFilm(a*across, r, h0, es, ta, ts)
			gd := G + D
			p := idx
			if slot != nil {
				p = slot[idx]
			}
			dst[p] += gd
			b[idx] += G*ta + D*ts
			total += gd
			idx += stride
		}
	}
	return total
}

// heatFlow returns the heat (W) face f's films carry out of the field
// T: Σ G·(Ts − Ta) over its cells, G at Ts = T[i] on a radiating run.
func (fs *films) heatFlow(f mesh.Face, T []float64) float64 {
	runs, along := fs.of(f)
	total := 0.0
	for q := range runs {
		run := &runs[q]
		idx := run.idx
		for _, a := range along[run.c0:run.c1] {
			a *= run.across
			G := a * run.g
			if run.rad {
				G, _ = radFilm(a, run.r, run.h, run.es, run.ta, T[idx])
			}
			total += G * (T[idx] - run.ta)
			idx += run.stride
		}
	}
	return total
}

// balanceT is the uniform temperature T at which the model's faces shed
// its source power p, the field the first Newton pass linearizes about:
//
//	Σ g_c·(T − Ta_c) + σ·Σ ε_c·A_c·(T⁴ − Ta_c⁴) = p
//
// over the boundary cells c with a film, where g_c = A_c·g is the
// cell's conductance without radiation and ε_c·A_c its radiating area
// (the radiation is taken at the surface, without the half-cell
// conduction in series).  Linearized at the ambient instead, a hot face
// of low ε overshoots by tens of times on the first pass, and Newton
// then closes only about a quarter of the gap per pass.  The left side
// is increasing and convex for T > 0, so Newton's method from the
// highest ambient steps to the right of the root and then falls to it,
// closing at least a quarter of the gap per step: 100 steps cover any
// overshoot.
//
//lint:hot
func (fs *films) balanceT(p float64) float64 {
	var gSum, gTa, eSum, eTa4 float64
	t := math.Inf(-1)
	for f := mesh.XMin; f < mesh.NumFaces; f++ {
		runs, along := fs.of(f)
		for q := range runs {
			run := &runs[q]
			across, g, es, ta, rad := run.across, run.g, run.es, run.ta, run.rad
			t = max(t, ta)
			for _, a := range along[run.c0:run.c1] {
				a *= across
				if rad {
					e := es * a
					eSum += e
					eTa4 += e * ta * ta * ta * ta
				}
				gc := a * g
				gSum += gc
				gTa += gc * ta
			}
		}
	}
	for it := 0; it < 100; it++ {
		slope := gSum + 4*eSum*t*t*t
		if !(slope > 0) {
			break
		}
		step := (gSum*t - gTa + eSum*t*t*t*t - eTa4 - p) / slope
		t -= step
		if math.Abs(step) < 1e-9*t {
			break
		}
	}
	return t
}
