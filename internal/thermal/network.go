package thermal

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"aeropack/internal/linalg"
	"aeropack/internal/obs"
	"aeropack/internal/robust"
)

// Network is a lumped thermal resistance network — the "resistive network
// model" the paper uses at level 1 (equipment) and level 3 (component
// packaging models).  Nodes are named; edges are thermal resistances in
// K/W; nodes may carry power sources (W) or be pinned to a temperature.
//
// Nonlinear elements (temperature- or power-dependent conductances, e.g. a
// loop heat pipe or a natural-convection film) are supported through
// VariableResistor callbacks, resolved by Picard iteration.
//
// Every solve takes the caller's context: its budget (robust.Stop) is
// polled once before each factorization, that is before every Picard
// pass and every transient step, and once it fires the solve ends with
// an error wrapping linalg.ErrStopped.  The solver's span nests under
// the span the context carries.
type Network struct {
	names     map[string]int
	nodes     []netNode // by node id, in creation order
	resistors []resistor
}

// netNode is one node of a Network.
type netNode struct {
	name   string
	c      float64 // lumped capacitance, J/K (0 for massless)
	power  float64 // source power, W
	fixT   float64 // pinned temperature, K, when pinned
	pinned bool
}

type resistor struct {
	a, b int
	r    float64
	// fn, if non-nil, recomputes the resistance from the current endpoint
	// temperatures and the heat flow through the element on the previous
	// iteration.
	fn func(Ta, Tb, Q float64) float64
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{names: make(map[string]int)}
}

// AddNode creates (or returns) the node with the given name.
func (n *Network) AddNode(name string) int {
	if id, ok := n.names[name]; ok {
		return id
	}
	id := len(n.nodes)
	n.names[name] = id
	n.nodes = append(n.nodes, netNode{name: name})
	return id
}

// SetCapacitance assigns a lumped thermal capacitance (J/K) to a node for
// transient solves.
func (n *Network) SetCapacitance(name string, c float64) {
	n.nodes[n.AddNode(name)].c = c
}

// Nodes returns the node names in creation order.
func (n *Network) Nodes() []string {
	out := make([]string, len(n.nodes))
	for id, nd := range n.nodes {
		out[id] = nd.name
	}
	return out
}

// AddResistor connects nodes a and b with resistance r (K/W).
func (n *Network) AddResistor(a, b string, r float64) error {
	if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		return fmt.Errorf("thermal: resistance %g between %q and %q must be positive and finite", r, a, b)
	}
	ia, ib := n.AddNode(a), n.AddNode(b)
	if ia == ib {
		return fmt.Errorf("thermal: self-loop resistor on %q", a)
	}
	n.resistors = append(n.resistors, resistor{a: ia, b: ib, r: r})
	return nil
}

// AddVariableResistor connects a and b with a resistance recomputed each
// Picard pass from endpoint temperatures and previous-iteration heat flow.
// fn must return a positive finite resistance; r0 seeds the iteration.
func (n *Network) AddVariableResistor(a, b string, r0 float64, fn func(Ta, Tb, Q float64) float64) error {
	if !(r0 > 0) || math.IsInf(r0, 1) || fn == nil {
		return fmt.Errorf("thermal: variable resistor needs a positive finite seed and a non-nil fn")
	}
	ia, ib := n.AddNode(a), n.AddNode(b)
	if ia == ib {
		return fmt.Errorf("thermal: self-loop resistor on %q", a)
	}
	n.resistors = append(n.resistors, resistor{a: ia, b: ib, r: r0, fn: fn})
	return nil
}

// AddSource injects power (W, positive heating) at a node; repeated calls
// accumulate.
func (n *Network) AddSource(name string, power float64) {
	n.nodes[n.AddNode(name)].power += power
}

// FixT pins a node to temperature T (K).
func (n *Network) FixT(name string, T float64) {
	nd := &n.nodes[n.AddNode(name)]
	nd.pinned, nd.fixT = true, T
}

// SteadyResult holds a steady solve's node temperatures and element
// flows.
type SteadyResult struct {
	// T[id] is the temperature (K) of node id, ids in creation order;
	// At reads it by name.
	T []float64
	// Flow[i] is the heat flow (W) through resistor i, positive a→b, in
	// the order resistors were added.
	Flow []float64
	// Iterations is the number of Picard passes used.
	Iterations int

	names map[string]int // the solved network's name index, shared
}

// At returns the named node's temperature (K) and whether the solved
// network has that node.
func (r *SteadyResult) At(name string) (float64, bool) {
	id, ok := r.names[name]
	if !ok || id >= len(r.T) {
		return 0, false
	}
	return r.T[id], true
}

// Picard controls of every steady network solve: a solve converges
// when no node moves steadyTolK between passes and fails after
// steadyMaxPasses passes.
const (
	steadyTolK      = 1e-3
	steadyMaxPasses = 200
)

// SolveSteady solves the network at the sources it carries.  Purely
// linear networks converge in one pass; networks with variable
// resistors iterate until no node temperature moves 1e-3 K between
// passes, and fail after 200 passes.
func (n *Network) SolveSteady(ctx context.Context) (*SteadyResult, error) {
	c, err := n.Compile()
	if err != nil {
		return nil, err
	}
	return c.SolveSteady(ctx, n.powers())
}

// SolveSteady solves the compiled network with power[id] watts injected
// at node id, in place of the sources the network carries, by
// Network.SolveSteady's Picard iteration.  Its numeric buffers are its
// own, allocated in one block beside a clone of the factorization's
// values, so concurrent solves may share s.
func (s *CompiledNetwork) SolveSteady(ctx context.Context, power []float64) (*SteadyResult, error) {
	n := s.n
	num, nr := len(n.nodes), len(n.resistors)
	sp := obs.Start(obs.FromContext(ctx), "thermal.Network.SolveSteady")
	defer sp.End()
	sp.AttrInt("nodes", num)
	sp.AttrInt("resistors", nr)

	if len(power) != num {
		return nil, fmt.Errorf("thermal: %d source powers for a network of %d nodes", len(power), num)
	}
	for id, p := range power {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return nil, fmt.Errorf("thermal: node %q has non-finite source %g W", n.nodes[id].name, p)
		}
	}
	buf := make([]float64, 2*num+2*nr+len(s.free))
	T, Tnew := buf[:num:num], buf[num:2*num:2*num]
	rs, flows := buf[2*num:2*num+nr:2*num+nr], buf[2*num+nr:2*num+2*nr:2*num+2*nr]
	b, f := buf[2*num+2*nr:], s.f.Clone()
	for i, e := range n.resistors {
		rs[i] = e.r
	}
	// Seed the free nodes at the mean pinned temperature, summed in
	// ascending node id.
	mean := 0.0
	for id, u := range s.unk {
		if u < 0 {
			mean += s.fixT[id]
		}
	}
	mean /= float64(num - len(s.free))
	copy(T, s.fixT)
	for _, id := range s.free {
		T[id] = mean
	}
	hasVariable := slices.ContainsFunc(n.resistors, func(e resistor) bool { return e.fn != nil })

	result := func(passes int) *SteadyResult {
		return &SteadyResult{T: T, Flow: flows, Iterations: passes, names: n.names}
	}
	// Variable resistances are under-relaxed for stability, but a fixed
	// 0.5 factor makes the whole Picard iteration converge at rate ~0.5
	// per pass (~16 passes to drive a 60 K ΔT under 1e-3 K).  theta
	// adapts instead: while successive passes shrink the temperature
	// update monotonically the relaxation opens up toward 1 (plain
	// Picard), and any growth — the h(T) oscillation the damping exists
	// for — halves it again.  The schedule depends only on the iteration
	// history, so solves stay deterministic.
	theta := 0.5
	prevDelta := math.Inf(1)
	stop := robust.Stop(ctx)
	for pass := 0; pass < steadyMaxPasses; pass++ {
		if stop != nil && stop() {
			return nil, fmt.Errorf("thermal: network %w after %d Picard passes", linalg.ErrStopped, pass)
		}
		if err := s.solve(f, b, power, rs, T, 0, Tnew); err != nil {
			return nil, err
		}
		maxDelta := 0.0
		for i := range Tnew {
			if d := math.Abs(Tnew[i] - T[i]); d > maxDelta {
				maxDelta = d
			}
		}
		copy(T, Tnew)
		for i, e := range n.resistors {
			flows[i] = (T[e.a] - T[e.b]) / rs[i]
		}
		if !hasVariable {
			return result(pass + 1), nil
		}
		// Update variable resistances.
		changed := false
		for i, e := range n.resistors {
			if e.fn == nil {
				continue
			}
			rNew := e.fn(T[e.a], T[e.b], flows[i])
			if rNew <= 0 || math.IsNaN(rNew) || math.IsInf(rNew, 0) {
				return nil, fmt.Errorf("thermal: variable resistor %d returned invalid resistance %g", i, rNew)
			}
			// Under-relax for stability (adaptive theta, see above).
			rNew = (1-theta)*rs[i] + theta*rNew
			if math.Abs(rNew-rs[i]) > 1e-9*rs[i] {
				changed = true
			}
			rs[i] = rNew
		}
		if maxDelta < prevDelta {
			theta = math.Min(1, 1.5*theta)
		} else {
			theta = math.Max(0.25, 0.5*theta)
		}
		prevDelta = maxDelta
		if maxDelta < steadyTolK && (!changed || pass > 2) {
			return result(pass + 1), nil
		}
	}
	return result(steadyMaxPasses), fmt.Errorf("thermal: network Picard iteration did not converge in %d passes", steadyMaxPasses)
}

// CompiledNetwork is a Network checked, numbered and ordered once for
// any number of solves.  Pinned nodes leave the system, their
// conductances moving to the right-hand side, and the free nodes, in
// node id order, are the unknowns of one sparse LDLᵀ whose order and
// fill pattern are fixed at compile time.  A steady solve only reads
// it, so concurrent solves may share one; the network must not change
// while its compiled form is in use.
type CompiledNetwork struct {
	n    *Network
	f    *linalg.LDLT // the order and pattern; every solve factors in a clone
	free []int        // free[u] is unknown u's node id
	unk  []int        // unk[id] is node id's unknown, -1 when pinned
	slot []int        // slot[e] is resistor e's entry in f.Lower, -1 unless both ends are free
	fixT []float64    // pinned temperature per node (a transient reschedules its own)

	factorizations *obs.Counter
}

// Compile checks the network — every source, pinned temperature and
// capacitance finite, some node pinned and no floating island — and
// lays out its system for any number of steady solves.
func (n *Network) Compile() (*CompiledNetwork, error) {
	return n.compile(false)
}

// compile checks the network's inputs and topology and builds its
// system.  Every source, pinned temperature and capacitance must be
// finite (capacitances also non-negative), some node must be pinned, and
// every connected group of free nodes must reach a pinned node through
// resistors — or, in a transient, hold a capacitance — else the system
// is singular and the error names the group.
func (n *Network) compile(transient bool) (*CompiledNetwork, error) {
	num := len(n.nodes)
	if num == 0 {
		return nil, errors.New("thermal: empty network")
	}
	for _, nd := range n.nodes {
		switch {
		case math.IsNaN(nd.power) || math.IsInf(nd.power, 0):
			return nil, fmt.Errorf("thermal: node %q has non-finite source %g W", nd.name, nd.power)
		case nd.pinned && (math.IsNaN(nd.fixT) || math.IsInf(nd.fixT, 0)):
			return nil, fmt.Errorf("thermal: node %q is pinned to non-finite temperature %g K", nd.name, nd.fixT)
		case !(nd.c >= 0) || math.IsInf(nd.c, 1):
			return nil, fmt.Errorf("thermal: node %q has invalid capacitance %g J/K (want finite, ≥ 0)", nd.name, nd.c)
		}
	}
	ints := make([]int, 2*num+len(n.resistors))
	s := &CompiledNetwork{n: n, unk: ints[:num], free: ints[num : num : 2*num], slot: ints[2*num:],
		fixT: make([]float64, num), factorizations: obs.Default().Counter("thermal_network_factorizations_total")}
	for id, nd := range n.nodes {
		s.unk[id], s.fixT[id] = -1, nd.fixT
		if !nd.pinned {
			s.unk[id] = len(s.free)
			s.free = append(s.free, id)
		}
	}
	if len(s.free) == num {
		if transient {
			return nil, errors.New("thermal: transient network needs a fixed node")
		}
		return nil, errors.New("thermal: network has no fixed-temperature node; steady problem is singular")
	}
	edges := make([][2]int, 0, len(n.resistors))
	for e, r := range n.resistors {
		s.slot[e] = -1
		if ua, ub := s.unk[r.a], s.unk[r.b]; ua >= 0 && ub >= 0 {
			s.slot[e] = len(edges)
			edges = append(edges, [2]int{ua, ub})
		}
	}
	if err := s.checkIslands(edges, transient); err != nil {
		return nil, err
	}
	f, slots := linalg.NewLDLT(len(s.free), edges)
	for e, k := range s.slot {
		if k >= 0 {
			s.slot[e] = slots[k]
		}
	}
	s.f = f
	return s, nil
}

// checkIslands returns an error naming the first connected group of
// free nodes, by lowest node id, that no resistor ties to a pinned node
// and, in a transient, that holds no capacitance.  The names are sorted
// and capped at 8.
func (s *CompiledNetwork) checkIslands(edges [][2]int, transient bool) error {
	n := s.n
	root := make([]int, len(s.free))
	for u := range root {
		root[u] = u
	}
	find := func(u int) int {
		for root[u] != u {
			root[u] = root[root[u]]
			u = root[u]
		}
		return u
	}
	for _, e := range edges {
		root[find(e[0])] = find(e[1])
	}
	grounded := make([]bool, len(s.free))
	for _, r := range n.resistors {
		if ua, ub := s.unk[r.a], s.unk[r.b]; (ua < 0) != (ub < 0) {
			grounded[find(max(ua, ub))] = true
		}
	}
	for u, id := range s.free {
		if transient && n.nodes[id].c > 0 {
			grounded[find(u)] = true
		}
	}
	for u := range s.free {
		island := find(u)
		if grounded[island] {
			continue
		}
		var names []string
		for w, id := range s.free {
			if find(w) == island {
				names = append(names, strconv.Quote(n.nodes[id].name))
			}
		}
		sort.Strings(names)
		list := strings.Join(names[:min(8, len(names))], ", ")
		if len(names) > 8 {
			list += fmt.Sprintf(" and %d more", len(names)-8)
		}
		why := "no resistor path to a fixed-temperature node"
		if transient {
			why += " and no capacitance"
		}
		return fmt.Errorf("thermal: floating island %s: %s", list, why)
	}
	return nil
}

// solve assembles the system at source powers power (by node id) and
// resistances rs — steady when dt is 0, else one backward-Euler step of
// dt from field T — into f and the right-hand side b (by unknown),
// factors it and writes every node's temperature into out, which may be
// T.
func (s *CompiledNetwork) solve(f *linalg.LDLT, b, power, rs, T []float64, dt float64, out []float64) error {
	n := s.n
	clear(f.Lower)
	for u, id := range s.free {
		f.Diag[u], b[u] = 0, power[id]
		if c := n.nodes[id].c; dt > 0 && c > 0 {
			f.Diag[u] = c / dt
			b[u] += c / dt * T[id]
		}
	}
	for e, r := range n.resistors {
		g := 1 / rs[e]
		ua, ub := s.unk[r.a], s.unk[r.b]
		if ua >= 0 {
			f.Diag[ua] += g
			if ub < 0 {
				b[ua] += g * s.fixT[r.b]
			}
		}
		if ub >= 0 {
			f.Diag[ub] += g
			if ua < 0 {
				b[ub] += g * s.fixT[r.a]
			}
		}
		if k := s.slot[e]; k >= 0 {
			f.Lower[k] -= g
		}
	}
	s.factorizations.Inc()
	if err := f.Factor(); err != nil {
		var pe *linalg.PivotError
		if errors.As(err, &pe) {
			return fmt.Errorf("thermal: network node %q: %w", n.nodes[s.free[pe.Index]].name, err)
		}
		return err
	}
	f.Solve(b)
	for id, u := range s.unk {
		if u >= 0 {
			out[id] = b[u]
		} else {
			out[id] = s.fixT[id]
		}
	}
	return nil
}

// powers returns the nodes' source powers by node id.
func (n *Network) powers() []float64 {
	out := make([]float64, len(n.nodes))
	for id, nd := range n.nodes {
		out[id] = nd.power
	}
	return out
}

// NodePower returns the net power (W) injected at the named node by
// sources (not flows); 0 for unknown nodes.
func (n *Network) NodePower(name string) float64 {
	id, ok := n.names[name]
	if !ok {
		return 0
	}
	return n.nodes[id].power
}

// FlowBetween returns the total heat flow a→b (W) summed over all parallel
// resistors between the two named nodes, given a solved result.
func (n *Network) FlowBetween(res *SteadyResult, a, b string) float64 {
	ia, ok1 := n.names[a]
	ib, ok2 := n.names[b]
	if !ok1 || !ok2 {
		return 0
	}
	sum := 0.0
	for i, e := range n.resistors {
		if e.a == ia && e.b == ib {
			sum += res.Flow[i]
		} else if e.a == ib && e.b == ia {
			sum -= res.Flow[i]
		}
	}
	return sum
}

// SeriesResistance is a helper composing a one-dimensional stack of
// conductive layers plus optional interface resistances: layers are
// (thickness m, conductivity W/mK) pairs over area m², interfaces are
// specific resistances in K·m²/W.  Returns total K/W.
//
// Non-finite (NaN/Inf) inputs propagate to the result (nanguard: propagates).
func SeriesResistance(area float64, layers [][2]float64, interfaces []float64) (float64, error) {
	if area <= 0 {
		return 0, fmt.Errorf("thermal: non-positive area")
	}
	r := 0.0
	for i, l := range layers {
		thk, k := l[0], l[1]
		if thk < 0 || k <= 0 {
			return 0, fmt.Errorf("thermal: layer %d invalid (thk=%g, k=%g)", i, thk, k)
		}
		r += thk / (k * area)
	}
	for i, ri := range interfaces {
		if ri < 0 {
			return 0, fmt.Errorf("thermal: interface %d negative", i)
		}
		r += ri / area
	}
	return r, nil
}

// SortedNodeNames returns node names sorted alphabetically — handy for
// deterministic report output.
func (n *Network) SortedNodeNames() []string {
	out := n.Nodes()
	sort.Strings(out)
	return out
}
