package thermal

import (
	"errors"
	"fmt"
	"math"
	"sort"

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
type Network struct {
	names  map[string]int
	labels []string
	caps   []float64 // lumped capacitance per node, J/K (0 for massless)

	resistors []resistor
	sources   map[int]float64
	fixed     map[int]float64

	// Obs, when non-nil, is the parent span under which the network
	// solver records its telemetry.  When nil, the solver span attaches
	// to the process-global tracer.
	Obs *obs.Span

	// Setup, when non-nil, caches preconditioner factors and exact-repeat
	// solve results across solve calls.  Sweep drivers (internal/cosee)
	// install one shared setup on every network they build for the same
	// configuration, so near-identical bisection and sweep points reuse
	// the IC(0) symbolic pattern and factors instead of re-deriving them.
	// Safe for concurrent solves; nil means each solve call builds a
	// private one.
	Setup *linalg.SolverSetup

	// Stop, when non-nil, is the per-request budget seam: it is forwarded
	// to every linear solve's linalg.IterOptions.Stop (through the robust
	// chain) and polled between Picard passes.  Returning true aborts the
	// solve with an error wrapping linalg.ErrStopped.  Budgeted solves
	// skip the exact-result cache — a cache hit would never poll the
	// callback, hiding fault-injection stops (the same reasoning as
	// thermal.SolveOptions).  Must be safe for concurrent calls when the
	// network is solved from a parallel sweep.
	Stop func() bool
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
	return &Network{
		names:   make(map[string]int),
		sources: make(map[int]float64),
		fixed:   make(map[int]float64),
	}
}

// AddNode creates (or returns) the node with the given name.
func (n *Network) AddNode(name string) int {
	if id, ok := n.names[name]; ok {
		return id
	}
	id := len(n.labels)
	n.names[name] = id
	n.labels = append(n.labels, name)
	n.caps = append(n.caps, 0)
	return id
}

// SetCapacitance assigns a lumped thermal capacitance (J/K) to a node for
// transient solves.
func (n *Network) SetCapacitance(name string, c float64) {
	id := n.AddNode(name)
	n.caps[id] = c
}

// Nodes returns the node names in creation order.
func (n *Network) Nodes() []string {
	return append([]string(nil), n.labels...)
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
	if r0 <= 0 || fn == nil {
		return fmt.Errorf("thermal: variable resistor needs positive seed and non-nil fn")
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
	id := n.AddNode(name)
	n.sources[id] += power
}

// FixT pins a node to temperature T (K).
func (n *Network) FixT(name string, T float64) {
	id := n.AddNode(name)
	n.fixed[id] = T
}

// SteadyResult maps node names to solved temperatures plus element flows.
type SteadyResult struct {
	T map[string]float64
	// Flow[i] is the heat flow (W) through resistor i, positive a→b, in
	// the order resistors were added.
	Flow []float64
	// Iterations is the number of Picard passes used.
	Iterations int
}

// SolveSteady solves the network.  Purely linear networks converge in one
// pass; networks with variable resistors iterate until the max node
// temperature change falls below tolK (default 1e-3 K) or maxIter passes.
func (n *Network) SolveSteady() (*SteadyResult, error) {
	return n.SolveSteadyTol(1e-3, 60)
}

// NetworkState carries the converged Picard state (node temperatures and
// frozen resistances) of one steady solve, for warm-starting the next.
// It is only meaningful between networks of identical topology — same
// nodes in the same order, same resistor list — such as the ones a
// capability bisection rebuilds at successive power levels.
type NetworkState struct {
	T  []float64
	Rs []float64
}

// SolveSteadyTol is SolveSteady with explicit Picard controls.
func (n *Network) SolveSteadyTol(tolK float64, maxIter int) (*SteadyResult, error) {
	return n.solveSteady(tolK, maxIter, nil)
}

// SolveSteadyWarm is SolveSteadyTol continuing from (and updating) a
// prior solve's Picard state: near-identical systems then converge in a
// couple of passes instead of restarting from the cold seeds.  Callers
// must use one NetworkState sequentially — sharing it across concurrent
// solves would make results depend on scheduling order (the parallel
// sweep paths deliberately pass nil for exactly that reason).
func (n *Network) SolveSteadyWarm(tolK float64, maxIter int, warm *NetworkState) (*SteadyResult, error) {
	return n.solveSteady(tolK, maxIter, warm)
}

func (n *Network) solveSteady(tolK float64, maxIter int, warm *NetworkState) (*SteadyResult, error) {
	num := len(n.labels)
	if num == 0 {
		return nil, fmt.Errorf("thermal: empty network")
	}
	if len(n.fixed) == 0 {
		return nil, fmt.Errorf("thermal: network has no fixed-temperature node; steady problem is singular")
	}
	if tolK <= 0 {
		tolK = 1e-3
	}
	if maxIter <= 0 {
		maxIter = 60
	}

	sp := obs.Start(n.Obs, "thermal.Network.SolveSteady")
	sp.AttrInt("nodes", num)
	sp.AttrInt("resistors", len(n.resistors))
	defer sp.End()

	rs := make([]float64, len(n.resistors))
	for i, e := range n.resistors {
		rs[i] = e.r
	}
	T := make([]float64, num)
	// Seed all nodes at the mean fixed temperature, summed in ascending
	// node id: in map order the last bits of the seed, and so of every
	// warm-started solve, would change from run to run.
	fixedIDs := make([]int, 0, len(n.fixed))
	for id := range n.fixed {
		fixedIDs = append(fixedIDs, id)
	}
	sort.Ints(fixedIDs)
	mean := 0.0
	for _, id := range fixedIDs {
		mean += n.fixed[id]
	}
	mean /= float64(len(n.fixed))
	for i := range T {
		T[i] = mean
	}
	for id, t := range n.fixed {
		T[id] = t
	}

	hasVariable := false
	for _, e := range n.resistors {
		if e.fn != nil {
			hasVariable = true
			break
		}
	}

	// Continue from a compatible prior state: temperatures and frozen
	// resistances seed within a few Picard passes of the new fixed point
	// when only sources or fixed temperatures moved.  Fixed nodes are
	// re-pinned — this network's boundary values win over the old ones.
	if warm != nil && len(warm.T) == num && len(warm.Rs) == len(rs) {
		copy(T, warm.T)
		for id, t := range n.fixed {
			T[id] = t
		}
		copy(rs, warm.Rs)
	}
	saveWarm := func() {
		if warm != nil {
			warm.T = append(warm.T[:0], T...)
			warm.Rs = append(warm.Rs[:0], rs...)
		}
	}

	setup := n.Setup
	if setup == nil {
		setup = linalg.NewSolverSetup()
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
	var result *SteadyResult
	for pass := 0; pass < maxIter; pass++ {
		// The budget callback is polled between passes as well as inside
		// the linear solver: a tiny network's CG may finish (or fall back
		// to the dense solve) before the budget trips, and without this
		// check the Picard loop would burn the rest of its passes on a
		// request that already exceeded its allowance.
		if n.Stop != nil && pass > 0 && n.Stop() {
			return nil, fmt.Errorf("thermal: network %w after %d Picard passes", linalg.ErrStopped, pass)
		}
		// T warm-starts the linear solve: on the first pass it is the
		// seeded field, afterwards the previous Picard iterate, which is
		// within tolK of the solution near convergence.
		Tnew, err := n.solveLinear(sp, rs, T, setup)
		if err != nil {
			return nil, err
		}
		maxDelta := 0.0
		for i := range Tnew {
			if d := math.Abs(Tnew[i] - T[i]); d > maxDelta {
				maxDelta = d
			}
		}
		copy(T, Tnew)
		flows := make([]float64, len(n.resistors))
		for i, e := range n.resistors {
			flows[i] = (T[e.a] - T[e.b]) / rs[i]
		}
		result = &SteadyResult{T: n.labelled(T), Flow: flows, Iterations: pass + 1}
		if !hasVariable {
			saveWarm()
			return result, nil
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
		if maxDelta < tolK && !changed {
			saveWarm()
			return result, nil
		}
		if maxDelta < tolK && pass > 2 {
			saveWarm()
			return result, nil
		}
	}
	return result, fmt.Errorf("thermal: network Picard iteration did not converge in %d passes", maxIter)
}

// solveLinear solves the network with frozen resistances.  sp parents
// the fallback spans when the primary solve fails; x0 (may be nil) warm
// starts the iteration and setup carries the preconditioner/result
// caches shared across passes and sweep points.
func (n *Network) solveLinear(sp *obs.Span, rs []float64, x0 []float64, setup *linalg.SolverSetup) ([]float64, error) {
	num := len(n.labels)
	coo := linalg.NewCOO(num, num)
	b := make([]float64, num)
	isFixed := func(id int) bool { _, ok := n.fixed[id]; return ok }

	for i, e := range n.resistors {
		g := 1 / rs[i]
		for _, end := range []struct{ self, other int }{{e.a, e.b}, {e.b, e.a}} {
			if isFixed(end.self) {
				continue
			}
			coo.Add(end.self, end.self, g)
			if isFixed(end.other) {
				b[end.self] += g * n.fixed[end.other]
			} else {
				coo.Add(end.self, end.other, -g)
			}
		}
	}
	for id, p := range n.sources {
		if !isFixed(id) {
			b[id] += p
		}
	}
	for id, t := range n.fixed {
		coo.Add(id, id, 1)
		b[id] = t
	}
	// Detect floating nodes (no resistor, not fixed): pin them to NaN-safe
	// isolated equations so the solve doesn't go singular.
	deg := make([]int, num)
	for _, e := range n.resistors {
		deg[e.a]++
		deg[e.b]++
	}
	for id := 0; id < num; id++ {
		if deg[id] == 0 && !isFixed(id) {
			return nil, fmt.Errorf("thermal: node %q is floating (no resistor, not fixed)", n.labels[id])
		}
	}

	a := coo.ToCSR()
	tol := 1e-12
	// Budgeted solves bypass the exact-result cache: a hit would return
	// without ever polling Stop, so a fault-injection or budget callback
	// could never observe the solve (mirrors thermal.SolveOptions).
	useCache := setup != nil && n.Stop == nil
	var key linalg.SolveKey
	if useCache {
		key = setup.Key("network:cg-ic0", a, b, x0, tol)
		if x, _, ok := setup.Cached(key); ok {
			return x, nil
		}
	}
	// Network matrices are symmetric positive definite after Dirichlet
	// elimination; IC(0) is near-exact on their mostly tree-like graphs,
	// so the warm-started CG converges in a handful of iterations.  On
	// IC(0) breakdown the rung degrades to Jacobi; on solve failure the
	// robust chain walks the fallback ladder before the last-resort dense
	// solve for tiny ill-conditioned nets.
	chain := robust.ChainFor("cg-ic0", 0, tol, 20*num+200)
	chain.Span = sp
	chain.Setup = setup
	chain.Stop = n.Stop
	x, out, err := chain.Solve(a, b, x0)
	if err != nil {
		// A tripped budget must surface as ErrStopped, not be papered
		// over by the dense last resort.
		if errors.Is(err, linalg.ErrStopped) {
			return nil, err
		}
		if num <= 600 {
			xd, derr := linalg.SolveDense(a.ToDense(), b)
			if derr == nil {
				return xd, nil
			}
		}
		return nil, err
	}
	if useCache && out.AttemptUsed == 0 && !out.Relaxed {
		setup.Store(key, x, out.Stats)
	}
	return x, nil
}

func (n *Network) labelled(T []float64) map[string]float64 {
	out := make(map[string]float64, len(T))
	for i, name := range n.labels {
		out[name] = T[i]
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
	return n.sources[id]
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
