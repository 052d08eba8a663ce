package thermal

import (
	"context"
	"fmt"
	"math"
	"slices"

	"aeropack/internal/linalg"
	"aeropack/internal/robust"
)

// TransientResult holds a network time history.
type TransientResult struct {
	Times []float64
	// T[node] is the temperature history for each node, same length as
	// Times.
	T map[string][]float64
}

// At returns the temperature of a node at the sample closest to time t.
//
// Non-finite (NaN/Inf) inputs propagate to the result (nanguard: propagates).
func (r *TransientResult) At(node string, t float64) (float64, error) {
	hist, ok := r.T[node]
	if !ok {
		return 0, fmt.Errorf("thermal: unknown node %q", node)
	}
	if len(r.Times) == 0 {
		return 0, fmt.Errorf("thermal: empty transient result")
	}
	best, bestD := 0, math.Inf(1)
	for i, tt := range r.Times {
		if d := math.Abs(tt - t); d < bestD {
			best, bestD = i, d
		}
	}
	return hist[best], nil
}

// Final returns each node's temperature at the last time step.
func (r *TransientResult) Final() map[string]float64 {
	out := make(map[string]float64, len(r.T))
	n := len(r.Times)
	for k, v := range r.T {
		out[k] = v[n-1]
	}
	return out
}

// TimeToReach returns the first time a node crosses the given temperature
// (rising or falling), or an error if it never does within the history.
//
// Non-finite (NaN/Inf) inputs propagate to the result (nanguard: propagates).
func (r *TransientResult) TimeToReach(node string, target float64) (float64, error) {
	hist, ok := r.T[node]
	if !ok {
		return 0, fmt.Errorf("thermal: unknown node %q", node)
	}
	for i := 1; i < len(hist); i++ {
		if (hist[i-1] < target && hist[i] >= target) ||
			(hist[i-1] > target && hist[i] <= target) {
			return r.Times[i], nil
		}
	}
	return 0, fmt.Errorf("thermal: node %q never reaches %.2f K", node, target)
}

// SolveTransient integrates the network from a uniform initial temperature
// T0 with implicit Euler: nodes with zero capacitance are treated as
// quasi-steady (massless).  Variable resistors are re-evaluated each step
// from the previous step's temperatures.  Ambient (fixed) nodes may be
// rescheduled over time via schedule, mapping node name to a temperature
// profile T(t); nil entries keep the fixed value.  ctx's budget is
// polled once before every step's factorization; once it fires the
// transient ends with an error wrapping linalg.ErrStopped.
func (n *Network) SolveTransient(ctx context.Context, T0, dt float64, steps int, schedule map[string]func(t float64) float64) (*TransientResult, error) {
	if !(dt > 0) || steps <= 0 {
		return nil, fmt.Errorf("thermal: transient needs positive dt and steps")
	}
	if math.IsNaN(T0) || math.IsInf(T0, 0) {
		return nil, fmt.Errorf("thermal: transient initial temperature %g K is not finite", T0)
	}
	sys, err := n.compile(true)
	if err != nil {
		return nil, err
	}

	rs := make([]float64, len(n.resistors))
	for i, e := range n.resistors {
		rs[i] = e.r
	}
	T := slices.Clone(sys.fixT)
	for _, id := range sys.free {
		T[id] = T0
	}
	b, power, f := make([]float64, len(sys.free)), n.powers(), sys.f.Clone()

	res := &TransientResult{T: make(map[string][]float64, len(T))}
	record := func(tm float64) {
		res.Times = append(res.Times, tm)
		for id, nd := range n.nodes {
			res.T[nd.name] = append(res.T[nd.name], T[id])
		}
	}
	record(0)

	stop := robust.Stop(ctx)
	for step := 1; step <= steps; step++ {
		if stop != nil && stop() {
			return nil, fmt.Errorf("thermal: network transient %w after %d steps", linalg.ErrStopped, step-1)
		}
		tm := float64(step) * dt
		// Update scheduled ambient temperatures.
		for id, nd := range n.nodes {
			if fn := schedule[nd.name]; nd.pinned && fn != nil {
				t := fn(tm)
				if math.IsNaN(t) || math.IsInf(t, 0) {
					return nil, fmt.Errorf("thermal: schedule pins node %q to non-finite temperature %g K at t=%.1f s", nd.name, t, tm)
				}
				sys.fixT[id] = t
			}
		}
		// Refresh variable resistances from the previous state.
		for i, e := range n.resistors {
			if e.fn == nil {
				continue
			}
			q := (T[e.a] - T[e.b]) / rs[i]
			rNew := e.fn(T[e.a], T[e.b], q)
			if rNew <= 0 || math.IsNaN(rNew) || math.IsInf(rNew, 0) {
				return nil, fmt.Errorf("thermal: variable resistor %d invalid at t=%.1f s", i, tm)
			}
			rs[i] = rNew
		}
		if err := sys.solve(f, b, power, rs, T, dt, T); err != nil {
			return nil, fmt.Errorf("thermal: network transient step %d: %w", step, err)
		}
		record(tm)
	}
	return res, nil
}

// TimeConstant returns the dominant RC time constant of a node: its
// capacitance times the parallel resistance of its attachments (frozen at
// the seed values) — a quick estimate for choosing transient step sizes.
func (n *Network) TimeConstant(name string) (float64, error) {
	id, ok := n.names[name]
	if !ok {
		return 0, fmt.Errorf("thermal: unknown node %q", name)
	}
	c := n.nodes[id].c
	if c <= 0 {
		return 0, fmt.Errorf("thermal: node %q has no capacitance", name)
	}
	g := 0.0
	for _, e := range n.resistors {
		if e.a == id || e.b == id {
			g += 1 / e.r
		}
	}
	if g == 0 {
		return 0, fmt.Errorf("thermal: node %q has no resistive attachments", name)
	}
	return c / g, nil
}
