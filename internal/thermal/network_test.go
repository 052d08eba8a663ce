package thermal

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"aeropack/internal/units"
)

func TestNetworkSeriesDivider(t *testing.T) {
	// junction -R1- mid -R2- ambient, source at junction.
	n := NewNetwork()
	if err := n.AddResistor("junction", "mid", 2); err != nil {
		t.Fatal(err)
	}
	if err := n.AddResistor("mid", "ambient", 3); err != nil {
		t.Fatal(err)
	}
	n.AddSource("junction", 10)
	n.FixT("ambient", 300)
	res, err := n.SolveSteady(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	almost(t, res.T["junction"], 300+10*5, 1e-9, "junction T")
	almost(t, res.T["mid"], 300+10*3, 1e-9, "mid T")
	almost(t, n.FlowBetween(res, "junction", "mid"), 10, 1e-9, "series flow")
}

func TestNetworkParallelPaths(t *testing.T) {
	// Two parallel resistances 4 and 4 → effective 2.
	n := NewNetwork()
	n.AddResistor("chip", "sink", 4)
	n.AddResistor("chip", "sink", 4)
	n.AddSource("chip", 8)
	n.FixT("sink", 320)
	res, err := n.SolveSteady(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	almost(t, res.T["chip"], 320+8*2, 1e-9, "parallel chip T")
	almost(t, n.FlowBetween(res, "chip", "sink"), 8, 1e-9, "total parallel flow")
}

func TestNetworkFlowConservation(t *testing.T) {
	// At every interior node, inflow = outflow.
	n := NewNetwork()
	n.AddResistor("a", "b", 1)
	n.AddResistor("b", "c", 2)
	n.AddResistor("b", "d", 3)
	n.AddResistor("c", "d", 4)
	n.AddSource("a", 5)
	n.FixT("d", 300)
	res, err := n.SolveSteady(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	inB := n.FlowBetween(res, "a", "b")
	outB := n.FlowBetween(res, "b", "c") + n.FlowBetween(res, "b", "d")
	almost(t, inB, outB, 1e-9, "node b conservation")
	almost(t, inB, 5, 1e-9, "all source power through b")
}

func TestNetworkMultipleFixed(t *testing.T) {
	// Heat flows between two fixed nodes through a resistor chain.
	n := NewNetwork()
	n.AddResistor("hot", "mid", 1)
	n.AddResistor("mid", "cold", 1)
	n.FixT("hot", 400)
	n.FixT("cold", 300)
	res, err := n.SolveSteady(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	almost(t, res.T["mid"], 350, 1e-9, "midpoint of divider")
	almost(t, n.FlowBetween(res, "hot", "mid"), 50, 1e-9, "divider flow")
}

func TestNetworkVariableResistor(t *testing.T) {
	// Natural-convection-like film: R ∝ ΔT^(−1/4).  Solve and verify the
	// fixed point satisfies the nonlinear relation.
	n := NewNetwork()
	const C = 5.0 // R = C/ΔT^0.25
	n.AddVariableResistor("plate", "air", 2, func(Ta, Tb, Q float64) float64 {
		dT := math.Max(0.1, Ta-Tb)
		return C / math.Pow(dT, 0.25)
	})
	n.AddSource("plate", 20)
	n.FixT("air", 300)
	res, err := n.SolveSteady(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dT := res.T["plate"] - 300
	// Fixed point: dT = Q·R(dT) = 20·C/dT^0.25 → dT^1.25 = 100.
	want := math.Pow(20*C, 1/1.25)
	almost(t, dT, want, 1e-3, "nonlinear film fixed point")
	if res.Iterations < 2 {
		t.Error("variable resistor should need >1 Picard pass")
	}
}

func TestNetworkVariableResistorInvalid(t *testing.T) {
	n := NewNetwork()
	n.AddVariableResistor("a", "b", 1, func(Ta, Tb, Q float64) float64 { return -1 })
	n.AddSource("a", 1)
	n.FixT("b", 300)
	if _, err := n.SolveSteady(context.Background()); err == nil {
		t.Fatal("invalid variable resistance should error")
	}
}

func TestNetworkErrors(t *testing.T) {
	n := NewNetwork()
	if _, err := n.SolveSteady(context.Background()); err == nil {
		t.Error("empty network should error")
	}
	n.AddResistor("a", "b", 1)
	if _, err := n.SolveSteady(context.Background()); err == nil {
		t.Error("network without fixed node should error")
	}
	if err := n.AddResistor("a", "a", 1); err == nil {
		t.Error("self loop should error")
	}
	if err := n.AddResistor("a", "b", -2); err == nil {
		t.Error("negative resistance should error")
	}
	if err := n.AddVariableResistor("a", "b", 0, nil); err == nil {
		t.Error("bad variable resistor should error")
	}
	n.FixT("b", 300)
	n.AddNode("orphan")
	if _, err := n.SolveSteady(context.Background()); err == nil {
		t.Error("floating node should error")
	}
}

func TestNetworkSourceAccumulation(t *testing.T) {
	n := NewNetwork()
	n.AddResistor("x", "amb", 1)
	n.AddSource("x", 3)
	n.AddSource("x", 4)
	n.FixT("amb", 300)
	if n.NodePower("x") != 7 {
		t.Errorf("NodePower = %v", n.NodePower("x"))
	}
	if n.NodePower("nope") != 0 {
		t.Error("unknown node power should be 0")
	}
	res, err := n.SolveSteady(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	almost(t, res.T["x"], 307, 1e-9, "accumulated sources")
}

func TestSeriesResistanceHelper(t *testing.T) {
	// Die-attach stack: 1 mm Al (k=200) + TIM interface 5 K·mm²/W over 1 cm².
	area := 1e-4
	r, err := SeriesResistance(area,
		[][2]float64{{1e-3, 200}},
		[]float64{units.KMm2PerW(5)},
	)
	if err != nil {
		t.Fatal(err)
	}
	want := 1e-3/(200*area) + 5e-6/area
	almost(t, r, want, 1e-12, "series stack")

	if _, err := SeriesResistance(0, nil, nil); err == nil {
		t.Error("zero area should error")
	}
	if _, err := SeriesResistance(1, [][2]float64{{1, -1}}, nil); err == nil {
		t.Error("bad layer should error")
	}
	if _, err := SeriesResistance(1, nil, []float64{-1}); err == nil {
		t.Error("negative interface should error")
	}
}

func TestNetworkNodesListing(t *testing.T) {
	n := NewNetwork()
	n.AddResistor("b", "a", 1)
	n.FixT("a", 300)
	nodes := n.Nodes()
	if len(nodes) != 2 || nodes[0] != "b" || nodes[1] != "a" {
		t.Errorf("Nodes = %v", nodes)
	}
	sorted := n.SortedNodeNames()
	if sorted[0] != "a" || sorted[1] != "b" {
		t.Errorf("SortedNodeNames = %v", sorted)
	}
}

func TestNetworkCapacitance(t *testing.T) {
	n := NewNetwork()
	n.SetCapacitance("mass", 50)
	if id := n.AddNode("mass"); n.nodes[id].c != 50 {
		t.Error("capacitance not stored")
	}
}

func TestNetworkChainProperty(t *testing.T) {
	// Property (testing/quick): for a random series chain of resistors
	// with a single source, the junction temperature is exactly
	// T_amb + P·ΣR and every element carries the full power.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := NewNetwork()
		nLinks := 2 + rng.Intn(8)
		sum := 0.0
		prev := "n0"
		for i := 1; i <= nLinks; i++ {
			r := 0.1 + rng.Float64()*5
			sum += r
			cur := fmt.Sprintf("n%d", i)
			if err := n.AddResistor(prev, cur, r); err != nil {
				return false
			}
			prev = cur
		}
		p := 0.5 + rng.Float64()*50
		n.AddSource("n0", p)
		n.FixT(prev, 300)
		res, err := n.SolveSteady(context.Background())
		if err != nil {
			return false
		}
		if !units.ApproxEqual(res.T["n0"], 300+p*sum, 1e-6) {
			return false
		}
		for _, q := range res.Flow {
			if !units.ApproxEqual(q, p, 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNetworkParallelProperty(t *testing.T) {
	// Property: k random parallel resistors between source and sink give
	// T = T_amb + P/(Σ 1/Rᵢ) with flows splitting ∝ 1/Rᵢ.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := NewNetwork()
		k := 2 + rng.Intn(6)
		gsum := 0.0
		rs := make([]float64, k)
		for i := 0; i < k; i++ {
			rs[i] = 0.2 + rng.Float64()*8
			gsum += 1 / rs[i]
			if err := n.AddResistor("hot", "amb", rs[i]); err != nil {
				return false
			}
		}
		p := 1 + rng.Float64()*30
		n.AddSource("hot", p)
		n.FixT("amb", 290)
		res, err := n.SolveSteady(context.Background())
		if err != nil {
			return false
		}
		dT := res.T["hot"] - 290
		if !units.ApproxEqual(dT, p/gsum, 1e-6) {
			return false
		}
		for i, q := range res.Flow {
			if !units.ApproxEqual(q, dT/rs[i], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestNetworkRejectsNonFiniteInputs: a non-finite source, pinned
// temperature or capacitance fails the solve with an error that names
// the node, instead of returning NaN temperatures with a nil error.
func TestNetworkRejectsNonFiniteInputs(t *testing.T) {
	base := func() *Network {
		n := NewNetwork()
		n.SetCapacitance("chip", 10)
		n.AddResistor("chip", "amb", 2)
		n.AddSource("chip", 5)
		n.FixT("amb", 300)
		return n
	}
	cases := []struct {
		name string
		edit func(*Network)
		want string
	}{
		{"NaN source", func(n *Network) { n.AddSource("chip", math.NaN()) }, `thermal: node "chip" has non-finite source NaN W`},
		{"Inf pinned temperature", func(n *Network) { n.FixT("amb", math.Inf(1)) }, `thermal: node "amb" is pinned to non-finite temperature +Inf K`},
		{"NaN capacitance", func(n *Network) { n.SetCapacitance("chip", math.NaN()) }, `thermal: node "chip" has invalid capacitance NaN J/K (want finite, ≥ 0)`},
		{"negative capacitance", func(n *Network) { n.SetCapacitance("chip", -1) }, `thermal: node "chip" has invalid capacitance -1 J/K (want finite, ≥ 0)`},
	}
	for _, c := range cases {
		n := base()
		c.edit(n)
		if _, err := n.SolveSteady(context.Background()); err == nil || err.Error() != c.want {
			t.Errorf("%s: steady err = %v, want %q", c.name, err, c.want)
		}
		if _, err := n.SolveTransient(context.Background(), 300, 1, 5, nil); err == nil || err.Error() != c.want {
			t.Errorf("%s: transient err = %v, want %q", c.name, err, c.want)
		}
	}
	n := base()
	inf := map[string]func(float64) float64{"amb": func(float64) float64 { return math.Inf(-1) }}
	if _, err := n.SolveTransient(context.Background(), 300, 1, 5, inf); err == nil || !strings.Contains(err.Error(), `node "amb" to non-finite temperature -Inf K`) {
		t.Errorf("non-finite schedule: err = %v, want it named", err)
	}
	if _, err := n.SolveTransient(context.Background(), math.NaN(), 1, 5, nil); err == nil {
		t.Error("NaN initial temperature accepted")
	}
	if err := n.AddVariableResistor("chip", "amb", math.NaN(), func(_, _, _ float64) float64 { return 1 }); err == nil {
		t.Error("NaN variable-resistor seed accepted")
	}
}

// TestNetworkFloatingIsland: a group of free nodes with no resistor path
// to a pinned node makes the steady problem singular, and the error
// names the group.  In a transient a capacitance in the group anchors
// it.
func TestNetworkFloatingIsland(t *testing.T) {
	n := NewNetwork()
	n.AddResistor("chip", "amb", 2)
	n.FixT("amb", 300)
	n.AddResistor("y", "x", 2)
	n.AddSource("x", 5)
	const steady = `thermal: floating island "x", "y": no resistor path to a fixed-temperature node`
	if _, err := n.SolveSteady(context.Background()); err == nil || err.Error() != steady {
		t.Errorf("steady err = %v, want %q", err, steady)
	}
	if _, err := n.SolveTransient(context.Background(), 300, 1, 5, nil); err == nil || err.Error() != steady+" and no capacitance" {
		t.Errorf("transient err = %v, want %q", err, steady+" and no capacitance")
	}
	n.SetCapacitance("y", 50)
	res, err := n.SolveTransient(context.Background(), 300, 1, 5, nil)
	if err != nil {
		t.Fatalf("island anchored by a capacitance: %v", err)
	}
	// The island's 5 W heats its 50 J/K for 5 s; the massless x follows.
	if got := res.Final()["y"]; math.Abs(got-300.5) > 1e-12 {
		t.Errorf("island y after 5 s = %v, want 300.5", got)
	}

	big := NewNetwork()
	big.FixT("amb", 300)
	big.AddResistor("amb", "tied", 1)
	for i := 0; i < 10; i++ {
		big.AddResistor(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1), 1)
	}
	want := `thermal: floating island "n0", "n1", "n10", "n2", "n3", "n4", "n5", "n6" and 3 more: no resistor path to a fixed-temperature node`
	if _, err := big.SolveSteady(context.Background()); err == nil || err.Error() != want {
		t.Errorf("11-node island err = %v, want %q", err, want)
	}
}

// TestNetworkZeroPivotNamesNode: a network that passes the island check
// can still be numerically singular — a 1e300 K/W tie to the pinned
// node vanishes beside a 1 K/W resistor — and the factorization's zero
// pivot is an error that names the node.
func TestNetworkZeroPivotNamesNode(t *testing.T) {
	n := NewNetwork()
	n.FixT("amb", 300)
	n.AddResistor("amb", "a", 1e300)
	n.AddResistor("a", "b", 1)
	n.AddSource("b", 1)
	const want = `thermal: network node "b": linalg: LDLᵀ pivot 0 at unknown 1 (matrix not positive definite)`
	if _, err := n.SolveSteady(context.Background()); err == nil || err.Error() != want {
		t.Errorf("err = %v, want %q", err, want)
	}
}

// TestNetworkLevel3Scale: a forced-air level-3 network of 10,000
// components — a junction and a case node each, tied to a pinned board
// node and the pinned air — solves with the bytes it allocates per node
// under a constant.  A dense n×n path over its 20,000 free nodes would
// need gigabytes.
func TestNetworkLevel3Scale(t *testing.T) {
	const comps = 10000
	n := NewNetwork()
	n.FixT("air", 320)
	for i := 0; i < comps; i++ {
		j, cs, board := fmt.Sprintf("U%d.j", i), fmt.Sprintf("U%d.case", i), fmt.Sprintf("board.U%d", i)
		n.FixT(board, 330+float64(i%7))
		n.AddResistor(j, board, 8)
		n.AddResistor(j, board, 20)
		n.AddResistor(j, cs, 0.5)
		n.AddResistor(cs, "air", 40)
		n.AddSource(j, 1+0.2*float64(i%5))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := n.SolveSteady(context.Background())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perNode := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(n.Nodes()))
	t.Logf("%d nodes: %.0f bytes allocated per node", len(n.Nodes()), perNode)
	if perNode > 1024 {
		t.Errorf("steady solve allocated %.0f bytes per node, budget 1024 — is a dense path back?", perNode)
	}
	for _, i := range []int{0, 4711, comps - 1} {
		gBoard, gAir := 1/8.0+1/20.0, 1/(0.5+40)
		tb, p := 330+float64(i%7), 1+0.2*float64(i%5)
		want := (p + gBoard*tb + gAir*320) / (gBoard + gAir)
		almost(t, res.T[fmt.Sprintf("U%d.j", i)], want, 1e-9, "junction T")
	}
}
