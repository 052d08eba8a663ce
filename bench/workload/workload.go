// Package workload generates the seeded request streams that
// aeropackbench sends to aeropackd.  A stream is a pure function of
// (workload, seed, count): the same triple always yields byte-identical
// bodies, so the parent commit and a change serve the same requests.
//
// Continuous properties (board size, part count, cooling split, sweep
// length, grid size) are drawn stratified within each of the Parts
// stretches of a stream, so every stretch and every seed covers the same
// distribution, and the spread of the metrics comes from the run rather
// than from a lucky draw of large boards.
package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"aeropack/internal/serve"
)

// Workload names.
const (
	BoardLinear    = "board-linear"
	BoardRadiating = "board-radiating"
	CoseeCold      = "cosee-cold"
	ServeMixed     = "serve-mixed"
)

// Spec sizes one workload.
type Spec struct {
	Name string
	// PerSecond is the number of measured requests per second of run
	// length.  It was calibrated on the seed commit so that a run lasts
	// as long as asked there, or up to a quarter longer while that shared
	// host ran slow; the count, not the duration, is then fixed, so a
	// faster program finishes the same sequence sooner.
	PerSecond float64
	// Replay is how many leading bodies of the measured sequence the
	// traced replay runs, sized to keep a traced run within a few seconds
	// of an untraced one.
	Replay int
}

// Specs lists the workloads in run order.
var Specs = []Spec{
	{Name: BoardLinear, PerSecond: 40, Replay: 24},
	{Name: BoardRadiating, PerSecond: 18, Replay: 4},
	{Name: CoseeCold, PerSecond: 2000, Replay: 100},
	{Name: ServeMixed, PerSecond: 15000, Replay: 100},
}

// Lookup returns the spec of the named workload.
func Lookup(name string) (Spec, error) {
	for _, s := range Specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("workload: unknown workload %q", name)
}

// Request is one generated study request.
type Request struct {
	Kind string
	Body []byte
	// SHA256 is the hex digest of Body, which a correct response echoes
	// as request_sha256.
	SHA256 string
	// Pair marks a body sent on both connections at once, so that the
	// second may be answered by aeropackd's singleflight dedup.  It counts
	// as two requests.
	Pair bool
}

// Set is one workload's generated traffic.
type Set struct {
	// Warmup runs after aeropackd is healthy and before the measured
	// window.  For serve-mixed it is the hot pool, so the pool is cached
	// before the first replay.
	Warmup []Request
	// Measured is the timed sequence, in send order.
	Measured []Request
}

// Requests counts the HTTP requests Measured sends (a pair sends two).
func (s *Set) Requests() int {
	n := len(s.Measured)
	for _, r := range s.Measured {
		if r.Pair {
			n++
		}
	}
	return n
}

// Parts is the number of consecutive stretches of equal length that the
// benchmark cuts a measured sequence into, reporting the median over
// them so that a noisy neighbour slowing a few stretches does not move
// the result.  The generators stratify within each stretch, so every
// stretch carries nearly the same work.
const Parts = 20

// maxCount caps the measured items of one stream; it bounds the memory
// a mistyped count can make the generator and the clients allocate.
const maxCount = 2_000_000

// Generate builds the named workload's warm-up and measured streams for
// seed, with n measured items (clamped to [1, maxCount]).
func Generate(name string, seed int64, n int) (*Set, error) {
	n = min(max(n, 1), maxCount)
	block := (n + Parts - 1) / Parts
	warm := max(16, n/50)
	// The warm-up stream draws from its own generator, so its bodies are
	// distinct from the measured ones and never turn a measured request
	// into a cache hit.
	warmSeed := seed ^ 0x3c6ef372fe94f82a
	switch name {
	case BoardLinear, BoardRadiating:
		radiating := name == BoardRadiating
		return &Set{
			Warmup:   boards(warmSeed, warm, warm, radiating, "warm"),
			Measured: boards(seed, n, block, radiating, "m"),
		}, nil
	case CoseeCold:
		return &Set{
			Warmup:   coseeStream(warmSeed, warm, warm, "warm"),
			Measured: coseeStream(seed, n, block, "m"),
		}, nil
	case ServeMixed:
		pool := Pool(seed)
		return &Set{Warmup: pool, Measured: mixedStream(seed, n, block, pool)}, nil
	}
	return nil, fmt.Errorf("workload: unknown workload %q", name)
}

// strata draws stratified uniforms: in every block of consecutive
// draws exactly one value falls in each of block equal sub-intervals of
// [0, 1), in random order.
type strata struct {
	rng   *rand.Rand
	block int
	perm  []int
	i     int
}

func newStrata(rng *rand.Rand, block int) *strata { return &strata{rng: rng, block: block} }

func (s *strata) next() float64 {
	if s.i%s.block == 0 {
		s.perm = s.rng.Perm(s.block)
	}
	u := (float64(s.perm[s.i%s.block]) + s.rng.Float64()) / float64(s.block)
	s.i++
	return u
}

// between maps a uniform u onto [lo, hi], rounded to the given number
// of decimals (dividing by a power of ten keeps the JSON short).
func between(u, lo, hi float64, decimals int) float64 {
	p := math.Pow10(decimals)
	return math.Round((lo+u*(hi-lo))*p) / p
}

func request(kind string, v *serve.StudyRequest) Request {
	v.Kind = kind
	// Marshal cannot fail: the request types hold only strings, finite
	// numbers, bools and slices of them.
	body, _ := json.Marshal(v)
	sum := sha256.Sum256(body)
	return Request{Kind: kind, Body: body, SHA256: hex.EncodeToString(sum[:])}
}

// generous is a wall-clock budget no request of these workloads comes
// near.  A budgeted request polls it on every solver iteration and is
// never cached, so it is computed every time it is sent.
func generous(i int) *serve.Budget {
	return &serve.Budget{MaxWallMs: int64(time.Minute/time.Millisecond) + int64(i)}
}

// BoardPackages are the compact packages the board generator places.
var BoardPackages = []string{"QFP100", "QFP208", "BGA256", "BGA676", "FCBGA-CPU"}

// packageMM holds the body size of each of BoardPackages, in mm, so
// that every part is placed wholly on its board.
var packageMM = map[string][2]float64{
	"QFP100": {14, 14}, "QFP208": {28, 28}, "BGA256": {17, 17},
	"BGA676": {27, 27}, "FCBGA-CPU": {35, 35},
}

// PackageMM returns the body length and width of a BoardPackages entry.
func PackageMM(name string) (l, w float64, ok bool) {
	d, ok := packageMM[name]
	return d[0], d[1], ok
}

// boardGen draws board studies.  Linear boards are 100–230 × 80–230 mm,
// conduction or forced-air cooled: one FV solve each.  Radiating boards
// are free-convection and 50–110 mm a side: their radiation boundary
// makes level 2 a Picard loop of about a dozen FV solves, and the
// smaller boards keep a run at 400 or more requests.
type boardGen struct {
	rng                        *rand.Rand
	length, width, parts, cool *strata
	radiating                  bool
	tag                        string
}

func newBoardGen(seed int64, block int, radiating bool, tag string) *boardGen {
	rng := rand.New(rand.NewSource(seed))
	return &boardGen{
		rng:    rng,
		length: newStrata(rng, block), width: newStrata(rng, block),
		parts: newStrata(rng, block), cool: newStrata(rng, block),
		radiating: radiating, tag: tag,
	}
}

func (g *boardGen) board(i int) *serve.BoardSpec {
	rng := g.rng
	b := &serve.BoardSpec{Name: fmt.Sprintf("%s-%d", g.tag, i)}
	if g.radiating {
		b.LengthMM = between(g.length.next(), 50, 110, 1)
		b.WidthMM = between(g.width.next(), 50, 110, 1)
		b.Cooling = "free-convection"
		b.ScreenAmbientC = between(rng.Float64(), 20, 55, 1)
	} else {
		b.LengthMM = between(g.length.next(), 100, 230, 1)
		b.WidthMM = between(g.width.next(), 80, 230, 1)
		if g.cool.next() < 0.5 {
			b.Cooling = "conduction"
			b.RailC = between(rng.Float64(), 20, 55, 1)
		} else {
			b.Cooling = "forced-air"
			b.ChannelH = between(rng.Float64(), 25, 90, 1)
			b.ChannelAirC = between(rng.Float64(), 25, 55, 1)
		}
	}
	b.ThicknessMM = []float64{1.6, 2.0, 2.4}[rng.Intn(3)]
	b.Copper.Layers = 4 + rng.Intn(9)
	b.Copper.Oz = []float64{0.5, 1, 2}[rng.Intn(3)]
	b.Copper.Coverage = between(rng.Float64(), 0.4, 0.8, 2)
	b.MassLoad = between(rng.Float64(), 0, 4, 1)
	parts := 2 + int(g.parts.next()*6)
	for p := 0; p < parts; p++ {
		pkg := BoardPackages[rng.Intn(len(BoardPackages))]
		l, w, _ := PackageMM(pkg)
		b.Components = append(b.Components, serve.ComponentSpec{
			RefDes:  fmt.Sprintf("U%d", p+1),
			Package: pkg,
			PowerW:  between(rng.Float64(), 0.5, 5.5, 2),
			// One millimetre of keep-out at the board edge.
			XMM: between(rng.Float64(), l/2+1, b.LengthMM-l/2-1, 1),
			YMM: between(rng.Float64(), w/2+1, b.WidthMM-w/2-1, 1),
		})
	}
	return b
}

// boards draws n board studies, stratified in blocks.  Every other one
// carries a generous budget, so the budget path is on the measured path.
func boards(seed int64, n, block int, radiating bool, tag string) []Request {
	g := newBoardGen(seed, block, radiating, tag)
	out := make([]Request, n)
	for i := range out {
		req := &serve.StudyRequest{Study: g.board(i)}
		if i%2 == 1 {
			req.Budget = generous(i)
		}
		out[i] = request("study", req)
	}
	return out
}

// Fig10Structures are the seat structures the Fig. 10 bodies use: the
// bare aluminium alloys, for which the paper's E5 headline bands hold
// (anodized Al6061 radiates enough to lift the LHP capability past the
// band).  The empty name is the request with no fig10 section, which
// defaults to Al6061.
var Fig10Structures = []string{"", "Al6061", "Al7075"}

// TIMs are the interface materials the COSEE bodies choose from.
var TIMs = []string{
	"grease-standard", "pad-gap-filler", "epoxy-standard", "solder-indium",
	"nanopack-Ag-flake-mono", "nanopack-Ag-sphere-multi", "nanopack-CNT-composite",
	"perfect", "bare-contact",
}

func fig10(structure string, budget *serve.Budget) Request {
	req := &serve.StudyRequest{Budget: budget}
	if structure != "" {
		req.Fig10 = &serve.Fig10Spec{Structure: structure}
	}
	return request("fig10", req)
}

// coseeGen draws COSEE sweeps and qualification articles.
type coseeGen struct {
	rng    *rand.Rand
	points *strata
	tag    string
}

func (g *coseeGen) spec() serve.CoseeSpec {
	rng := g.rng
	return serve.CoseeSpec{
		UseLHP:   rng.Intn(2) == 0,
		TiltDeg:  between(rng.Float64(), 0, 30, 1),
		AmbientC: between(rng.Float64(), 15, 40, 1),
		TIM:      TIMs[rng.Intn(len(TIMs))],
	}
}

// sweep is a unique 4–16 point ΔT(P) curve.
func (g *coseeGen) sweep() Request {
	sp := &serve.SweepSpec{CoseeSpec: g.spec()}
	k := 4 + int(g.points.next()*13)
	for j := 0; j < k; j++ {
		sp.PowersW = append(sp.PowersW, between(g.rng.Float64(), 10, 110, 1))
	}
	return request("sweep", &serve.StudyRequest{Sweep: sp})
}

// qualification is the COSEE seat box as a qualification article at a
// random power and cabin ambient, on the base or extended campaign.
func (g *coseeGen) qualification(i int) Request {
	rng := g.rng
	q := &serve.QualSpec{Extended: rng.Intn(2) == 0, Article: serve.ArticleSpec{
		Name:   fmt.Sprintf("seb-%s-%d", g.tag, i),
		MassKg: 3.5, MountFnHz: 180, DampingZeta: 0.05,
		MountAreaM2: 1e-4, MountYieldPa: 8e7,
		BoardSpanM: 0.25, BoardThkM: 0.002, CompLenM: 0.025,
		CompConst: 1, PosFactor: 1, FatigueExpB: 6.4,
		PowerW:    between(rng.Float64(), 20, 90, 1),
		MaxPointC: 85, MinStartC: -20,
		ShockCycles: 100, JointDTFactor: 0.6,
		Cosee: serve.CoseeSpec{UseLHP: true, AmbientC: between(rng.Float64(), 15, 40, 1)},
	}}
	return request("qualification", &serve.StudyRequest{Qualification: q})
}

// coseeDeck is the kind mix of cosee-cold, repeated and shuffled in
// blocks of its length: per 25 requests, 12 sweeps, 12 qualifications
// and one Fig. 10 study.
var coseeDeck = func() []string {
	d := []string{"fig10"}
	for i := 0; i < 12; i++ {
		d = append(d, "sweep", "qualification")
	}
	return d
}()

// coseeStream draws n cold COSEE requests, stratified in blocks.  Sweeps
// and qualifications are unique bodies; Fig. 10 bodies carry a generous
// budget, so none of them is answered from the cache.
func coseeStream(seed int64, n, block int, tag string) []Request {
	rng := rand.New(rand.NewSource(seed))
	g := &coseeGen{rng: rng, points: newStrata(rng, block), tag: tag}
	deck := append([]string(nil), coseeDeck...)
	out := make([]Request, n)
	for i := range out {
		if i%len(deck) == 0 {
			rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		switch deck[i%len(deck)] {
		case "sweep":
			out[i] = g.sweep()
		case "qualification":
			out[i] = g.qualification(i)
		default:
			out[i] = fig10(Fig10Structures[i%len(Fig10Structures)], generous(i))
		}
	}
	return out
}

// techmapGen draws technology-map grids.
type techmapGen struct {
	rng        *rand.Rand
	rows, cols *strata
}

// next draws a grid of 2–5 powers by 2–5 fluxes.
func (g *techmapGen) next() Request {
	rng := g.rng
	tm := &serve.TechMapSpec{AmbientC: between(rng.Float64(), 40, 71, 1)}
	for j, k := 0, 2+int(g.rows.next()*4); j < k; j++ {
		tm.PowersW = append(tm.PowersW, between(rng.Float64(), 5, 500, 1))
	}
	for j, k := 0, 2+int(g.cols.next()*4); j < k; j++ {
		tm.FluxesWCm2 = append(tm.FluxesWCm2, between(rng.Float64(), 0.5, 60, 2))
	}
	return request("techmap", &serve.StudyRequest{TechMap: tm})
}

// PoolSize is the number of bodies in serve-mixed's hot pool.
const PoolSize = 64

// poolKinds fixes the kind at each popularity rank of the hot pool, so
// every seed puts the same kinds at the same ranks and only the bodies
// differ: 8 board studies, every Fig. 10 structure, and sweeps,
// qualifications and technology maps for the rest.
var poolKinds = func() []string {
	quota := map[string]int{"study": 8, "fig10": len(Fig10Structures)}
	rest := PoolSize - quota["study"] - quota["fig10"]
	quota["sweep"] = rest - 2*(rest/3)
	quota["qualification"] = rest / 3
	quota["techmap"] = rest / 3
	cycle := []string{"sweep", "study", "techmap", "qualification", "fig10"}
	var out []string
	for len(out) < PoolSize {
		for _, k := range cycle {
			if quota[k] > 0 {
				quota[k]--
				out = append(out, k)
			}
		}
	}
	return out
}()

// Pool returns serve-mixed's hot pool for seed, in popularity order.
// The bodies are unbudgeted, so once sent they are cached.
func Pool(seed int64) []Request {
	rng := rand.New(rand.NewSource(seed ^ 0x1b873593a4c0ee15))
	bg := newBoardGen(rng.Int63(), 8, false, "pool")
	cg := &coseeGen{rng: rng, points: newStrata(rng, PoolSize), tag: "pool"}
	tg := &techmapGen{rng: rng, rows: newStrata(rng, PoolSize), cols: newStrata(rng, PoolSize)}
	out := make([]Request, 0, PoolSize)
	var nStudy, nFig10 int
	for i, kind := range poolKinds {
		switch kind {
		case "study":
			out = append(out, request("study", &serve.StudyRequest{Study: bg.board(nStudy)}))
			nStudy++
		case "fig10":
			out = append(out, fig10(Fig10Structures[nFig10], nil))
			nFig10++
		case "sweep":
			out = append(out, cg.sweep())
		case "qualification":
			out = append(out, cg.qualification(i))
		default:
			out = append(out, tg.next())
		}
	}
	return out
}

// mixedDeck is serve-mixed's item mix per 40 requests: 30 Zipf replays
// of the pool (cache reads), 8 unique technology maps (cache writes) and
// one pair of identical new maps sent at once, shuffled per deck.  The
// second twin is a dedup when it reaches aeropackd while the first is
// in flight, and a cache hit when it arrives after.
var mixedDeck = func() []string {
	d := []string{"pair"}
	for i := 0; i < 30; i++ {
		d = append(d, "replay")
	}
	for i := 0; i < 8; i++ {
		d = append(d, "techmap")
	}
	return d
}()

// mixedStream draws n serve-mixed items over pool, stratified in blocks.
func mixedStream(seed int64, n, block int, pool []Request) []Request {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(pool)-1))
	tg := &techmapGen{rng: rng, rows: newStrata(rng, block), cols: newStrata(rng, block)}
	deck := append([]string(nil), mixedDeck...)
	out := make([]Request, n)
	for i := range out {
		if i%len(deck) == 0 {
			rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		switch deck[i%len(deck)] {
		case "replay":
			out[i] = pool[zipf.Uint64()]
		case "techmap":
			out[i] = tg.next()
		default:
			r := tg.next()
			r.Pair = true
			out[i] = r
		}
	}
	return out
}
