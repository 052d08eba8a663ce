// Package serve is the aeropackd study server: an HTTP/JSON façade over
// the co-design engines (cosee Fig. 10, power sweeps, the level-1
// technology map, the qualification campaign and the full board study)
// with a content-hash result cache, singleflight deduplication of
// concurrent identical requests, admission control over the worker pool
// and one context.Context per computation: it carries the request's
// solver budget (the max_wall_ms deadline and the max_solver_iters poll
// budget) from the handler down to the solvers, which poll it through
// robust.Stop, and it is canceled once no client waits for the answer.
//
// The wire contract is deliberately bitwise-deterministic: the response
// body for a given request body is a pure function of its bytes, so the
// cache can replay stored bodies verbatim and dedup followers can share
// the leader's buffer.  Anything request-specific but non-deterministic
// (cache status, job identity) travels in headers, never in the body.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"aeropack/internal/compact"
	"aeropack/internal/core"
	"aeropack/internal/cosee"
	"aeropack/internal/envtest"
	"aeropack/internal/linalg"
	"aeropack/internal/materials"
	"aeropack/internal/robust"
	"aeropack/internal/units"
)

// Schema identifiers for the wire formats.  Versioned like
// aeropack-bench/v1 so future incompatible changes bump the suffix
// instead of silently changing field meaning.
const (
	RequestSchema  = "aeropack-study-request/v1"
	ResponseSchema = "aeropack-study-response/v1"
	ErrorSchema    = "aeropack-error/v1"
	JobSchema      = "aeropack-job/v1"
)

// Budget bounds one request's compute.  Both limits are optional; zero
// means unlimited.  executeStudy turns them into the computation's
// context: MaxWallMs becomes its deadline, counted from admission, and
// MaxSolverIters its poll budget (robust.WithPollBudget), which every
// worker of the request draws on.  A solver polls once per CG
// iteration, once per FV Picard pass after the first and once per
// network factorization, that is per Picard pass or transient step, so
// MaxSolverIters caps linear-solver work in whatever unit the study's
// solvers use.  The study entries that take the context are core.Run,
// cosee.Config.Sweep, cosee.RunFig10, envtest.Campaign.Run and
// envtest.Extended.Run.
type Budget struct {
	MaxSolverIters int64 `json:"max_solver_iters,omitempty"`
	MaxWallMs      int64 `json:"max_wall_ms,omitempty"`
}

// context derives the computation's context from ctx: the deadline and
// the poll budget.  The returned cancel releases the deadline's timer.
func (b *Budget) context(ctx context.Context) (context.Context, context.CancelFunc) {
	if b == nil {
		return ctx, func() {}
	}
	cancel := context.CancelFunc(func() {})
	if b.MaxWallMs > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(b.MaxWallMs)*time.Millisecond)
	}
	return robust.WithPollBudget(ctx, b.MaxSolverIters), cancel
}

// CoseeSpec selects one COSEE seat-electronics configuration — the
// common thermal model behind the fig10 sub-studies, the sweep kind and
// the qualification article's ΔT closure.  Zero values take the cosee
// package defaults (aluminium structure, 25 °C cabin, sea level).
type CoseeSpec struct {
	UseLHP          bool    `json:"use_lhp,omitempty"`
	TiltDeg         float64 `json:"tilt_deg,omitempty"`
	Structure       string  `json:"structure,omitempty"`
	AmbientC        float64 `json:"ambient_c,omitempty"`
	TIM             string  `json:"tim,omitempty"`
	CabinAltitudeM  float64 `json:"cabin_altitude_m,omitempty"`
	UseThermosyphon bool    `json:"use_thermosyphon,omitempty"`
}

// config converts the spec into a cosee.Config.  The material lookup
// is the only fallible part.
func (cs *CoseeSpec) config() (cosee.Config, error) {
	c := cosee.Config{
		UseLHP:          cs.UseLHP,
		TiltDeg:         cs.TiltDeg,
		AmbientC:        cs.AmbientC,
		TIMName:         cs.TIM,
		CabinAltitudeM:  cs.CabinAltitudeM,
		UseThermosyphon: cs.UseThermosyphon,
	}
	if cs.Structure != "" {
		m, err := materials.Get(cs.Structure)
		if err != nil {
			return cosee.Config{}, err
		}
		c.Structure = m
	}
	return c, nil
}

// Fig10Spec parameterizes the paper's Fig. 10 comparison study.
type Fig10Spec struct {
	Structure string `json:"structure,omitempty"`
}

// SweepSpec evaluates the ΔT(P) curve of one COSEE configuration.
type SweepSpec struct {
	CoseeSpec
	PowersW []float64 `json:"powers_w"`
}

// EnvelopeSpec is an equipment envelope in millimetres (matching the
// aeropack CLI's spec units).
type EnvelopeSpec struct {
	LMM float64 `json:"l_mm"`
	WMM float64 `json:"w_mm"`
	HMM float64 `json:"h_mm"`
}

// TechMapSpec screens the powers × fluxes grid with the level-1
// technology screen.  AmbientC 0 keeps the DefaultScreen 71 °C worst
// hot case; a nil envelope takes the demo 400×300×200 mm box.
type TechMapSpec struct {
	PowersW    []float64     `json:"powers_w"`
	FluxesWCm2 []float64     `json:"fluxes_w_cm2"`
	AmbientC   float64       `json:"ambient_c,omitempty"`
	Envelope   *EnvelopeSpec `json:"envelope,omitempty"`
}

// ArticleSpec is the qualification article on the wire.  The thermal
// model is a COSEE configuration evaluated at each test's power — the
// same DeltaTAt plumbing the envtest package uses natively.
type ArticleSpec struct {
	Name          string    `json:"name"`
	MassKg        float64   `json:"mass_kg"`
	MountFnHz     float64   `json:"mount_fn_hz"`
	DampingZeta   float64   `json:"damping_zeta"`
	MountAreaM2   float64   `json:"mount_area_m2"`
	MountYieldPa  float64   `json:"mount_yield_pa"`
	BoardSpanM    float64   `json:"board_span_m"`
	BoardThkM     float64   `json:"board_thk_m"`
	CompLenM      float64   `json:"comp_len_m"`
	CompConst     float64   `json:"comp_const"`
	PosFactor     float64   `json:"pos_factor"`
	FatigueExpB   float64   `json:"fatigue_exp_b"`
	PowerW        float64   `json:"power_w"`
	MaxPointC     float64   `json:"max_point_c"`
	MinStartC     float64   `json:"min_start_c"`
	ShockCycles   int       `json:"shock_cycles_required,omitempty"`
	JointDTFactor float64   `json:"joint_dt_factor,omitempty"`
	Cosee         CoseeSpec `json:"cosee"`
}

// QualSpec runs the environmental qualification campaign on an article.
type QualSpec struct {
	Article  ArticleSpec `json:"article"`
	Extended bool        `json:"extended,omitempty"`
}

// ComponentSpec mirrors the aeropack CLI component placement schema.
type ComponentSpec struct {
	RefDes  string  `json:"refdes"`
	Package string  `json:"package"`
	PowerW  float64 `json:"power_w"`
	XMM     float64 `json:"x_mm"`
	YMM     float64 `json:"y_mm"`
}

// BoardSpec mirrors the aeropack CLI's board specification JSON (the
// -spec file) plus the level-1 screen ambient, so a CLI spec file can be
// POSTed to the server wrapped in {"kind":"study","study":{...}}.
type BoardSpec struct {
	Name        string  `json:"name"`
	LengthMM    float64 `json:"length_mm"`
	WidthMM     float64 `json:"width_mm"`
	ThicknessMM float64 `json:"thickness_mm"`
	Copper      struct {
		Layers   int     `json:"layers"`
		Oz       float64 `json:"oz"`
		Coverage float64 `json:"coverage"`
	} `json:"copper"`
	Cooling        string          `json:"cooling,omitempty"`
	RailC          float64         `json:"rail_c,omitempty"`
	ChannelH       float64         `json:"channel_h_w_m2k,omitempty"`
	ChannelAirC    float64         `json:"channel_air_c,omitempty"`
	TargetModeHz   float64         `json:"target_mode_hz,omitempty"`
	MassLoad       float64         `json:"mass_load_kg_m2,omitempty"`
	Components     []ComponentSpec `json:"components"`
	Envelope       *EnvelopeSpec   `json:"envelope,omitempty"`
	ScreenAmbientC float64         `json:"screen_ambient_c,omitempty"`
}

// StudyRequest is the server's input document.  Exactly one of the
// kind-specific sections must be present and must match Kind.
type StudyRequest struct {
	Schema        string       `json:"schema,omitempty"`
	Kind          string       `json:"kind"`
	Async         bool         `json:"async,omitempty"`
	KeepGoing     bool         `json:"keep_going,omitempty"`
	Budget        *Budget      `json:"budget,omitempty"`
	Fig10         *Fig10Spec   `json:"fig10,omitempty"`
	Sweep         *SweepSpec   `json:"sweep,omitempty"`
	TechMap       *TechMapSpec `json:"techmap,omitempty"`
	Qualification *QualSpec    `json:"qualification,omitempty"`
	Study         *BoardSpec   `json:"study,omitempty"`
}

// Kinds the server accepts, in documentation order.
var studyKinds = []string{"fig10", "sweep", "techmap", "qualification", "study"}

// Wire-size caps: a request sizes the solver work and result payload by
// its point lists, so validate() bounds them before any allocation.
// 8k sweep points is half an hour of single-threaded solves — far past
// any legitimate curve — and a 1k×1k techmap grid is a million screen
// cells, two orders past the paper's 6×6 figure.
const (
	maxSweepPoints = 8192
	maxGridDim     = 1000
)

// validate checks structural invariants that do not need any solver
// work, so bad requests are rejected before admission control.  An
// unknown kind gets its own error code (bad_kind) so clients can tell
// "typoed field" from "this server has no such study".
func (r *StudyRequest) validate() *StudyError {
	if r.Schema != "" && r.Schema != RequestSchema {
		return studyErr(400, CodeBadRequest, "serve: unsupported schema %q (want %s)", r.Schema, RequestSchema)
	}
	if r.Budget != nil && (r.Budget.MaxSolverIters < 0 || r.Budget.MaxWallMs < 0) {
		return studyErr(400, CodeBadRequest, "serve: budget limits must be non-negative")
	}
	sections := 0
	for _, present := range []bool{r.Fig10 != nil, r.Sweep != nil,
		r.TechMap != nil, r.Qualification != nil, r.Study != nil} {
		if present {
			sections++
		}
	}
	if sections > 1 {
		return studyErr(400, CodeBadRequest, "serve: request carries %d study sections, want exactly the %q one", sections, r.Kind)
	}
	switch r.Kind {
	case "fig10":
		// A nil Fig10 section is allowed: the kind is fully usable with
		// defaults (aluminium structure).
	case "sweep":
		if r.Sweep == nil {
			return studyErr(400, CodeBadRequest, "serve: kind %q needs a \"sweep\" section", r.Kind)
		}
		if len(r.Sweep.PowersW) == 0 {
			return studyErr(400, CodeBadRequest, "serve: sweep needs at least one power point")
		}
		if len(r.Sweep.PowersW) > maxSweepPoints {
			return studyErr(400, CodeBadRequest, "serve: sweep carries %d power points, the cap is %d", len(r.Sweep.PowersW), maxSweepPoints)
		}
	case "techmap":
		if r.TechMap == nil {
			return studyErr(400, CodeBadRequest, "serve: kind %q needs a \"techmap\" section", r.Kind)
		}
		if len(r.TechMap.PowersW) == 0 || len(r.TechMap.FluxesWCm2) == 0 {
			return studyErr(400, CodeBadRequest, "serve: techmap needs non-empty powers_w and fluxes_w_cm2 grids")
		}
		if len(r.TechMap.PowersW) > maxGridDim || len(r.TechMap.FluxesWCm2) > maxGridDim {
			return studyErr(400, CodeBadRequest, "serve: techmap grid axes are capped at %d points each", maxGridDim)
		}
	case "qualification":
		if r.Qualification == nil {
			return studyErr(400, CodeBadRequest, "serve: kind %q needs a \"qualification\" section", r.Kind)
		}
	case "study":
		if r.Study == nil {
			return studyErr(400, CodeBadRequest, "serve: kind %q needs a \"study\" section", r.Kind)
		}
	default:
		return studyErr(400, CodeBadKind, "serve: unknown study kind %q (want one of %v)", r.Kind, studyKinds)
	}
	return nil
}

// PointErrorJSON is one keep-going point failure on the wire.
type PointErrorJSON struct {
	Index int    `json:"index"`
	Label string `json:"label,omitempty"`
	Error string `json:"error"`
}

// Fig10Result is the Fig. 10 summary with NaN-able fields as pointers:
// encoding/json cannot represent NaN, so a failed sub-study's field is
// null and the failure itself is listed under errors.
type Fig10Result struct {
	CapabilityNoLHPW *float64 `json:"capability_nolhp_w"`
	CapabilityLHPW   *float64 `json:"capability_lhp_w"`
	CapabilityTiltW  *float64 `json:"capability_tilt_w"`
	ImprovementPct   *float64 `json:"improvement_pct"`
	DeltaTNoLHP40WK  *float64 `json:"delta_t_nolhp_40w_k"`
	DeltaTLHP40WK    *float64 `json:"delta_t_lhp_40w_k"`
	CoolingAt40WK    *float64 `json:"cooling_at_40w_k"`
	LHPPowerAt100WW  *float64 `json:"lhp_power_at_100w_w"`
}

// SweepPointJSON is one power point of the ΔT(P) curve.  OK is false
// for keep-going points that failed; their values are null.
type SweepPointJSON struct {
	PowerW    float64  `json:"power_w"`
	DeltaTK   *float64 `json:"delta_t_k"`
	LHPPowerW *float64 `json:"lhp_power_w"`
	OK        bool     `json:"ok"`
}

// TechCellJSON is one grid cell of the technology map.
type TechCellJSON struct {
	PowerW     float64 `json:"power_w"`
	FluxWCm2   float64 `json:"flux_w_cm2"`
	Feasible   bool    `json:"feasible"`
	Tech       string  `json:"tech,omitempty"`
	Complexity int     `json:"complexity,omitempty"`
}

// TechMapResult is the screened grid in row-major powers × fluxes order.
type TechMapResult struct {
	PowersW    []float64        `json:"powers_w"`
	FluxesWCm2 []float64        `json:"fluxes_w_cm2"`
	Cells      [][]TechCellJSON `json:"cells"`
}

// QualResultJSON is one campaign test outcome.
type QualResultJSON struct {
	Test   string  `json:"test"`
	Pass   bool    `json:"pass"`
	Metric float64 `json:"metric"`
	Limit  float64 `json:"limit"`
	Units  string  `json:"units,omitempty"`
	Detail string  `json:"detail,omitempty"`
}

// MarginJSON is one component junction margin.
type MarginJSON struct {
	RefDes  string  `json:"refdes"`
	TjC     float64 `json:"tj_c"`
	MaxTjC  float64 `json:"max_tj_c"`
	MarginK float64 `json:"margin_k"`
	Pass    bool    `json:"pass"`
}

// StudyResultJSON is the full co-design report on the wire.  The
// per-level sections are omitted when keep-going lost them.
type StudyResultJSON struct {
	Feasible bool     `json:"feasible"`
	Findings []string `json:"findings,omitempty"`
	Level1   *struct {
		Tech        string  `json:"tech"`
		MaxPowerW   float64 `json:"max_power_w"`
		MaxFluxWCm2 float64 `json:"max_flux_w_cm2"`
		PowerMargin float64 `json:"power_margin"`
		FluxMargin  float64 `json:"flux_margin"`
		Feasible    bool    `json:"feasible"`
		Complexity  int     `json:"complexity"`
	} `json:"level1,omitempty"`
	Level2 *struct {
		MaxBoardC  float64 `json:"max_board_c"`
		MeanBoardC float64 `json:"mean_board_c"`
	} `json:"level2,omitempty"`
	Level3 *struct {
		WorstC  float64      `json:"worst_c"`
		AllPass bool         `json:"all_pass"`
		Margins []MarginJSON `json:"margins"`
	} `json:"level3,omitempty"`
	Mech *struct {
		FundamentalHz float64 `json:"fundamental_hz"`
		ModePlaced    bool    `json:"mode_placed"`
		ResponseGRMS  float64 `json:"response_grms"`
		Z3SigmaUm     float64 `json:"z3sigma_um"`
		SteinbergUm   float64 `json:"steinberg_um"`
		FatigueOK     bool    `json:"fatigue_ok"`
	} `json:"mech,omitempty"`
}

// StudyResponse is the server's output document.  Exactly one
// kind-specific section is populated.  Partial marks keep-going runs
// that lost at least one point; the losses are itemized under Errors.
type StudyResponse struct {
	Schema        string           `json:"schema"`
	Kind          string           `json:"kind"`
	RequestSHA256 string           `json:"request_sha256"`
	Partial       bool             `json:"partial,omitempty"`
	Errors        []PointErrorJSON `json:"errors,omitempty"`
	Fig10         *Fig10Result     `json:"fig10,omitempty"`
	Sweep         []SweepPointJSON `json:"sweep,omitempty"`
	TechMap       *TechMapResult   `json:"techmap,omitempty"`
	Qualification []QualResultJSON `json:"qualification,omitempty"`
	Study         *StudyResultJSON `json:"study,omitempty"`
}

// StudyError is the wire error document plus its transport metadata.
type StudyError struct {
	Schema string `json:"schema"`
	Error  string `json:"error"`
	Code   string `json:"code"`

	// HTTP transport status; not serialized (the status line carries it).
	Status int `json:"-"`
}

// Error codes with their canonical HTTP statuses.
const (
	CodeBadRequest     = "bad_request"     // 400: malformed JSON / invalid fields
	CodeBadKind        = "bad_kind"        // 400: unknown study kind
	CodeBudgetExceeded = "budget_exceeded" // 422: solver budget tripped
	CodeStudyFailed    = "study_failed"    // 422: the engines rejected the model
	CodeQueueFull      = "queue_full"      // 429: admission control rejected
	CodeNotFound       = "not_found"       // 404: unknown job/result id
	CodeNotReady       = "not_ready"       // 409: job still running
)

// studyErr builds a wire error.
func studyErr(status int, code, format string, args ...any) *StudyError {
	return &StudyError{
		Schema: ErrorSchema,
		Error:  fmt.Sprintf(format, args...),
		Code:   code,
		Status: status,
	}
}

// engineErr classifies an engine failure: a tripped budget surfaces as
// budget_exceeded, anything else as study_failed.
func engineErr(err error) *StudyError {
	if errors.Is(err, linalg.ErrStopped) {
		return studyErr(422, CodeBudgetExceeded, "serve: %v", err)
	}
	return studyErr(422, CodeStudyFailed, "serve: %v", err)
}

// nanPtr maps NaN (the engines' keep-going hole marker) to JSON null.
func nanPtr(v float64) *float64 {
	if math.IsNaN(v) {
		return nil
	}
	return &v
}

// pointErrsJSON converts engine point errors for the wire.
func pointErrsJSON(errs []*robust.PointError) []PointErrorJSON {
	if len(errs) == 0 {
		return nil
	}
	out := make([]PointErrorJSON, len(errs))
	for i, pe := range errs {
		out[i] = PointErrorJSON{Index: pe.Index, Label: pe.Label, Error: pe.Err.Error()}
	}
	return out
}

// executeStudy runs the request's study on the engines under ctx, the
// computation's context, with the request's budget added to it.
// workers bounds the solver concurrency for this one request (the
// server's per-request share of the pool).  The returned response is
// fully deterministic for a given request that neither its budget nor
// ctx stops; transport concerns (hashing, caching) are layered on by the
// server.
func executeStudy(ctx context.Context, req *StudyRequest, workers int) (*StudyResponse, *StudyError) {
	ctx, cancel := req.Budget.context(ctx)
	defer cancel()
	o := robust.Options{Workers: workers, KeepGoing: req.KeepGoing}
	resp := &StudyResponse{Schema: ResponseSchema, Kind: req.Kind}
	switch req.Kind {
	case "fig10":
		structure := materials.Al6061
		if req.Fig10 != nil && req.Fig10.Structure != "" {
			m, err := materials.Get(req.Fig10.Structure)
			if err != nil {
				return nil, studyErr(400, CodeBadRequest, "serve: %v", err)
			}
			structure = m
		}
		sum, perrs, err := cosee.RunFig10(ctx, cosee.Config{Structure: structure}, o)
		if err != nil {
			return nil, engineErr(err)
		}
		resp.Fig10 = &Fig10Result{
			CapabilityNoLHPW: nanPtr(sum.CapabilityNoLHP),
			CapabilityLHPW:   nanPtr(sum.CapabilityLHP),
			CapabilityTiltW:  nanPtr(sum.CapabilityTilt),
			ImprovementPct:   nanPtr(sum.ImprovementPct),
			DeltaTNoLHP40WK:  nanPtr(sum.DeltaTNoLHP40W),
			DeltaTLHP40WK:    nanPtr(sum.DeltaTLHP40W),
			CoolingAt40WK:    nanPtr(sum.CoolingAt40W),
			LHPPowerAt100WW:  nanPtr(sum.LHPPowerAt100W),
		}
		resp.Errors = pointErrsJSON(perrs)
	case "sweep":
		cfg, err := req.Sweep.config()
		if err != nil {
			return nil, studyErr(400, CodeBadRequest, "serve: %v", err)
		}
		points, perrs, err := cfg.Sweep(ctx, req.Sweep.PowersW, o)
		if err != nil {
			return nil, engineErr(err)
		}
		resp.Sweep = make([]SweepPointJSON, len(points))
		for i, p := range points {
			resp.Sweep[i] = SweepPointJSON{
				PowerW:    req.Sweep.PowersW[i],
				DeltaTK:   nanPtr(p.DeltaTK),
				LHPPowerW: nanPtr(p.LHPPower),
				OK:        !math.IsNaN(p.DeltaTK),
			}
		}
		resp.Errors = pointErrsJSON(perrs)
	case "techmap":
		env := core.Envelope{L: 0.4, W: 0.3, H: 0.2}
		if e := req.TechMap.Envelope; e != nil {
			env = core.Envelope{L: e.LMM * 1e-3, W: e.WMM * 1e-3, H: e.HMM * 1e-3}
		}
		screen := core.DefaultScreen(env)
		if req.TechMap.AmbientC != 0 {
			screen.AmbientC = req.TechMap.AmbientC
		}
		cells, err := screen.TechnologyMap(req.TechMap.PowersW, req.TechMap.FluxesWCm2, workers)
		if err != nil {
			return nil, engineErr(err)
		}
		tm := &TechMapResult{
			PowersW:    req.TechMap.PowersW,
			FluxesWCm2: req.TechMap.FluxesWCm2,
			Cells:      make([][]TechCellJSON, len(cells)),
		}
		for pi, row := range cells {
			tm.Cells[pi] = make([]TechCellJSON, len(row))
			for fi, c := range row {
				jc := TechCellJSON{PowerW: c.PowerW, FluxWCm2: c.FluxWCm2, Feasible: c.Feasible}
				if c.Feasible {
					jc.Tech = c.Recommended.Tech.String()
					jc.Complexity = c.Recommended.Complexity
				}
				tm.Cells[pi][fi] = jc
			}
		}
		resp.TechMap = tm
	case "qualification":
		art, serr := req.Qualification.Article.article(ctx)
		if serr != nil {
			return nil, serr
		}
		run := envtest.DefaultCampaign().Run
		if req.Qualification.Extended {
			run = envtest.DefaultExtended().Run
		}
		results, perrs, err := run(ctx, art, o)
		if err != nil {
			return nil, engineErr(err)
		}
		resp.Qualification = make([]QualResultJSON, len(results))
		for i, r := range results {
			resp.Qualification[i] = QualResultJSON{
				Test: r.Test, Pass: r.Pass, Metric: r.Metric,
				Limit: r.Limit, Units: r.Units, Detail: r.Detail,
			}
		}
		resp.Errors = pointErrsJSON(perrs)
	case "study":
		board, env, err := req.Study.design()
		if err != nil {
			return nil, studyErr(400, CodeBadRequest, "serve: %v", err)
		}
		screen := core.DefaultScreen(env)
		if req.Study.ScreenAmbientC != 0 {
			screen.AmbientC = req.Study.ScreenAmbientC
		}
		rep, perrs, err := core.Run(ctx, board, screen, o)
		if err != nil {
			return nil, engineErr(err)
		}
		resp.Study = studyResultJSON(rep)
		resp.Errors = pointErrsJSON(perrs)
	default:
		// Unreachable after validate, but keep the error total.
		return nil, studyErr(400, CodeBadKind, "serve: unknown study kind %q", req.Kind)
	}
	resp.Partial = len(resp.Errors) > 0
	return resp, nil
}

// article converts the wire article into an envtest.Article whose
// thermal model is the spec's COSEE configuration, solved under ctx, the
// computation's context.
func (a *ArticleSpec) article(ctx context.Context) (*envtest.Article, *StudyError) {
	cfg, err := a.Cosee.config()
	if err != nil {
		return nil, studyErr(400, CodeBadRequest, "serve: %v", err)
	}
	art := &envtest.Article{
		Name:                a.Name,
		MassKg:              a.MassKg,
		MountFnHz:           a.MountFnHz,
		DampingZeta:         a.DampingZeta,
		MountArea:           a.MountAreaM2,
		MountYield:          a.MountYieldPa,
		BoardSpan:           a.BoardSpanM,
		BoardThk:            a.BoardThkM,
		CompLen:             a.CompLenM,
		CompConst:           a.CompConst,
		PosFactor:           a.PosFactor,
		FatigueExpB:         a.FatigueExpB,
		PowerW:              a.PowerW,
		MaxPointC:           a.MaxPointC,
		MinStartC:           a.MinStartC,
		ShockCyclesRequired: a.ShockCycles,
		JointDTFactor:       a.JointDTFactor,
		DeltaTAt: func(powerW float64) (float64, error) {
			pt, err := cfg.SolveContext(ctx, powerW)
			if err != nil {
				return 0, err
			}
			return pt.DeltaTK, nil
		},
	}
	return art, nil
}

// design converts the wire board spec into a BoardDesign, mirroring the
// aeropack CLI's buildDesign.
func (b *BoardSpec) design() (*core.BoardDesign, core.Envelope, error) {
	d := &core.BoardDesign{
		Name:         b.Name,
		LengthM:      b.LengthMM * 1e-3,
		WidthM:       b.WidthMM * 1e-3,
		ThicknessM:   b.ThicknessMM * 1e-3,
		CopperLayers: b.Copper.Layers,
		CopperOz:     b.Copper.Oz,
		CopperCover:  b.Copper.Coverage,
		RailTempC:    b.RailC,
		ChannelH:     b.ChannelH,
		ChannelAirC:  b.ChannelAirC,
		TargetModeHz: b.TargetModeHz,
		MassLoadKgM2: b.MassLoad,
	}
	switch b.Cooling {
	case "conduction", "":
		d.EdgeCooling = core.ConductionCooled
	case "forced-air":
		d.EdgeCooling = core.ForcedAir
	case "free-convection":
		d.EdgeCooling = core.FreeConvection
	default:
		return nil, core.Envelope{}, fmt.Errorf("unknown cooling %q", b.Cooling)
	}
	for _, c := range b.Components {
		pkg, err := compact.Get(c.Package)
		if err != nil {
			return nil, core.Envelope{}, err
		}
		d.Components = append(d.Components, &compact.Component{
			RefDes: c.RefDes, Pkg: pkg, Power: c.PowerW,
			X: c.XMM * 1e-3, Y: c.YMM * 1e-3,
		})
	}
	env := core.Envelope{L: 0.4, W: 0.3, H: 0.2}
	if e := b.Envelope; e != nil {
		env = core.Envelope{L: e.LMM * 1e-3, W: e.WMM * 1e-3, H: e.HMM * 1e-3}
	}
	return d, env, nil
}

// studyResultJSON flattens a co-design report for the wire.
func studyResultJSON(rep *core.Report) *StudyResultJSON {
	out := &StudyResultJSON{Feasible: rep.Feasible, Findings: rep.Findings}
	if rep.Level1.Tech != 0 || rep.Level1.Feasible {
		l1 := &struct {
			Tech        string  `json:"tech"`
			MaxPowerW   float64 `json:"max_power_w"`
			MaxFluxWCm2 float64 `json:"max_flux_w_cm2"`
			PowerMargin float64 `json:"power_margin"`
			FluxMargin  float64 `json:"flux_margin"`
			Feasible    bool    `json:"feasible"`
			Complexity  int     `json:"complexity"`
		}{
			Tech:        rep.Level1.Tech.String(),
			MaxPowerW:   rep.Level1.MaxPowerW,
			MaxFluxWCm2: rep.Level1.MaxFluxWCm2,
			PowerMargin: rep.Level1.PowerMargin,
			FluxMargin:  rep.Level1.FluxMargin,
			Feasible:    rep.Level1.Feasible,
			Complexity:  rep.Level1.Complexity,
		}
		out.Level1 = l1
	}
	if rep.Level2 != nil {
		l2 := &struct {
			MaxBoardC  float64 `json:"max_board_c"`
			MeanBoardC float64 `json:"mean_board_c"`
		}{MaxBoardC: rep.Level2.MaxBoardC, MeanBoardC: rep.Level2.MeanBoardC}
		out.Level2 = l2
	}
	if rep.Level3 != nil {
		l3 := &struct {
			WorstC  float64      `json:"worst_c"`
			AllPass bool         `json:"all_pass"`
			Margins []MarginJSON `json:"margins"`
		}{WorstC: rep.Level3.WorstC, AllPass: rep.Level3.AllPass}
		for _, m := range rep.Level3.Margins {
			l3.Margins = append(l3.Margins, MarginJSON{
				RefDes:  m.RefDes,
				TjC:     units.KToC(m.Tj),
				MaxTjC:  units.KToC(m.MaxTj),
				MarginK: m.Margin,
				Pass:    m.Pass,
			})
		}
		out.Level3 = l3
	}
	if rep.Mech != nil {
		me := &struct {
			FundamentalHz float64 `json:"fundamental_hz"`
			ModePlaced    bool    `json:"mode_placed"`
			ResponseGRMS  float64 `json:"response_grms"`
			Z3SigmaUm     float64 `json:"z3sigma_um"`
			SteinbergUm   float64 `json:"steinberg_um"`
			FatigueOK     bool    `json:"fatigue_ok"`
		}{
			FundamentalHz: rep.Mech.FundamentalHz,
			ModePlaced:    rep.Mech.ModePlaced,
			ResponseGRMS:  rep.Mech.ResponseGRMS,
			Z3SigmaUm:     rep.Mech.Z3SigmaUm,
			SteinbergUm:   rep.Mech.SteinbergUm,
			FatigueOK:     rep.Mech.FatigueOK,
		}
		out.Mech = me
	}
	return out
}

// marshalResponse renders a response with the canonical indentation the
// cache and dedup layers replay byte-for-byte.  json.Marshal is already
// deterministic for these fixed-field structs (maps never appear on the
// response, NaN is mapped to nil pointers before encoding), so
// identical requests produce bitwise-identical bodies.
func marshalResponse(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("serve: marshaling response: %w", err)
	}
	return append(b, '\n'), nil
}
