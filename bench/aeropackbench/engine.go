package main

import (
	"fmt"
	"math"

	"aeropack/internal/compact"
	"aeropack/internal/core"
	"aeropack/internal/cosee"
	"aeropack/internal/envtest"
	"aeropack/internal/materials"
	"aeropack/internal/serve"
)

// engineWorkers matches aeropackd's -workers.
const engineWorkers = 2

// The conversions below rebuild each engine's inputs from a decoded
// request the way aeropackd does, so the replay can time the engine
// alone.  They duplicate the server's wire-to-engine mapping; the check
// each runEngine case returns is what keeps the two in step.

// runEngine calls the public entry point behind req's kind and returns
// a check that a served response carries the same numbers: bit for bit,
// except for study numbers (see canon.go).  Budgets are left out: the
// workloads' budgets never trip, and a budget does not change a result
// it does not stop.
func runEngine(req *serve.StudyRequest) (func(*serve.StudyResponse) error, error) {
	switch req.Kind {
	case "fig10":
		structure := materials.Al6061
		if req.Fig10 != nil && req.Fig10.Structure != "" {
			m, err := materials.Get(req.Fig10.Structure)
			if err != nil {
				return nil, err
			}
			structure = m
		}
		s, _, err := cosee.RunFig10Opts(cosee.Fig10Options{Structure: structure, Workers: engineWorkers})
		if err != nil {
			return nil, err
		}
		return func(resp *serve.StudyResponse) error {
			f := resp.Fig10
			if f == nil {
				return fmt.Errorf("no fig10 section")
			}
			return sameAll([]*float64{f.CapabilityNoLHPW, f.CapabilityLHPW, f.CapabilityTiltW, f.ImprovementPct,
				f.DeltaTNoLHP40WK, f.DeltaTLHP40WK, f.CoolingAt40WK, f.LHPPowerAt100WW},
				[]float64{s.CapabilityNoLHP, s.CapabilityLHP, s.CapabilityTilt, s.ImprovementPct,
					s.DeltaTNoLHP40W, s.DeltaTLHP40W, s.CoolingAt40W, s.LHPPowerAt100W})
		}, nil

	case "sweep":
		cfg, err := coseeConfig(&req.Sweep.CoseeSpec)
		if err != nil {
			return nil, err
		}
		pts, err := cfg.SweepParallel(req.Sweep.PowersW, engineWorkers)
		if err != nil {
			return nil, err
		}
		return func(resp *serve.StudyResponse) error {
			if len(resp.Sweep) != len(pts) {
				return fmt.Errorf("%d sweep points served, %d computed", len(resp.Sweep), len(pts))
			}
			for i, p := range pts {
				if err := sameAll([]*float64{resp.Sweep[i].DeltaTK, resp.Sweep[i].LHPPowerW}, []float64{p.DeltaTK, p.LHPPower}); err != nil {
					return fmt.Errorf("sweep point %d: %v", i, err)
				}
			}
			return nil
		}, nil

	case "techmap":
		tm := req.TechMap
		screen := core.DefaultScreen(envelope(tm.Envelope))
		if tm.AmbientC != 0 {
			screen.AmbientC = tm.AmbientC
		}
		cells, err := screen.TechnologyMap(tm.PowersW, tm.FluxesWCm2, engineWorkers)
		if err != nil {
			return nil, err
		}
		return func(resp *serve.StudyResponse) error {
			if resp.TechMap == nil || len(resp.TechMap.Cells) != len(cells) {
				return fmt.Errorf("techmap grid shape differs")
			}
			for pi, row := range cells {
				if len(resp.TechMap.Cells[pi]) != len(row) {
					return fmt.Errorf("techmap row %d length differs", pi)
				}
				for fi, c := range row {
					got := resp.TechMap.Cells[pi][fi]
					tech, cx := "", 0
					if c.Feasible {
						tech, cx = c.Recommended.Tech.String(), c.Recommended.Complexity
					}
					if got.Feasible != c.Feasible || got.Tech != tech || got.Complexity != cx {
						return fmt.Errorf("techmap cell (%d, %d) differs", pi, fi)
					}
				}
			}
			return nil
		}, nil

	case "qualification":
		a := &req.Qualification.Article
		cfg, err := coseeConfig(&a.Cosee)
		if err != nil {
			return nil, err
		}
		art := &envtest.Article{
			Name: a.Name, MassKg: a.MassKg, MountFnHz: a.MountFnHz, DampingZeta: a.DampingZeta,
			MountArea: a.MountAreaM2, MountYield: a.MountYieldPa,
			BoardSpan: a.BoardSpanM, BoardThk: a.BoardThkM, CompLen: a.CompLenM,
			CompConst: a.CompConst, PosFactor: a.PosFactor, FatigueExpB: a.FatigueExpB,
			PowerW: a.PowerW, MaxPointC: a.MaxPointC, MinStartC: a.MinStartC,
			ShockCyclesRequired: a.ShockCycles, JointDTFactor: a.JointDTFactor,
			DeltaTAt: func(p float64) (float64, error) {
				pt, err := cfg.Solve(p)
				return pt.DeltaTK, err
			},
		}
		var results []envtest.Result
		if req.Qualification.Extended {
			results, err = envtest.DefaultExtended().RunAllParallel(art, engineWorkers)
		} else {
			results, err = envtest.DefaultCampaign().RunAllParallel(art, engineWorkers)
		}
		if err != nil {
			return nil, err
		}
		return func(resp *serve.StudyResponse) error {
			if len(resp.Qualification) != len(results) {
				return fmt.Errorf("%d qualification results served, %d computed", len(resp.Qualification), len(results))
			}
			for i, r := range results {
				got := resp.Qualification[i]
				if got.Test != r.Test || got.Pass != r.Pass || !same(got.Metric, r.Metric) || !same(got.Limit, r.Limit) {
					return fmt.Errorf("qualification test %q differs", r.Test)
				}
			}
			return nil
		}, nil

	case "study":
		// Level-3 numbers vary in their last bits between runs (canon.go),
		// so a study is compared within studyTol.
		b, screen, err := boardDesign(req.Study)
		if err != nil {
			return nil, err
		}
		rep, err := core.Study(b, screen)
		if err != nil {
			return nil, err
		}
		return func(resp *serve.StudyResponse) error {
			s := resp.Study
			if s == nil || s.Level2 == nil || s.Level3 == nil || s.Mech == nil {
				return fmt.Errorf("study response lacks a level")
			}
			if s.Feasible != rep.Feasible {
				return fmt.Errorf("feasible %t served, %t computed", s.Feasible, rep.Feasible)
			}
			got := []float64{s.Level2.MaxBoardC, s.Level2.MeanBoardC, s.Level3.WorstC, s.Mech.FundamentalHz, s.Mech.ResponseGRMS}
			want := []float64{rep.Level2.MaxBoardC, rep.Level2.MeanBoardC, rep.Level3.WorstC, rep.Mech.FundamentalHz, rep.Mech.ResponseGRMS}
			for i := range got {
				if !within(got[i], want[i]) {
					return fmt.Errorf("study value %d: served %v, computed %v", i, got[i], want[i])
				}
			}
			return nil
		}, nil
	}
	return nil, fmt.Errorf("unknown kind %q", req.Kind)
}

// same reports bitwise equality: aeropackd's outputs are deterministic,
// and JSON round-trips a float64 exactly.
func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameAll compares served nullable numbers with computed ones, where a
// null stands for NaN.
func sameAll(got []*float64, want []float64) error {
	for i, g := range got {
		if g == nil && math.IsNaN(want[i]) {
			continue
		}
		if g == nil || !same(*g, want[i]) {
			return fmt.Errorf("value %d: served %v, computed %v", i, deref(g), want[i])
		}
	}
	return nil
}

func coseeConfig(cs *serve.CoseeSpec) (cosee.Config, error) {
	c := cosee.Config{
		UseLHP: cs.UseLHP, TiltDeg: cs.TiltDeg, AmbientC: cs.AmbientC, TIMName: cs.TIM,
		CabinAltitudeM: cs.CabinAltitudeM, UseThermosyphon: cs.UseThermosyphon,
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

// envelope converts a wire envelope (mm), defaulting to the demo box.
func envelope(e *serve.EnvelopeSpec) core.Envelope {
	if e == nil {
		return core.Envelope{L: 0.4, W: 0.3, H: 0.2}
	}
	return core.Envelope{L: e.LMM * 1e-3, W: e.WMM * 1e-3, H: e.HMM * 1e-3}
}

// boardDesign converts a wire board into the design and level-1 screen
// core.Study takes.
func boardDesign(s *serve.BoardSpec) (*core.BoardDesign, core.Screen, error) {
	d := &core.BoardDesign{
		Name: s.Name, LengthM: s.LengthMM * 1e-3, WidthM: s.WidthMM * 1e-3, ThicknessM: s.ThicknessMM * 1e-3,
		CopperLayers: s.Copper.Layers, CopperOz: s.Copper.Oz, CopperCover: s.Copper.Coverage,
		RailTempC: s.RailC, ChannelH: s.ChannelH, ChannelAirC: s.ChannelAirC,
		TargetModeHz: s.TargetModeHz, MassLoadKgM2: s.MassLoad,
	}
	switch s.Cooling {
	case "conduction", "":
		d.EdgeCooling = core.ConductionCooled
	case "forced-air":
		d.EdgeCooling = core.ForcedAir
	case "free-convection":
		d.EdgeCooling = core.FreeConvection
	default:
		return nil, core.Screen{}, fmt.Errorf("unknown cooling %q", s.Cooling)
	}
	for _, c := range s.Components {
		pkg, err := compact.Get(c.Package)
		if err != nil {
			return nil, core.Screen{}, err
		}
		d.Components = append(d.Components, &compact.Component{
			RefDes: c.RefDes, Pkg: pkg, Power: c.PowerW, X: c.XMM * 1e-3, Y: c.YMM * 1e-3,
		})
	}
	screen := core.DefaultScreen(envelope(s.Envelope))
	if s.ScreenAmbientC != 0 {
		screen.AmbientC = s.ScreenAmbientC
	}
	return d, screen, nil
}
