// Package aeropack_test is the benchmark harness that regenerates every
// quantitative table and figure of Sarno & Tantolin (DATE 2010).  Each
// BenchmarkE<n> prints the paper-style rows/series once (guarded by a
// sync.Once) and then times the underlying computation; run
//
//	go test -bench=. -benchmem
//
// and compare the printed blocks with EXPERIMENTS.md.
package aeropack_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"aeropack/internal/compact"
	"aeropack/internal/convection"
	"aeropack/internal/core"
	"aeropack/internal/cosee"
	"aeropack/internal/envtest"
	"aeropack/internal/fluids"
	"aeropack/internal/joints"
	"aeropack/internal/materials"
	"aeropack/internal/mech"
	"aeropack/internal/mesh"
	"aeropack/internal/nanopack"
	"aeropack/internal/obs"
	"aeropack/internal/reliability"
	"aeropack/internal/report"
	"aeropack/internal/robust"
	"aeropack/internal/thermal"
	"aeropack/internal/tim"
	"aeropack/internal/twophase"
	"aeropack/internal/units"
	"aeropack/internal/vibration"
)

var printOnce sync.Map

// emit prints a block once per process so repeated bench iterations stay
// quiet.
func emit(key, block string) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		fmt.Print(block)
	}
}

// ----------------------------------------------------------------------
// E1 (Figs. 2–3): modal placement of the Ariane power supply at ≈500 Hz
// and the IMU isolator filtering (attenuated PCB response vs rack input).

func ariane500HzPlate() (*mech.Plate, float64, error) {
	p := &mech.Plate{
		A: 0.20, B: 0.15,
		Material:     materials.PCB(10, 2, 0.6, 2e-3),
		Edges:        mech.CCCC,
		MassLoadKgM2: 4, // transformers and power parts
	}
	thk, err := p.ThicknessForFrequency(500)
	if err != nil {
		return nil, 0, err
	}
	p.Thickness = thk
	return p, thk, nil
}

func BenchmarkE1_ModalPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, thk, err := ariane500HzPlate()
		if err != nil {
			b.Fatal(err)
		}
		fn, err := p.FundamentalHz()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t := report.NewTable("E1a — Ariane power supply: frequency allocation (Fig. 2)",
				"quantity", "value")
			t.AddRow("allocated main mode", "500 Hz")
			t.AddRow("board thickness found", fmt.Sprintf("%.2f mm", thk*1e3))
			t.AddRow("achieved fundamental", fmt.Sprintf("%.1f Hz", fn))
			emit("E1a", t.String())
		}
	}
}

func imuSystem() (*mech.Lumped, error) {
	s := mech.NewLumped()
	if err := s.AddMass("imu", 6); err != nil {
		return nil, err
	}
	k, err := mech.IsolatorStiffness(6, 45, 4)
	if err != nil {
		return nil, err
	}
	for i := 0; i < 4; i++ {
		if err := s.AddSpring("imu", mech.Ground, k); err != nil {
			return nil, err
		}
	}
	c := 2 * 0.10 * math.Sqrt(4*k*6)
	if err := s.AddDamper("imu", mech.Ground, c); err != nil {
		return nil, err
	}
	return s, nil
}

func BenchmarkE1_IMUIsolation(b *testing.B) {
	psd, err := vibration.DO160("C1")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		s, err := imuSystem()
		if err != nil {
			b.Fatal(err)
		}
		fs, ts, err := s.TransmissibilitySweep("imu", 10, 2000, 40)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			rackIn := psd.RMS()
			imuOut, err := vibration.ResponseRMS(psd, 45, 0.10)
			if err != nil {
				b.Fatal(err)
			}
			t := report.NewTable("E1b — IMU isolator filtering (Fig. 3)", "quantity", "value")
			t.AddRow("mount frequency", "45 Hz")
			t.AddRow("rack input (DO-160 C1)", fmt.Sprintf("%.2f gRMS", rackIn))
			t.AddRow("isolated IMU response", fmt.Sprintf("%.2f gRMS", imuOut))
			hi := 0.0
			for j, f := range fs {
				if f >= 450 {
					hi = ts[j]
					break
				}
			}
			t.AddRow("transmissibility at 450 Hz", fmt.Sprintf("%.3f (≥10× attenuation)", hi))
			emit("E1b", t.String())
		}
	}
}

// ----------------------------------------------------------------------
// E2 (Fig. 4): the three simulation levels, equipment → PCB → component.

func e2Board() *core.BoardDesign {
	return &core.BoardDesign{
		Name: "rack-module", LengthM: 0.16, WidthM: 0.23, ThicknessM: 2.4e-3,
		CopperLayers: 12, CopperOz: 2, CopperCover: 0.7,
		EdgeCooling: core.ForcedAir, ChannelH: 55, ChannelAirC: 46,
		Components: []*compact.Component{
			{RefDes: "U1", Pkg: compact.FCBGACPU, Power: 8, X: 0.08, Y: 0.115},
			{RefDes: "U2", Pkg: compact.BGA256, Power: 3, X: 0.04, Y: 0.06},
			{RefDes: "U3", Pkg: compact.QFP208, Power: 2.5, X: 0.12, Y: 0.17},
			{RefDes: "Q1", Pkg: compact.TO263, Power: 1.5, X: 0.04, Y: 0.18},
			{RefDes: "U4", Pkg: compact.SOIC8, Power: 0.4, X: 0.13, Y: 0.05},
		},
		MassLoadKgM2: 3,
	}
}

func BenchmarkE2_ThreeLevels(b *testing.B) {
	screen := core.DefaultScreen(core.Envelope{L: 0.5, W: 0.3, H: 0.26})
	for i := 0; i < b.N; i++ {
		board := e2Board()
		// Level 1: rack air heat balance under the ARINC allocation.
		const nModules = 8
		perModule := board.TotalPower()
		rackPower := perModule * nModules
		mdot := convection.ARINCMassFlow(rackPower)
		rise := convection.AirTempRise(rackPower, mdot, units.CToK(40))

		rep, err := core.Study(board, screen)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t := report.NewTable("E2 — three-level thermal methodology (Fig. 4)",
				"level", "model", "key output")
			t.AddRow("1 equipment", "rack heat balance, ARINC 600 flow",
				fmt.Sprintf("%.0f W rack, air rise %.1f K → exhaust %.1f °C",
					rackPower, rise, 40+rise))
			t.AddRow("2 PCB", "finite-volume board, dissipative surfaces",
				fmt.Sprintf("board max %.1f °C / mean %.1f °C",
					rep.Level2.MaxBoardC, rep.Level2.MeanBoardC))
			t.AddRow("3 component", "compact models on local board T",
				fmt.Sprintf("worst junction %.1f °C (limit 125 °C) pass=%v",
					rep.Level3.WorstC, rep.Level3.AllPass))
			emit("E2", t.String())
		}
	}
}

// benchRegistry swaps a private metrics registry in for one benchmark so
// the solver telemetry accumulated during the run can be read back and
// reported per op, without polluting (or being polluted by) whatever the
// process-global registry holds.
func benchRegistry(b *testing.B) *obs.Registry {
	reg := obs.NewRegistry()
	prev := obs.SetDefault(reg)
	b.Cleanup(func() { obs.SetDefault(prev) })
	return reg
}

// reportSolverWork converts the run's accumulated linalg telemetry into
// custom benchmark metrics: iterative-solver iterations per op and the
// mean converged residual.
func reportSolverWork(b *testing.B, reg *obs.Registry) {
	iters := reg.Counter("linalg_solver_iterations_total").Value()
	b.ReportMetric(float64(iters)/float64(b.N), "solver_iters/op")
	// The mean converged residual is ~1e-10; report its log10 because the
	// bench text format rounds metrics to seven decimals (1e-10 → 0).
	if h := reg.Histogram("linalg_residual", obs.ExpBuckets(1e-16, 10, 18)); h.Count() > 0 && h.Mean() > 0 {
		b.ReportMetric(math.Log10(h.Mean()), "log10_residual")
	}
}

// reportLayers reports the level-2 FV solve's layer times per op —
// assembly, preconditioner setup and the Krylov loop, the sums of their
// seconds histograms — so benchjson -compare gates each layer on its
// own.
func reportLayers(b *testing.B, reg *obs.Registry) {
	for _, l := range []struct{ hist, unit string }{
		{"thermal_assembly_seconds", "assemble_ns/op"},
		{"linalg_prec_setup_seconds", "prec_setup_ns/op"},
		{"linalg_krylov_seconds", "krylov_ns/op"},
	} {
		b.ReportMetric(reg.Histogram(l.hist, nil).Sum()*1e9/float64(b.N), l.unit)
	}
}

// The three simulation levels individually (the composite study is
// BenchmarkE2_ThreeLevels above): level 1 is closed-form and runs no
// iterative solver, level 2 is the finite-volume board (CG), level 3 the
// component network on the level-2 field.
func BenchmarkE2_Level1(b *testing.B) {
	screen := core.DefaultScreen(core.Envelope{L: 0.5, W: 0.3, H: 0.26})
	reg := benchRegistry(b)
	for i := 0; i < b.N; i++ {
		if _, err := e2Board().Level1(screen); err != nil {
			b.Fatal(err)
		}
	}
	reportSolverWork(b, reg)
}

func BenchmarkE2_Level2(b *testing.B) {
	screen := core.DefaultScreen(core.Envelope{L: 0.5, W: 0.3, H: 0.26})
	reg := benchRegistry(b)
	for i := 0; i < b.N; i++ {
		if _, err := e2Board().Level2(screen); err != nil {
			b.Fatal(err)
		}
	}
	reportSolverWork(b, reg)
	reportLayers(b, reg)
}

// BenchmarkE2_Level2FreeConvection is E2_Level2 on the free-convection
// variant of the board: both faces carry a radiating film, so level 2
// runs Newton passes of one assembly, one fast-diagonalization build
// and one CG solve each.  picard_passes/op counts the passes, one
// thermal_assembly_seconds sample each.
func BenchmarkE2_Level2FreeConvection(b *testing.B) {
	screen := core.DefaultScreen(core.Envelope{L: 0.5, W: 0.3, H: 0.26})
	reg := benchRegistry(b)
	for i := 0; i < b.N; i++ {
		board := e2Board()
		board.EdgeCooling = core.FreeConvection
		if _, err := board.Level2(screen); err != nil {
			b.Fatal(err)
		}
	}
	reportSolverWork(b, reg)
	b.ReportMetric(float64(reg.Histogram("thermal_assembly_seconds", nil).Count())/float64(b.N), "picard_passes/op")
	reportLayers(b, reg)
}

func BenchmarkE2_Level3(b *testing.B) {
	screen := core.DefaultScreen(core.Envelope{L: 0.5, W: 0.3, H: 0.26})
	board := e2Board()
	l2, err := board.Level2(screen)
	if err != nil {
		b.Fatal(err)
	}
	reg := benchRegistry(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := board.Level3(l2); err != nil {
			b.Fatal(err)
		}
	}
	reportSolverWork(b, reg)
}

// ----------------------------------------------------------------------
// E3 (Figs. 5–6): cooling-mode survey and the module power trend.

func BenchmarkE3_CoolingModes(b *testing.B) {
	screen := core.DefaultScreen(core.Envelope{L: 0.4, W: 0.3, H: 0.2})
	for i := 0; i < b.N; i++ {
		var lims []core.TechLimits
		for tech := core.FreeConvection; tech <= core.TwoPhase; tech++ {
			l, err := screen.Limits(tech)
			if err != nil {
				b.Fatal(err)
			}
			lims = append(lims, l)
		}
		if i == 0 {
			t := report.NewTable("E3a — cooling modes survey (Fig. 5)",
				"technique", "equipment capacity", "hot-spot capability", "complexity")
			for _, l := range lims {
				t.AddRow(l.Tech.String(),
					fmt.Sprintf("%.0f W", l.MaxPowerW),
					fmt.Sprintf("%.1f W/cm²", l.MaxFluxWCm2),
					l.Tech.Complexity())
			}
			emit("E3a", t.String())

			// Module power trend (Fig. 6 narrative: 10 → 20/30 → 60 W/module).
			tr := report.NewTable("E3b — module dissipation trend (Fig. 6)",
				"module power", "feasible with forced air?", "recommended")
			for _, p := range []float64{10, 30, 60, 100} {
				rec, err := screen.Recommend(p*8, 5) // 8-module rack, 5 W/cm² parts
				status := "no"
				name := "-"
				if err == nil {
					name = rec.Tech.String()
					for tech := core.FreeConvection; tech <= core.TwoPhase; tech++ {
						if tech == core.ForcedAir {
							l, _ := screen.Limits(tech)
							if l.MaxPowerW > p*8 {
								status = "yes"
							}
						}
					}
				}
				tr.AddRow(fmt.Sprintf("%.0f W/module", p), status, name)
			}
			emit("E3b", tr.String())
		}
	}
}

// ----------------------------------------------------------------------
// E4 (§IV): ARINC 600 airflow versus the hot-spot problem.

func BenchmarkE4_HotSpotAirflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Tin := units.CToK(40)
		duct, err := convection.Duct(convection.HydraulicDiameter(0.01, 0.15), 0.2, 8, Tin)
		if err != nil {
			b.Fatal(err)
		}
		const spread = 50.0 // clip-on heatsink thermal area ratio
		const dT = 45.0     // component-to-air budget, K
		hAvail := duct.H * spread
		var rows [][3]float64
		for _, flux := range []float64{1, 5, 10, 30, 60, 100} {
			hReq := convection.RequiredH(units.WPerCm2(flux), dT)
			// h ∝ V^0.8 in the turbulent channel → flow multiple.
			mult := math.Pow(hReq/hAvail, 1/0.8)
			rows = append(rows, [3]float64{flux, hReq, mult})
		}
		if i == 0 {
			t := report.NewTable("E4 — hot spots vs ARINC 600 forced air (§IV)",
				"component flux", "required h", "airflow vs ARINC", "verdict")
			for _, r := range rows {
				verdict := "air OK"
				if r[2] > 1 {
					verdict = "air insufficient"
				}
				if r[0] >= 60 {
					verdict += " → two-phase"
				}
				t.AddRow(fmt.Sprintf("%.0f W/cm²", r[0]),
					fmt.Sprintf("%.0f W/m²K", r[1]),
					fmt.Sprintf("%.1f×", r[2]), verdict)
			}
			t.AddRow("paper", "-", "\"up to ten times\"", "novel technologies needed")
			emit("E4", t.String())
		}
	}
}

// ----------------------------------------------------------------------
// E5 (Fig. 10): the COSEE SEB headline experiment.

func BenchmarkE5_Fig10(b *testing.B) {
	powers := []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}
	factorizations := benchRegistry(b).Counter("thermal_network_factorizations_total")
	var fig10Factorizations int64
	for i := 0; i < b.N; i++ {
		al := materials.Al6061
		before := factorizations.Value()
		s, _, err := cosee.RunFig10(context.Background(), cosee.Config{Structure: al}, robust.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		fig10Factorizations += factorizations.Value() - before
		if i == 0 {
			for _, cfg := range []struct {
				name string
				c    cosee.Config
			}{
				{"without LHP", cosee.Config{Structure: al}},
				{"with LHP (horizontal)", cosee.Config{UseLHP: true, Structure: al}},
				{"with LHP (22° tilt)", cosee.Config{UseLHP: true, TiltDeg: 22, Structure: al}},
			} {
				pts, _, err := cfg.c.Sweep(context.Background(), powers, robust.Options{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				ser := &report.Series{Name: "Fig. 10 — " + cfg.name,
					XLabel: "SEB power (W)", YLabel: "Tpcb − Tair (K)"}
				for _, p := range pts {
					ser.X = append(ser.X, p.PowerW)
					ser.Y = append(ser.Y, p.DeltaTK)
				}
				emit("E5-"+cfg.name, ser.String())
			}
			emit("E5-sum", report.Checks("E5 — Fig. 10 headline numbers", []report.CheckRow{
				{Quantity: "capability without LHP @ΔT=60K", Paper: "≈40 W",
					Measured: fmt.Sprintf("%.1f W", s.CapabilityNoLHP),
					Pass:     s.CapabilityNoLHP > 34 && s.CapabilityNoLHP < 47},
				{Quantity: "capability with LHP @ΔT=60K", Paper: "≈100 W",
					Measured: fmt.Sprintf("%.1f W", s.CapabilityLHP),
					Pass:     s.CapabilityLHP > 88 && s.CapabilityLHP < 114},
				{Quantity: "capability improvement", Paper: "+150%",
					Measured: fmt.Sprintf("%+.0f%%", s.ImprovementPct),
					Pass:     s.ImprovementPct > 110 && s.ImprovementPct < 190},
				{Quantity: "PCB cooling at 40 W", Paper: "32 °C",
					Measured: fmt.Sprintf("%.1f K", s.CoolingAt40W),
					Pass:     s.CoolingAt40W > 24 && s.CoolingAt40W < 40},
				{Quantity: "LHP power at 100 W SEB", Paper: "58 W",
					Measured: fmt.Sprintf("%.1f W", s.LHPPowerAt100W),
					Pass:     s.LHPPowerAt100W > 45 && s.LHPPowerAt100W < 70},
				{Quantity: "22° tilt effect", Paper: "≈none",
					Measured: fmt.Sprintf("%+.1f%%", (s.CapabilityTilt/s.CapabilityLHP-1)*100),
					Pass:     math.Abs(s.CapabilityTilt/s.CapabilityLHP-1) < 0.05},
			}))
		}
	}
	// Network factorizations per Fig. 10 run, one per Picard pass; the
	// first iteration's printed sweeps are not counted.
	b.ReportMetric(float64(fig10Factorizations)/float64(b.N), "factorizations/op")
}

// ----------------------------------------------------------------------
// E6 (§IV.A): the carbon-composite seat variant.

func BenchmarkE6_CompositeSeat(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cc, _, err := cosee.RunFig10(context.Background(), cosee.Config{Structure: materials.CarbonComposite}, robust.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			emit("E6", report.Checks("E6 — carbon-composite seat structure", []report.CheckRow{
				{Quantity: "capability with LHP @ΔT=60K", Paper: "≈70 W",
					Measured: fmt.Sprintf("%.1f W", cc.CapabilityLHP),
					Pass:     cc.CapabilityLHP > 58 && cc.CapabilityLHP < 80},
				{Quantity: "capability improvement", Paper: "+80%",
					Measured: fmt.Sprintf("%+.0f%%", cc.ImprovementPct),
					Pass:     cc.ImprovementPct > 50 && cc.ImprovementPct < 110},
				{Quantity: "PCB cooling at 40 W", Paper: "20 °C",
					Measured: fmt.Sprintf("%.1f K", cc.CoolingAt40W),
					Pass:     cc.CoolingAt40W > 12 && cc.CoolingAt40W < 30},
			}))
		}
	}
}

// ----------------------------------------------------------------------
// E7 (§IV.A): the qualification campaign.

func e7Article() *envtest.Article {
	cfg := cosee.Config{UseLHP: true}
	return &envtest.Article{
		Name:   "SEB+seat (HP/LHP kit)",
		MassKg: 3.5, MountFnHz: 180, DampingZeta: 0.05,
		MountArea: 4 * 25e-6, MountYield: 80e6,
		BoardSpan: 0.25, BoardThk: 2e-3, CompLen: 0.025,
		CompConst: 1.0, PosFactor: 1.0, FatigueExpB: 6.4,
		PowerW: 60,
		DeltaTAt: func(p float64) (float64, error) {
			// Copy: Solve mutates its receiver via Defaults, and the
			// parallel campaign calls this hook concurrently.
			c := cfg
			pt, err := c.Solve(p)
			if err != nil {
				return 0, err
			}
			return pt.DeltaTK, nil
		},
		MaxPointC: 105, MinStartC: -40,
		ShockCyclesRequired: 100, JointDTFactor: 0.5,
	}
}

func BenchmarkE7_Qualification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, _, err := envtest.DefaultCampaign().Run(context.Background(), e7Article(), robust.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t := report.NewTable("E7 — COSEE qualification campaign (§IV.A)",
				"test", "metric", "limit", "result", "detail")
			for _, r := range results {
				mark := "PASS"
				if !r.Pass {
					mark = "FAIL"
				}
				t.AddRow(r.Test, fmt.Sprintf("%.3g %s", r.Metric, r.Units),
					fmt.Sprintf("%.3g %s", r.Limit, r.Units), mark, r.Detail)
			}
			t.AddRow("paper", "-", "-", "all passed",
				"\"submitted to all the different tests without damage\"")
			emit("E7", t.String())
		}
	}
}

// ----------------------------------------------------------------------
// E8 (§IV.B): NANOPACK adhesive development results.

func BenchmarkE8_Adhesives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		flake, err := nanopack.DesignSilverAdhesive("flake", 6.0)
		if err != nil {
			b.Fatal(err)
		}
		sphere, err := nanopack.DesignSilverAdhesive("sphere", 9.5)
		if err != nil {
			b.Fatal(err)
		}
		rows, err := nanopack.ResultsToDate(2e5)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t := report.NewTable("E8a — silver adhesive development (EMT design)",
				"product", "filler fraction", "bulk k (paper)", "apparent k (D5470)",
				"electrical", "shear")
			t.AddRow(flake.Name, fmt.Sprintf("%.0f%%", flake.FillerFraction*100),
				"6 W/m·K", fmt.Sprintf("%.1f W/m·K", flake.MeasuredK),
				fmt.Sprintf("%.0e Ω·cm", flake.ElectricalOhmCm),
				fmt.Sprintf("%.0f MPa", flake.ShearMPa))
			t.AddRow(sphere.Name, fmt.Sprintf("%.0f%%", sphere.FillerFraction*100),
				"9.5 W/m·K", fmt.Sprintf("%.1f W/m·K", sphere.MeasuredK),
				fmt.Sprintf("%.0e Ω·cm", sphere.ElectricalOhmCm),
				fmt.Sprintf("%.0f MPa", sphere.ShearMPa))
			emit("E8a", t.String())

			obj := nanopack.ProjectObjectives()
			t2 := report.NewTable(fmt.Sprintf(
				"E8b — products vs objectives (k≥%.0f W/m·K, R<%.0f K·mm²/W, BLT<%.0f µm)",
				obj.ConductivityWmK, obj.ResistanceKmm2W, obj.BondLineUm),
				"product", "k", "R", "BLT", "k ok", "R ok", "BLT ok")
			for _, r := range rows {
				t2.AddRow(r.Product, fmt.Sprintf("%.1f", r.KWmK),
					fmt.Sprintf("%.1f", r.RKmm2W), fmt.Sprintf("%.0f µm", r.BLTUm),
					r.MeetsK, r.MeetsR, r.MeetsBLT)
			}
			emit("E8b", t2.String())
		}
	}
}

// ----------------------------------------------------------------------
// E9 (§IV.B): HNC surface structuring.

func BenchmarkE9_HNC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := nanopack.EvaluateHNC(2e5)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t := report.NewTable("E9 — hierarchical nested channels (§IV.B)",
				"TIM", "BLT reduction")
			for j, m := range res.Materials {
				t.AddRow(m, fmt.Sprintf("%.0f%%", res.Reductions[j]*100))
			}
			t.AddRow("majority > 20%?", fmt.Sprintf("%v (paper: yes)", res.MajorityHolds))
			emit("E9", t.String())
		}
	}
}

// ----------------------------------------------------------------------
// E10 (§IV.B): the D5470 tester accuracy.

func BenchmarkE10_D5470(b *testing.B) {
	for i := 0; i < b.N; i++ {
		v, err := nanopack.ValidateTester(11, 60)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			emit("E10", report.Checks("E10 — virtual ASTM D5470 tester", []report.CheckRow{
				{Quantity: "resistance accuracy", Paper: "±1 K·mm²/W",
					Measured: fmt.Sprintf("±%.2f K·mm²/W", v.MaxAbsErrKmm2W),
					Pass:     v.MeetsAccuracy},
				{Quantity: "thickness accuracy", Paper: "±2 µm",
					Measured: fmt.Sprintf("±%.2f µm", v.BLTStdUm),
					Pass:     v.MeetsThickness},
			}))
		}
	}
}

// ----------------------------------------------------------------------
// E11 (§II.B): junction temperatures → MTBF ≈ 40,000 h.

func e11Board() *reliability.Board {
	return &reliability.Board{
		Name: "processing-module",
		Parts: []reliability.Part{
			{Name: "CPU", BaseFIT: 70, EaEV: 0.7, Quality: reliability.QualMil, Quantity: 1},
			{Name: "DSP", BaseFIT: 55, EaEV: 0.7, Quality: reliability.QualMil, Quantity: 2},
			{Name: "SDRAM", BaseFIT: 25, EaEV: 0.6, Quality: reliability.QualMil, Quantity: 4},
			{Name: "PowerFET", BaseFIT: 20, EaEV: 0.5, Quality: reliability.QualMil, Quantity: 6},
			{Name: "Passives", BaseFIT: 1.2, EaEV: 0.3, Quality: reliability.QualMil, Quantity: 200},
			{Name: "Connector", BaseFIT: 6, EaEV: 0.4, Quality: reliability.QualMil, Quantity: 3},
		},
	}
}

func BenchmarkE11_MTBF(b *testing.B) {
	screen := core.DefaultScreen(core.Envelope{L: 0.5, W: 0.3, H: 0.26})
	for i := 0; i < b.N; i++ {
		rep, err := core.Study(e2Board(), screen)
		if err != nil {
			b.Fatal(err)
		}
		tj := map[string]float64{}
		for _, m := range rep.Level3.Margins {
			tj[m.RefDes] = m.Tj
		}
		// Map margins onto the reliability BOM's thermal leaders.
		tjMap := map[string]float64{
			"CPU": tj["U1"], "DSP": tj["U2"], "SDRAM": tj["U3"], "PowerFET": tj["Q1"],
		}
		pred, err := e11Board().Predict(tjMap, units.CToK(rep.Level2.MeanBoardC),
			reliability.AirborneInhabitedCargo)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t := report.NewTable("E11 — junction temperatures → reliability (§II.B)",
				"quantity", "value")
			t.AddRow("worst junction (level 3)", fmt.Sprintf("%.1f °C (limit 125 °C)", rep.Level3.WorstC))
			t.AddRow("predicted MTBF", fmt.Sprintf("%.0f h", pred.MTBFHours))
			t.AddRow("paper's typical aerospace MTBF", "≈40,000 h")
			t.AddRow("top contributor", fmt.Sprintf("%s (%.0f%% of failures)",
				pred.Contributions[0].Name, pred.Contributions[0].Fraction*100))
			emit("E11", t.String())
		}
	}
}

// ----------------------------------------------------------------------
// E12 (§I): the technology feasibility map over (power, flux).

func BenchmarkE12_TechnologyMap(b *testing.B) {
	screen := core.DefaultScreen(core.Envelope{L: 0.4, W: 0.3, H: 0.2})
	powers := []float64{50, 150, 400, 900}
	fluxes := []float64{1, 10, 50, 100}
	for i := 0; i < b.N; i++ {
		grid := make([][]string, len(powers))
		for pi, p := range powers {
			grid[pi] = make([]string, len(fluxes))
			for fi, f := range fluxes {
				rec, err := screen.Recommend(p, f)
				if err != nil {
					grid[pi][fi] = "none"
					continue
				}
				grid[pi][fi] = rec.Tech.String()
			}
		}
		if i == 0 {
			t := report.NewTable("E12 — cooling technology map (§I trend: 10→100 W/cm², 100 W modules)",
				"equipment power", "1 W/cm²", "10 W/cm²", "50 W/cm²", "100 W/cm²")
			for pi, p := range powers {
				t.AddRow(fmt.Sprintf("%.0f W", p), grid[pi][0], grid[pi][1], grid[pi][2], grid[pi][3])
			}
			emit("E12", t.String())
		}
	}
}

// ----------------------------------------------------------------------
// Ablations (DESIGN.md §4).

func BenchmarkAblation_LHPConductance(b *testing.B) {
	loop := &twophase.LoopHeatPipe{
		Fluid: fluids.Ammonia, PoreRadius: 1.5e-6, Permeability: 4e-14,
		WickArea: 8e-4, WickLength: 5e-3, LineLength: 1.5, LineRadius: 2e-3,
		CondArea: 0.012, CondH: 2500, EvapArea: 2.5e-3, EvapH: 15000, StartupPower: 3,
	}
	T := units.CToK(45)
	for i := 0; i < b.N; i++ {
		rConst, err := loop.Resistance(T, 60)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t := report.NewTable("Ablation — LHP conductance model",
				"power", "variable-G ΔT", "constant-G ΔT", "error")
			for _, q := range []float64{10, 20, 40, 60, 100} {
				rVar, err := loop.Resistance(T, q)
				if err != nil {
					b.Fatal(err)
				}
				dtVar := q * rVar
				dtConst := q * rConst
				t.AddRow(fmt.Sprintf("%.0f W", q),
					fmt.Sprintf("%.1f K", dtVar),
					fmt.Sprintf("%.1f K", dtConst),
					fmt.Sprintf("%+.0f%%", (dtConst/dtVar-1)*100))
			}
			emit("abl-lhp", t.String())
		}
	}
}

func BenchmarkAblation_TIMStack(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var caps []float64
		names := []string{"perfect", "grease-standard", "nanopack-CNT-composite", "bare-contact"}
		for _, nm := range names {
			cfg := cosee.Config{UseLHP: true, TIMName: nm}
			c, err := cfg.CapabilityAt(context.Background(), 60)
			if err != nil {
				b.Fatal(err)
			}
			caps = append(caps, c)
		}
		if i == 0 {
			t := report.NewTable("Ablation — TIM joints in the SEB two-phase stack",
				"interface", "capability @ΔT=60K")
			for j, nm := range names {
				t.AddRow(nm, fmt.Sprintf("%.1f W", caps[j]))
			}
			emit("abl-tim", t.String())
		}
	}
}

func BenchmarkAblation_PCBCopper(b *testing.B) {
	screen := core.DefaultScreen(core.Envelope{L: 0.5, W: 0.3, H: 0.26})
	for i := 0; i < b.N; i++ {
		var rows [][2]interface{}
		for _, v := range []struct {
			layers int
			oz     float64
		}{{2, 0.5}, {6, 1}, {12, 2}} {
			board := e2Board()
			board.EdgeCooling = core.ConductionCooled
			board.RailTempC = 30
			board.CopperLayers = v.layers
			board.CopperOz = v.oz
			rep, err := core.Study(board, screen)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, [2]interface{}{
				fmt.Sprintf("%dL × %.1f oz", v.layers, v.oz),
				fmt.Sprintf("board max %.1f °C, worst Tj %.1f °C", rep.Level2.MaxBoardC, rep.Level3.WorstC)})
		}
		if i == 0 {
			t := report.NewTable("Ablation — level-2 copper lumping (wedge-locked board)",
				"stack-up", "result")
			for _, r := range rows {
				t.AddRow(r[0], r[1])
			}
			emit("abl-cu", t.String())
		}
	}
}

func BenchmarkAblation_MeshConvergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var rows [][2]string
		for _, n := range []int{12, 24, 48} {
			g, err := mesh.Uniform(n, n, 3, 0.16, 0.16, 0.004)
			if err != nil {
				b.Fatal(err)
			}
			m, err := thermal.NewModel(g, []materials.Material{materials.PCB(8, 1, 0.6, 0.004)})
			if err != nil {
				b.Fatal(err)
			}
			m.SetFaceBC(mesh.YMin, thermal.BC{Kind: thermal.FixedT, T: 303.15})
			m.SetFaceBC(mesh.YMax, thermal.BC{Kind: thermal.FixedT, T: 303.15})
			m.AddVolumeSource(0.06, 0.10, 0.06, 0.10, 0, 0.004, 10)
			res, err := m.SolveSteady(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, [2]string{
				fmt.Sprintf("%d×%d×3", n, n),
				fmt.Sprintf("max %.2f °C", units.KToC(res.Max()))})
		}
		if i == 0 {
			t := report.NewTable("Ablation — mesh convergence (level-2 board)",
				"grid", "hot spot")
			for _, r := range rows {
				t.AddRow(r[0], r[1])
			}
			emit("abl-mesh", t.String())
		}
	}
}

// TestBenchSmoke runs a cut-down pass of every experiment path in plain
// `go test` mode so CI catches harness regressions without -bench.
func TestBenchSmoke(t *testing.T) {
	if _, _, err := ariane500HzPlate(); err != nil {
		t.Error(err)
	}
	if _, err := imuSystem(); err != nil {
		t.Error(err)
	}
	screen := core.DefaultScreen(core.Envelope{L: 0.4, W: 0.3, H: 0.2})
	if _, err := screen.SelectCooling(100, 10); err != nil {
		t.Error(err)
	}
	cfg := cosee.Config{UseLHP: true}
	if _, err := cfg.Solve(60); err != nil {
		t.Error(err)
	}
	if _, _, err := envtest.DefaultCampaign().Run(context.Background(), e7Article(), robust.Options{Workers: 1}); err != nil {
		t.Error(err)
	}
	if _, err := nanopack.EvaluateHNC(2e5); err != nil {
		t.Error(err)
	}
	if _, err := e11Board().Predict(nil, units.CToK(80), reliability.AirborneInhabitedCargo); err != nil {
		t.Error(err)
	}
	g := tim.GreaseStandard
	if g.K <= 0 {
		t.Error("tim library unavailable")
	}
}

// ----------------------------------------------------------------------
// Extension benches: features beyond the paper's evaluation that its
// roadmap calls for (vapor chambers for 100 W/cm², transient soak,
// full-rack studies, extended qualification).

func BenchmarkExt_VaporChamber(b *testing.B) {
	vc := &twophase.VaporChamber{
		Fluid:         fluids.Water,
		Wick:          twophase.SinteredCopperWick(0.4e-3),
		Length:        0.06,
		Width:         0.06,
		Thickness:     3e-3,
		WallThickness: 0.5e-3,
		WallK:         398,
		SourceArea:    15e-3 * 15e-3,
	}
	const hPlate = 2000.0
	for i := 0; i < b.N; i++ {
		flux, err := vc.MaxFlux(units.CToK(85))
		if err != nil {
			b.Fatal(err)
		}
		keff, err := vc.EffectiveConductivity(units.CToK(85), 150, hPlate)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			rCu, err := vc.SolidSpreaderResistance(398, hPlate)
			if err != nil {
				b.Fatal(err)
			}
			rvc, err := vc.Resistance(units.CToK(85), 225)
			if err != nil {
				b.Fatal(err)
			}
			t := report.NewTable("Ext — vapor chamber vs the 100 W/cm² roadmap",
				"quantity", "value")
			t.AddRow("boiling-limit flux", fmt.Sprintf("%.0f W/cm²", units.ToWPerCm2(flux)))
			t.AddRow("225 W die (100 W/cm²) source-to-face R", fmt.Sprintf("%.4f K/W", rvc))
			t.AddRow("same geometry in solid copper", fmt.Sprintf("%.4f K/W", rCu))
			t.AddRow("equivalent solid conductivity", fmt.Sprintf("%.0f W/m·K", keff))
			emit("ext-vc", t.String())
		}
	}
}

func BenchmarkExt_SEBWarmup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bare := cosee.Config{}
		_, t90bare, err := bare.Warmup(context.Background(), 40, 30, 600)
		if err != nil {
			b.Fatal(err)
		}
		kit := cosee.Config{UseLHP: true}
		_, t90kit, err := kit.Warmup(context.Background(), 40, 30, 600)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t := report.NewTable("Ext — SEB power-on soak (40 W)", "configuration", "t90")
			t.AddRow("without LHP", fmt.Sprintf("%.0f s", t90bare))
			t.AddRow("with HP+LHP kit", fmt.Sprintf("%.0f s", t90kit))
			emit("ext-warmup", t.String())
		}
	}
}

func BenchmarkExt_ExtendedQualification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, _, err := envtest.DefaultExtended().Run(context.Background(), e7Article(), robust.Options{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t := report.NewTable("Ext — extended qualification (paper's four + DO-160 shock/sweep)",
				"test", "result", "detail")
			for _, r := range results {
				mark := "PASS"
				if !r.Pass {
					mark = "FAIL"
				}
				t.AddRow(r.Test, mark, r.Detail)
			}
			emit("ext-qual", t.String())
		}
	}
}

func BenchmarkExt_EquipmentStudy(b *testing.B) {
	screen := core.DefaultScreen(core.Envelope{L: 0.5, W: 0.3, H: 0.26})
	for i := 0; i < b.N; i++ {
		mk := func(name string, cpuW float64) *core.BoardDesign {
			return &core.BoardDesign{
				Name: name, LengthM: 0.16, WidthM: 0.23, ThicknessM: 2.4e-3,
				CopperLayers: 12, CopperOz: 2, CopperCover: 0.7,
				EdgeCooling: core.ForcedAir, ChannelH: 55,
				MassLoadKgM2: 3,
				Components: []*compact.Component{
					{RefDes: "U1", Pkg: compact.FCBGACPU, Power: cpuW, X: 0.08, Y: 0.115},
					{RefDes: "U2", Pkg: compact.BGA256, Power: 2, X: 0.04, Y: 0.06},
				},
			}
		}
		eq := &core.Equipment{
			Name:     "mission-computer",
			Envelope: core.Envelope{L: 0.5, W: 0.3, H: 0.26},
			Boards: []*core.BoardDesign{
				mk("cpu-a", 7), mk("cpu-b", 7), mk("io", 3),
			},
			InletAirC: 40,
		}
		rep, err := core.StudyEquipment(context.Background(), eq, screen)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t := report.NewTable("Ext — equipment-level study (3-board rack)",
				"quantity", "value")
			t.AddRow("total power", fmt.Sprintf("%.0f W", rep.TotalPowerW))
			t.AddRow("ARINC mass flow", fmt.Sprintf("%.1f kg/h", units.ToKgPerHour(rep.MassFlow)))
			t.AddRow("rack air rise", fmt.Sprintf("%.1f K", rep.AirRiseK))
			for _, br := range rep.Boards {
				t.AddRow("board "+br.Board.Name, fmt.Sprintf(
					"board max %.1f °C, worst Tj %.1f °C", br.Level2.MaxBoardC, br.Level3.WorstC))
			}
			t.AddRow("verdict", fmt.Sprintf("feasible: %v", rep.Feasible))
			emit("ext-eq", t.String())
		}
	}
}

func BenchmarkExt_PlateFEMvsClosedForm(b *testing.B) {
	fr4 := materials.FR4
	for i := 0; i < b.N; i++ {
		ref := &mech.Plate{A: 0.16, B: 0.10, Thickness: 1.6e-3, Material: fr4, Edges: mech.SSSS}
		want, err := ref.FundamentalHz()
		if err != nil {
			b.Fatal(err)
		}
		fem, err := mech.NewPlateFEM(0.16, 0.10, 1.6e-3, fr4, 8, 8)
		if err != nil {
			b.Fatal(err)
		}
		got, err := fem.FundamentalHz()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			loaded, _ := mech.NewPlateFEM(0.16, 0.10, 1.6e-3, fr4, 8, 8)
			loaded.PointMasses = []mech.PointMass{{X: 0.08, Y: 0.05, Kg: 0.1}}
			fLoaded, err := loaded.FundamentalHz()
			if err != nil {
				b.Fatal(err)
			}
			t := report.NewTable("Ext — Kirchhoff plate FEM (ACM) vs closed form",
				"case", "f1")
			t.AddRow("closed-form SSSS Eurocard", fmt.Sprintf("%.1f Hz", want))
			t.AddRow("ACM FEM 8×8", fmt.Sprintf("%.1f Hz (%.1f%% low — non-conforming)", got, (1-got/want)*100))
			t.AddRow("FEM + 100 g centre transformer", fmt.Sprintf("%.1f Hz", fLoaded))
			emit("ext-fem", t.String())
		}
	}
}

func BenchmarkExt_WedgeLockTorque(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var rows [][2]string
		for _, torque := range []float64{0.3, 0.6, 1.2} {
			w := joints.DefaultWedgeLock()
			w.TorqueNm = torque
			g, err := w.Conductance()
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, [2]string{
				fmt.Sprintf("%.1f N·m", torque),
				fmt.Sprintf("%.1f W/K (%.2f K/W per lock)", g, 1/g)})
		}
		if i == 0 {
			t := report.NewTable("Ext — wedge-lock conductance vs torque (CMY contact model)",
				"screw torque", "edge conductance")
			for _, r := range rows {
				t.AddRow(r[0], r[1])
			}
			emit("ext-wedge", t.String())
		}
	}
}

func BenchmarkExt_AltitudeDerating(b *testing.B) {
	for i := 0; i < b.N; i++ {
		type row struct {
			alt  float64
			nat  float64
			forc float64
		}
		var rows []row
		for _, alt := range []float64{0, materials.CabinAltitudeM, 8000, 12192} {
			n, err := materials.NaturalConvectionDerate(alt)
			if err != nil {
				b.Fatal(err)
			}
			f, err := materials.ForcedConvectionDerate(alt)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, row{alt, n, f})
		}
		if i == 0 {
			t := report.NewTable("Ext — convective cooling derating with altitude (ISA)",
				"altitude", "natural convection", "forced (const-V fan)")
			for _, r := range rows {
				t.AddRow(fmt.Sprintf("%.0f m", r.alt),
					fmt.Sprintf("%.0f%%", r.nat*100),
					fmt.Sprintf("%.0f%%", r.forc*100))
			}
			t.AddRow("design rule", "sealed boxes lose half their cooling at cruise", "-")
			emit("ext-alt", t.String())
		}
	}
}

func BenchmarkExt_RackFlowBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rack := &convection.RackFlow{
			InletC: 40,
			Channels: []convection.Channel{
				{Name: "slot1", K: 4e6, PowerW: 60, Area: 1e-3},
				{Name: "slot2", K: 4e6, PowerW: 60, Area: 1e-3},
				{Name: "slot3-restricted", K: 16e6, PowerW: 60, Area: 1e-3},
			},
		}
		q, err := rack.RequiredFlowForExitLimit(56)
		if err != nil {
			b.Fatal(err)
		}
		s, err := rack.SolveSplit(q)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t := report.NewTable("Ext — rack flow network (restricted slot sizing)",
				"quantity", "value")
			t.AddRow("required total flow for 56 °C exits", fmt.Sprintf("%.1f l/s", q*1000))
			for j, c := range rack.Channels {
				t.AddRow("  "+c.Name, fmt.Sprintf("%.1f l/s, exit %.1f °C", s.Q[j]*1000, s.ExitC[j]))
			}
			t.AddRow("plenum pressure", fmt.Sprintf("%.0f Pa", s.DP))
			emit("ext-rack", t.String())
		}
	}
}

func BenchmarkExt_CompactBCI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := compact.BCIStudy(context.Background(), "BGA256", 3, compact.StandardBCIEnvironments())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t := report.NewTable("Ext — compact-model boundary-condition independence (BGA256, 3 W)",
				"environment", "DELPHI Tj", "two-resistor Tj", "spread")
			for j, env := range res.Environments {
				t.AddRow(env,
					fmt.Sprintf("%.1f °C", units.KToC(res.TjDelphi[j])),
					fmt.Sprintf("%.1f °C", units.KToC(res.TjTwoR[j])),
					fmt.Sprintf("%.1f K", res.Spread[j]))
			}
			t.AddRow("worst spread", "-", "-", fmt.Sprintf("%.1f K", res.MaxSpreadK))
			emit("ext-bci", t.String())
		}
	}
}

func BenchmarkExt_ConjugateChannel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		board := &core.BoardDesign{
			Name: "conjugate", LengthM: 0.2, WidthM: 0.1, ThicknessM: 2e-3,
			CopperLayers: 8, CopperOz: 1, CopperCover: 0.5,
			EdgeCooling: core.ForcedAir, ChannelH: 50, ChannelAirC: 40,
			Components: []*compact.Component{
				{RefDes: "UP", Pkg: compact.BGA256, Power: 5, X: 0.04, Y: 0.05},
				{RefDes: "DOWN", Pkg: compact.BGA256, Power: 5, X: 0.16, Y: 0.05},
			},
		}
		res, err := core.ConjugateStudy(context.Background(), board, 1.5e-3, 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t := report.NewTable("Ext — conjugate board/channel coupling (air heats downstream)",
				"quantity", "value")
			t.AddRow("channel air inlet → exit", fmt.Sprintf("%.1f → %.1f °C",
				res.AirC[0], res.AirC[len(res.AirC)-1]))
			t.AddRow("upstream BGA local board T", fmt.Sprintf("%.1f °C", res.LocalC["UP"]))
			t.AddRow("downstream BGA local board T", fmt.Sprintf("%.1f °C (identical part, hotter air)", res.LocalC["DOWN"]))
			t.AddRow("coupling iterations", fmt.Sprintf("%d", res.Iterations))
			emit("ext-conj", t.String())
		}
	}
}

func BenchmarkExt_ThermosyphonOption(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lhp := cosee.Config{UseLHP: true}
		tsy := cosee.Config{UseLHP: true, UseThermosyphon: true}
		tsyTilt := cosee.Config{UseLHP: true, UseThermosyphon: true, TiltDeg: 40}
		cL, err := lhp.CapabilityAt(context.Background(), 60)
		if err != nil {
			b.Fatal(err)
		}
		cT, err := tsy.CapabilityAt(context.Background(), 60)
		if err != nil {
			b.Fatal(err)
		}
		cTT, err := tsyTilt.CapabilityAt(context.Background(), 60)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t := report.NewTable("Ext — the paper's three two-phase options on the SEB",
				"retrofit", "capability @ΔT=60K", "40° tilt")
			t.AddRow("loop heat pipes (ammonia)", fmt.Sprintf("%.0f W", cL), "≈unchanged")
			t.AddRow("thermosyphons (R134a)", fmt.Sprintf("%.0f W", cT),
				fmt.Sprintf("%.0f W (gravity return inverted)", cTT))
			emit("ext-tsy", t.String())
		}
	}
}

func BenchmarkExt_FleetEconomics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := cosee.FleetStudy(context.Background(), 300, 60, 5, 40000, 4000, 45)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t := report.NewTable("Ext — fans vs passive across a 300-seat cabin (§IV.A motivation)",
				"quantity", "value")
			t.AddRow("fan electrical burden", fmt.Sprintf("%.0f W", res.FanPowerTotalW))
			t.AddRow("fan replacements per year", fmt.Sprintf("%.0f", res.FanFailuresPerYear))
			t.AddRow("passive kit at 60 W/box", fmt.Sprintf("ΔT %.1f K (ok: %v) — no fans, no filters, no power",
				res.PassiveDeltaTK, res.PassiveOK))
			emit("ext-fleet", t.String())
		}
	}
}

func BenchmarkExt_SealedBox(b *testing.B) {
	for i := 0; i < b.N; i++ {
		box := core.DefaultSealedBox()
		res, err := box.Solve(context.Background(), 20)
		if err != nil {
			b.Fatal(err)
		}
		pMax, err := box.MaxPower(context.Background(), 95)
		if err != nil {
			b.Fatal(err)
		}
		alt := core.DefaultSealedBox()
		alt.AltitudeM = 12192
		pAlt, err := alt.MaxPower(context.Background(), 95)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t := report.NewTable("Ext — sealed-box architecture (§III free convection + radiation)",
				"quantity", "value")
			t.AddRow("20 W operating point", fmt.Sprintf("board %.1f °C, case %.1f °C (amb 40 °C)",
				res.BoardC, res.CaseC))
			t.AddRow("gap radiation share", fmt.Sprintf("%.0f%% (why internals are blackened)",
				res.GapRadiationShare*100))
			t.AddRow("capacity @ board ≤95 °C", fmt.Sprintf("%.0f W", pMax))
			t.AddRow("same at FL400 (unpressurized)", fmt.Sprintf("%.0f W", pAlt))
			emit("ext-sealed", t.String())
		}
	}
}

// ----------------------------------------------------------------------
// Parallel-vs-serial pairs: each serial benchmark has a parallel twin
// (workers = GOMAXPROCS) producing bitwise-identical results, so the
// BENCH_*.json history tracks the worker-pool speedup directly.

func parallelBenchPowers() []float64 {
	return []float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}
}

func BenchmarkPar_Fig10SweepSerial(b *testing.B) {
	powers := parallelBenchPowers()
	for i := 0; i < b.N; i++ {
		cfg := cosee.Config{UseLHP: true}
		if _, _, err := cfg.Sweep(context.Background(), powers, robust.Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPar_Fig10SweepParallel(b *testing.B) {
	powers := parallelBenchPowers()
	for i := 0; i < b.N; i++ {
		cfg := cosee.Config{UseLHP: true}
		if _, err := cfg.SweepParallel(powers, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPar_Fig10SummarySerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := cosee.RunFig10(context.Background(), cosee.Config{Structure: materials.Al6061}, robust.Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPar_Fig10SummaryParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := cosee.RunFig10(context.Background(), cosee.Config{Structure: materials.Al6061}, robust.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPar_TechnologyMapSerial(b *testing.B) {
	screen := core.DefaultScreen(core.Envelope{L: 0.4, W: 0.3, H: 0.2})
	powers := []float64{50, 150, 400, 900}
	fluxes := []float64{1, 10, 50, 100}
	for i := 0; i < b.N; i++ {
		if _, err := screen.TechnologyMap(powers, fluxes, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// bigSolverModel is the 48×48×8 = 18k-cell (≈126k nnz) conduction
// plate BenchmarkPar_SolveSteadySerial solves.
func bigSolverModel() *thermal.Model {
	g, _ := mesh.Uniform(48, 48, 8, 0.16, 0.16, 0.012)
	m, _ := thermal.NewModel(g, []materials.Material{materials.Al6061})
	m.SetFaceBC(mesh.ZMin, thermal.BC{Kind: thermal.Convection, T: 300, H: 50})
	m.AddVolumeSource(0.06, 0.1, 0.06, 0.1, 0, 0.012, 30)
	return m
}

func BenchmarkPar_SolveSteadySerial(b *testing.B) {
	m := bigSolverModel()
	reg := benchRegistry(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SolveSteady(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
	// After ResetTimer, which clears previously reported metrics.
	b.ReportMetric(1, "workers")
	reportSolverWork(b, reg)
	reportLayers(b, reg)
}

func BenchmarkPar_CampaignSerial(b *testing.B) {
	c := envtest.DefaultCampaign()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Run(context.Background(), e7Article(), robust.Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPar_CampaignParallel(b *testing.B) {
	c := envtest.DefaultCampaign()
	for i := 0; i < b.N; i++ {
		if _, err := c.RunAllParallel(e7Article(), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExt_HPPerformanceMap(b *testing.B) {
	hp := &twophase.HeatPipe{
		Fluid: fluids.Water,
		Wick:  twophase.SinteredCopperWick(0.75e-3),
		LEvap: 0.1, LAdia: 0.1, LCond: 0.1,
		RadiusVapor:   2e-3,
		WallThickness: 0.5e-3,
		WallK:         398,
	}
	for i := 0; i < b.N; i++ {
		pts, err := hp.PerformanceMap(units.CToK(5), units.CToK(150), 7)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			t := report.NewTable("Ext — copper/water heat pipe performance envelope",
				"T vapour", "capillary", "sonic", "boiling", "governing")
			for _, p := range pts {
				t.AddRow(fmt.Sprintf("%.0f °C", units.KToC(p.T)),
					fmt.Sprintf("%.0f W", p.Limits.Capillary),
					fmt.Sprintf("%.0f W", p.Limits.Sonic),
					fmt.Sprintf("%.0f W", p.Limits.Boiling),
					fmt.Sprintf("%.0f W (%s)", p.Governing, p.Mechanism))
			}
			emit("ext-hpmap", t.String())
		}
	}
}
