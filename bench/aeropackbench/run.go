package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"aeropack/bench/workload"
)

// runWorkload runs one workload: set aeropackd up cfg.setupRuns times
// (keeping the last), drive the measured sequence, check the outputs,
// and report the end-to-end metrics, or with cfg.trace the per-layer
// metrics.
func runWorkload(cfg config, spec workload.Spec) (*result, error) {
	n := cfg.count
	if n == 0 {
		n = int(math.Round(spec.PerSecond * float64(cfg.seconds)))
	}
	set, err := workload.Generate(spec.Name, cfg.seed, n)
	if err != nil {
		return nil, err
	}
	res := newResult()
	clock0 := clockStepNs()

	// Set-up: exec to healthy plus warm-up, timed on several launches.
	// All but the last daemon are stopped again; the median is reported.
	var setups []float64
	var d *daemon
	for i := 0; i < max(cfg.setupRuns, 1); i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if d, err = startDaemon(cfg.daemon); err != nil {
			return nil, err
		}
		w := drive(d.base, set.Warmup, nil, nil)
		setups = append(setups, time.Since(t0).Seconds())
		if w.completed != w.attempted {
			res.fail("warm-up: %d of %d requests failed: %s", w.attempted-w.completed, w.attempted, strings.Join(w.problems, "; "))
		}
	}

	m, err := measure(d, set, cfg.seed)
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	// The host's speed over the run: the loop timed before set-up and
	// after the window, each with aeropackd idle or stopped.
	res.ClockNsPerStep = (clock0 + clockStepNs()) / 2
	lr := m.load
	res.Attempted = lr.attempted
	res.Failed = lr.attempted - lr.completed
	res.ResponsesSHA256 = lr.digest
	for _, p := range lr.problems {
		res.fail("%s", p)
	}
	if res.Failed > 0 {
		res.fail("%d of %d measured requests failed", res.Failed, res.Attempted)
	}
	if len(lr.samples) < min(minSamples, lr.completed) {
		res.fail("only %d responses kept for recomputation", len(lr.samples))
	}
	bad, err := recompute(lr.samples)
	if err != nil {
		return nil, err
	}
	for _, b := range bad {
		res.fail("recompute: %s", b)
	}
	for _, body := range lr.fig10 {
		if err := checkFig10(body); err != nil {
			res.fail("%v", err)
		}
	}

	if !cfg.trace {
		// Rates, CPU and latency percentiles are medians over the parts of
		// the window (workload.Parts).  Times are scaled to the reference
		// host speed (clock.go).
		scale := refStepNs / res.ClockNsPerStep
		perPart := func(f func(p *part, done float64) float64) float64 {
			var xs []float64
			for i := range lr.parts {
				if p := &lr.parts[i]; len(p.latencies) > 0 {
					xs = append(xs, f(p, float64(len(p.latencies))))
				}
			}
			return median(xs)
		}
		res.add("setup_s", scale*median(setups), "s")
		res.add("latency_p50_ms", scale*perPart(func(p *part, _ float64) float64 { return quantile(p.latencies, 0.50) }), "ms")
		res.add("latency_p95_ms", scale*perPart(func(p *part, _ float64) float64 { return quantile(p.latencies, 0.95) }), "ms")
		res.add("throughput_rps", perPart(func(p *part, done float64) float64 { return done / p.dur.Seconds() })/scale, "1/s")
		res.add("cpu_ms_per_req", scale*perPart(func(p *part, done float64) float64 { return 1000 * p.serverCPU / done }), "ms")
		res.add("rss_mb", perPart(func(p *part, _ float64) float64 { return p.rssMB }), "MB")
		return res, nil
	}

	addCounted(res, m)
	res.add("host.clock_ns_per_step", res.ClockNsPerStep, "ns")
	tr := &tracer{}
	rp, err := replay(set.Measured, spec.Replay, tr)
	if err != nil {
		return nil, err
	}
	for _, p := range rp.problems {
		res.fail("replay: %s", p)
	}
	addTraced(res, rp)
	if err := writeJSON(filepath.Join(cfg.traceDir, "trace-"+spec.Name+".json"), tr.chrome()); err != nil {
		return nil, fmt.Errorf("writing the trace: %w", err)
	}
	return res, nil
}

// measurement is what one measured window observed.
type measurement struct {
	load          *loadResult
	before, after map[string]float64 // aeropackd /metrics
	clientCPU     float64            // this process's CPU seconds over the window
}

// measure drives set.Measured through d between two /metrics scrapes.
func measure(d *daemon, set *workload.Set, seed int64) (*measurement, error) {
	client := &http.Client{Timeout: requestTimeout, Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	pid := d.cmd.Process.Pid
	keep := sampleAt(seed, set.Requests())
	m := &measurement{}
	var err error
	if m.before, err = scrape(client, d.base); err != nil {
		return nil, err
	}
	// A failed read poisons its part with NaN, found below.
	read := func() (float64, float64) {
		cpu, err1 := procCPU(pid)
		rss, err2 := residentMB(pid)
		if err1 != nil || err2 != nil {
			return math.NaN(), math.NaN()
		}
		return cpu, rss
	}
	self0 := selfCPU()
	m.load = drive(d.base, set.Measured, keep, read)
	m.clientCPU = selfCPU() - self0
	for _, p := range m.load.parts {
		if math.IsNaN(p.serverCPU) || math.IsNaN(m.load.serverCPU) {
			return nil, fmt.Errorf("could not read aeropackd's CPU time and memory from /proc/%d", pid)
		}
	}
	if m.after, err = scrape(client, d.base); err != nil {
		return nil, err
	}
	return m, nil
}

// sampleAt draws the send positions whose responses are recomputed.
func sampleAt(seed int64, requests int) map[int]bool {
	rng := rand.New(rand.NewSource(seed ^ 0x6a09e667f3bcc908))
	keep := map[int]bool{}
	for _, p := range rng.Perm(requests)[:min(minSamples, requests)] {
		keep[p] = true
	}
	return keep
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}
