package report

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CompareOptions tunes the perf-regression watchdog: per-unit threshold
// ratios (new/old above the ratio is a regression; every compared unit
// is lower-is-better) and the noise floor below which ns/op is ignored.
type CompareOptions struct {
	// MaxRatios maps a unit to its allowed new/old ratio.  Units absent
	// from the map are not compared — custom b.ReportMetric units like
	// "workers" or "log10_residual" are configuration echoes or signed
	// quality numbers, not lower-is-better costs.
	MaxRatios map[string]float64
	// MinNs skips the ns/op comparison when BOTH sides sit under this
	// floor: sub-nanosecond guard benches (the ≤1 ns disabled paths)
	// jitter by whole multiples run-to-run while staying far inside
	// their budget.  The absolute budget for those lives in their own
	// bench-smoke gates, not in the ratio watchdog.
	MinNs float64
}

// DefaultCompareOptions is the verify.sh gate configuration: 10 % slack
// on time and allocation count, 25 % on bytes (size-class effects), 5 %
// on solver iterations and network factorizations (deterministic, so any
// growth is a real algorithmic change), 25 % on the FV solve's layers
// (assembly, preconditioner setup, Krylov loop: each one slice of ns/op,
// so it jitters more than the whole), and serve-latency
// percentiles with widening slack toward the tail (p99 is sampled from
// far fewer requests than p50, so it jitters more run-to-run).
// throughput_rps is deliberately absent: it is higher-is-better, and
// MaxRatios only models costs.
func DefaultCompareOptions() CompareOptions {
	return CompareOptions{
		MaxRatios: map[string]float64{
			"ns/op":             1.10,
			"B/op":              1.25,
			"allocs/op":         1.10,
			"solver_iters/op":   1.05,
			"factorizations/op": 1.05,
			"assemble_ns/op":    1.25,
			"prec_setup_ns/op":  1.25,
			"krylov_ns/op":      1.25,
			"p50_ms":            1.25,
			"p95_ms":            1.35,
			"p99_ms":            1.50,
		},
		MinNs: 5,
	}
}

// Regression is one metric that got worse beyond its threshold.
type Regression struct {
	Name  string  // benchmark name (with -procs when != 1)
	Unit  string  // the offending unit
	Old   float64 // baseline value
	New   float64 // candidate value
	Ratio float64 // new/old (+Inf when old == 0)
	Max   float64 // the threshold it broke
}

func (r Regression) String() string {
	return fmt.Sprintf("%s %s: %g -> %g (%.2fx, allowed %.2fx)",
		r.Name, r.Unit, r.Old, r.New, r.Ratio, r.Max)
}

// CompareReport is the outcome of diffing two bench sets.
type CompareReport struct {
	Regressions []Regression
	// Missing lists baseline benchmarks absent from the candidate —
	// not a regression by itself (benches get renamed), but always
	// reported so a silently-dropped guard bench cannot pass the gate
	// unnoticed.
	Missing []string
	// Added lists candidate benchmarks absent from the baseline.
	Added []string
	// Compared counts benchmark pairs that were actually diffed.
	Compared int
}

// OK reports whether the candidate passes the watchdog.
func (c *CompareReport) OK() bool { return len(c.Regressions) == 0 }

// String renders the report for terminal output.
func (c *CompareReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "compared %d benchmark(s)\n", c.Compared)
	for _, r := range c.Regressions {
		fmt.Fprintf(&b, "REGRESSION: %s\n", r)
	}
	for _, m := range c.Missing {
		fmt.Fprintf(&b, "missing from candidate: %s\n", m)
	}
	for _, a := range c.Added {
		fmt.Fprintf(&b, "new in candidate: %s\n", a)
	}
	if c.OK() {
		b.WriteString("OK: no regressions\n")
	}
	return b.String()
}

// benchKey identifies one benchmark result across sets: same name AND
// same GOMAXPROCS, because "-cpu" variants of a bench are different
// measurements.
type benchKey struct {
	name  string
	procs int
}

func (k benchKey) String() string {
	if k.procs == 1 {
		return k.name
	}
	return fmt.Sprintf("%s-%d", k.name, k.procs)
}

// CompareBenchSets diffs a candidate run against a baseline with the
// given thresholds, pairing benchmarks by name and procs.  A metric
// regresses when new/old exceeds its unit's MaxRatio; a metric that was
// zero in the baseline and nonzero in the candidate regresses
// unconditionally for its configured units (allocations appearing on a
// previously allocation-free path is exactly the bug the watchdog
// exists to catch).
func CompareBenchSets(old, new *BenchSet, opts CompareOptions) *CompareReport {
	rep := &CompareReport{}
	oldBy := make(map[benchKey]BenchEntry, len(old.Benchmarks))
	for _, e := range old.Benchmarks {
		oldBy[benchKey{e.Name, e.Procs}] = e
	}
	newBy := make(map[benchKey]BenchEntry, len(new.Benchmarks))
	for _, e := range new.Benchmarks {
		newBy[benchKey{e.Name, e.Procs}] = e
	}
	newKeys := make([]benchKey, 0, len(newBy))
	for k := range newBy {
		newKeys = append(newKeys, k)
	}
	sort.Slice(newKeys, func(i, j int) bool {
		return newKeys[i].name < newKeys[j].name ||
			(newKeys[i].name == newKeys[j].name && newKeys[i].procs < newKeys[j].procs)
	})
	for _, k := range newKeys {
		ne := newBy[k]
		oe, ok := oldBy[k]
		if !ok {
			rep.Added = append(rep.Added, k.String())
			continue
		}
		rep.Compared++
		if max, cmp := opts.MaxRatios["ns/op"]; cmp {
			if !(oe.NsPerOp < opts.MinNs && ne.NsPerOp < opts.MinNs) {
				check(rep, k.String(), "ns/op", oe.NsPerOp, ne.NsPerOp, max)
			}
		}
		for unit, max := range opts.MaxRatios {
			if unit == "ns/op" {
				continue
			}
			ov, oHas := oe.Metrics[unit]
			nv, nHas := ne.Metrics[unit]
			// A unit absent from either side is not comparable: -benchmem
			// may have been off, or the metric was added later.
			if !oHas || !nHas {
				continue
			}
			check(rep, k.String(), unit, ov, nv, max)
		}
	}
	oldKeys := make([]benchKey, 0, len(oldBy))
	for k := range oldBy {
		oldKeys = append(oldKeys, k)
	}
	sort.Slice(oldKeys, func(i, j int) bool {
		return oldKeys[i].name < oldKeys[j].name ||
			(oldKeys[i].name == oldKeys[j].name && oldKeys[i].procs < oldKeys[j].procs)
	})
	for _, k := range oldKeys {
		if _, ok := newBy[k]; !ok {
			rep.Missing = append(rep.Missing, k.String())
		}
	}
	return rep
}

// check appends a Regression when new/old breaks the threshold.
func check(rep *CompareReport, name, unit string, old, new, max float64) {
	switch {
	case old == 0 && new == 0:
		return
	case old == 0:
		// Zero-to-nonzero: infinite ratio, always a regression.
		rep.Regressions = append(rep.Regressions, Regression{
			Name: name, Unit: unit, Old: old, New: new,
			Ratio: math.Inf(1), Max: max,
		})
	case new/old > max:
		rep.Regressions = append(rep.Regressions, Regression{
			Name: name, Unit: unit, Old: old, New: new,
			Ratio: new / old, Max: max,
		})
	}
}
