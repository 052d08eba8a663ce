// Command benchjson converts `go test -bench` text output into the
// aeropack-bench/v1 JSON schema used by the BENCH_*.json perf-trajectory
// files at the repository root, and diffs two such files as a
// perf-regression watchdog.
//
// Usage:
//
//	go test -run - -bench . -benchmem . | benchjson -o BENCH_obs.json
//	benchjson -in bench.txt              # JSON to stdout
//	benchjson -compare old.json new.json # exit 2 on regression
//
// In -compare mode the two positional arguments are the baseline and the
// candidate aeropack-bench/v1 files.  Benchmarks are paired by name and
// GOMAXPROCS; a metric regresses when candidate/baseline exceeds its
// unit's threshold (ns/op and allocs/op 1.10, B/op 1.25, solver_iters/op
// and factorizations/op 1.05 by default).  ns/op pairs where both sides
// sit under -min-ns are skipped — sub-nanosecond guard benches jitter by
// whole multiples while staying inside budget.  Exit status: 0 clean, 1 usage/IO error,
// 2 regression detected.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"aeropack/internal/report"
)

func main() {
	in := flag.String("in", "", "bench output file to read (default: stdin)")
	out := flag.String("o", "", "JSON file to write (default: stdout)")
	compare := flag.Bool("compare", false, "compare two bench JSON files: benchjson -compare old.json new.json")
	threshold := flag.Float64("threshold", 0, "override every per-unit ratio threshold with this single value (e.g. 1.20); 0 keeps the defaults")
	minNs := flag.Float64("min-ns", -1, "ns/op noise floor for -compare: pairs with both sides under it are not ratio-checked (default 5)")
	flag.Parse()

	if *compare {
		os.Exit(runCompare(flag.Args(), *threshold, *minNs))
	}

	var src io.Reader = os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() { _ = f.Close() }() // read-only; nothing to do about a close error
		src = f
	}
	set, err := report.ParseBench(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var dst io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}()
		dst = f
	}
	if err := set.WriteJSON(dst); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runCompare implements -compare and returns the process exit code.
func runCompare(paths []string, threshold, minNs float64) int {
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: old.json new.json")
		return 1
	}
	oldSet, err := readBenchFile(paths[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	newSet, err := readBenchFile(paths[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	opts := report.DefaultCompareOptions()
	if threshold > 0 {
		for unit := range opts.MaxRatios {
			opts.MaxRatios[unit] = threshold
		}
	}
	if minNs >= 0 {
		opts.MinNs = minNs
	}
	rep := report.CompareBenchSets(oldSet, newSet, opts)
	fmt.Printf("benchjson: %s vs %s\n%s", paths[0], paths[1], rep)
	if !rep.OK() {
		return 2
	}
	return 0
}

func readBenchFile(path string) (*report.BenchSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-only; nothing to do about a close error
	set, err := report.ReadBenchJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}
