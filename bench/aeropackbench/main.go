// Command aeropackbench is aeropack's end-to-end benchmark.  It builds
// cmd/aeropackd, launches it with a fixed configuration, drives one
// seeded workload through it from two closed-loop clients, checks every
// response, and reports user-visible metrics (latency, throughput, CPU
// and memory per request, set-up time).  With -trace 1 it reports
// per-layer metrics instead: deltas of aeropackd's /metrics counters
// over the same window, and span timings from a traced in-process
// replay of the workload's first bodies.
//
// Usage, from the repository root:
//
//	sh bench/run.sh --workload board-linear --seed 1 --seconds 20 --trace 0
//	sh bench/run.sh -seed 1 -out results.json    # all four workloads
//	sh bench/run.sh -seed 1 -trace 1             # per-layer metrics
//
// With one -workload, the last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.  The exit
// status is non-zero when a run fails or any output check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"aeropack/bench/workload"
)

// maxSeconds bounds -seconds, so that a typo cannot make a run allocate
// or last without bound.
const maxSeconds = 600

// config is one invocation's settings.
type config struct {
	repo      string // repository root (holds go.mod and cmd/aeropackd)
	daemon    string // aeropackd binary
	seed      int64
	seconds   int
	count     int // measured items; 0 derives it from seconds (tests set it)
	trace     bool
	traceDir  string // where the replay's Chrome traces go
	setupRuns int
}

func main() {
	runtime.GOMAXPROCS(2)
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("aeropackbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (empty runs all: "+strings.Join(names(), ", ")+")")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 20, "run length the request counts are sized for, in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from counters and a traced replay")
	traceDir := fs.String("trace-dir", "", "directory for the replays' Chrome traces, trace-<workload>.json (default .bench_build)")
	out := fs.String("out", "", "also write every workload's result as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "aeropackbench: -trace takes 0 or 1")
		return 2
	}
	cfg := config{
		seed:      *seed,
		seconds:   min(max(*seconds, 1), maxSeconds),
		trace:     *trace == 1,
		traceDir:  *traceDir,
		setupRuns: 3,
	}
	specs := workload.Specs
	if *name != "" {
		s, err := workload.Lookup(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aeropackbench:", err)
			return 2
		}
		specs = []workload.Spec{s}
	}
	var err error
	if cfg.repo, err = findRepo(); err != nil {
		fmt.Fprintln(os.Stderr, "aeropackbench:", err)
		return 2
	}
	cfg.daemon = filepath.Join(cfg.repo, ".bench_build", "aeropackd")
	if cfg.traceDir == "" {
		cfg.traceDir = filepath.Join(cfg.repo, ".bench_build")
	}
	if err := buildDaemon(cfg.repo, cfg.daemon); err != nil {
		fmt.Fprintln(os.Stderr, "aeropackbench:", err)
		return 2
	}

	all := make(map[string]*result, len(specs))
	ok := true
	for _, s := range specs {
		res, err := runWorkload(cfg, s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "aeropackbench: %s: %v\n", s.Name, err)
			return 1
		}
		res.print(os.Stdout, s.Name)
		all[s.Name] = res
		ok = ok && res.Correct
	}
	if *out != "" {
		if err := writeJSON(*out, report{Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Workloads: all}); err != nil {
			fmt.Fprintln(os.Stderr, "aeropackbench:", err)
			return 1
		}
	}
	if len(specs) == 1 {
		line, err := json.Marshal(all[specs[0].Name].summary())
		if err != nil {
			fmt.Fprintln(os.Stderr, "aeropackbench:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	if !ok {
		return 1
	}
	return 0
}

func names() []string {
	var out []string
	for _, s := range workload.Specs {
		out = append(out, s.Name)
	}
	return out
}

// findRepo returns the nearest directory at or above the working one
// that holds go.mod and cmd/aeropackd.
func findRepo() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for d := wd; ; d = filepath.Dir(d) {
		if isRepo(d) {
			return d, nil
		}
		if filepath.Dir(d) == d {
			return "", errors.New("no directory at or above the working one holds go.mod and cmd/aeropackd; run from the repository")
		}
	}
}

func isRepo(dir string) bool {
	for _, f := range []string{"go.mod", filepath.Join("cmd", "aeropackd", "main.go")} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			return false
		}
	}
	return true
}

// report is the -out document.
type report struct {
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Trace     bool               `json:"trace"`
	Workloads map[string]*result `json:"workloads"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
