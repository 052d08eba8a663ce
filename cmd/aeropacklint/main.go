// Command aeropacklint runs aeropack's in-tree static-analysis suite
// (internal/lint) over the module and reports every violation of the
// project's physical-modelling and concurrency invariants:
//
//	unitsafety   inline unit-conversion literals outside internal/units
//	floatcmp     exact ==/!= between float64 expressions
//	panicpolicy  panics in library packages
//	nanguard     solver entry points without NaN/Inf input handling
//	spanleak     obs spans not closed by defer sp.End() on the next statement
//	detguard     nondeterminism inside parallel worker bodies
//	errdrop      discarded errors and ==-compared sentinels
//	lockheld     blocking ops, second locks or calls into other module packages under a mutex
//	hotalloc     per-iteration allocation in //lint:hot kernels
//	goroleak     go statements in internal/ without a directive naming their join
//
// Every rule reads one function body at a time; only the wrapped-
// sentinel and magic-constant facts cross package boundaries.
//
// Usage:
//
//	go run ./cmd/aeropacklint [flags] ./...
//
// Arguments are package directories; a trailing /... lints the whole
// subtree.  With no arguments the current directory's subtree is linted.
//
// A finding is suppressed by placing
//
//	//lint:allow <rule>[,<rule>] [reason]
//
// on the offending line or the line above it.  Every run also audits
// the directives: one that names an unknown rule, lacks a reason, or
// names a rule that ran but found nothing on its line or the next
// (stale) is reported next to the findings and fails the run.
// Results, audit included, are cached per package by content hash.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"aeropack/internal/lint"
)

// Exit codes (also shown by -h):
//
//	0  clean — no findings and no //lint:allow directive problems
//	1  findings or directive problems reported
//	2  usage, load or I/O error
const (
	exitClean    = 0
	exitFindings = 1
	exitError    = 2
)

func main() {
	var (
		listRules = flag.Bool("list", false, "list the registered rules and exit")
		quiet     = flag.Bool("q", false, "suppress type-checker warnings")
		ruleList  = flag.String("rules", "", "comma-separated rule names to run (default: all)")
		jsonOut   = flag.Bool("json", false, "write findings as aeropacklint/v1 JSON to stdout (directive problems go to stderr)")
		cacheDir  = flag.String("cache-dir", "", "content-hash result cache `directory` (default: per-user cache)")
		noCache   = flag.Bool("nocache", false, "disable the result cache")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: aeropacklint [flags] [package-dir | dir/...]...\n\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\nexit codes:\n  %d  clean\n  %d  findings or //lint:allow directive problems\n  %d  usage, load or I/O error\n", exitClean, exitFindings, exitError)
	}
	flag.Parse()

	if *listRules {
		for _, r := range lint.Rules() {
			fmt.Printf("%-12s %s\n", r.Name(), r.Doc())
		}
		return
	}

	rules, err := selectRules(*ruleList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aeropacklint:", err)
		os.Exit(exitError)
	}

	opts := lint.ModuleOptions{Dir: ".", Patterns: flag.Args(), Rules: rules}
	if !*noCache {
		dir := *cacheDir
		if dir == "" {
			if loader, err := lint.NewLoader("."); err == nil {
				dir = lint.DefaultCacheDir(loader.Root)
			}
		}
		if dir != "" {
			opts.Cache = &lint.Cache{Dir: dir}
		}
	}

	res, err := lint.RunModule(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aeropacklint:", err)
		os.Exit(exitError)
	}
	if !*quiet {
		for _, w := range res.TypeErrors {
			fmt.Fprintln(os.Stderr, "aeropacklint: warning: typecheck:", w)
		}
	}

	var staleOut io.Writer = os.Stdout
	if *jsonOut {
		staleOut = os.Stderr
		if err := lint.WriteJSONFindings(os.Stdout, res.Findings); err != nil {
			fmt.Fprintln(os.Stderr, "aeropacklint:", err)
			os.Exit(exitError)
		}
	} else {
		for _, f := range res.Findings {
			fmt.Println(f.String())
		}
	}
	for _, s := range res.Stale {
		fmt.Fprintln(staleOut, s.String())
	}
	if len(res.Findings) > 0 || len(res.Stale) > 0 {
		fmt.Fprintf(os.Stderr, "aeropacklint: %d finding(s), %d allow-directive problem(s)\n", len(res.Findings), len(res.Stale))
		os.Exit(exitFindings)
	}
}

// selectRules resolves the -rules flag; nil means "all registered".
func selectRules(list string) ([]lint.Rule, error) {
	if list == "" {
		return nil, nil
	}
	byName := make(map[string]lint.Rule)
	for _, r := range lint.Rules() {
		byName[r.Name()] = r
	}
	var out []lint.Rule
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		r, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown rule %q (run -list for the registry)", name)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-rules selected no rules")
	}
	return out, nil
}
