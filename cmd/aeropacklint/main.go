// Command aeropacklint runs aeropack's in-tree static-analysis suite
// (internal/lint) over the module and reports every violation of the
// project's physical-modelling and concurrency invariants:
//
//	unitsafety   inline unit-conversion literals outside internal/units
//	floatcmp     exact ==/!= between float64 expressions
//	panicpolicy  panics in library packages
//	nanguard     solver entry points without NaN/Inf input handling
//	spanleak     obs spans not ended on every return path
//	detguard     nondeterminism inside parallel worker bodies
//	errdrop      discarded errors and ==-compared sentinels
//	lockheld     blocking calls while a sync mutex is held
//	hotalloc     per-iteration allocation in //lint:hot kernels
//	goroleak     goroutines in library code never joined or cancelled
//	taintsize    request/flag-derived sizes reaching make or loop bounds unclamped
//	lockorder    cycles in the module-wide mutex acquisition graph
//	atomicmix    plain access to fields touched via sync/atomic elsewhere
//
// spanleak, lockheld, errdrop, goroleak and the three value-flow rules
// are interprocedural: they follow call-graph summaries across
// in-module package boundaries, so a violation hidden one call deep — or
// one package over — is reported at the caller with the full call
// chain.
//
// Usage:
//
//	go run ./cmd/aeropacklint [flags] ./...
//
// Arguments are package directories; a trailing /... lints the whole
// subtree.  With no arguments the current directory's subtree is linted.
//
// Findings that admit a provably-safe rewrite carry a machine-applicable
// fix; -fix applies every pending fix in place (gofmt-ing the touched
// files) and -fix -dry-run lists the files that would change, exiting 1
// when any fix is pending — the CI gate against drift.
//
// A finding is suppressed by placing
//
//	//lint:allow <rule>[,<rule>] [reason]
//
// on the offending line or the line above it; -audit-allows reports
// directives that have gone stale or carry no reason.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"aeropack/internal/lint"
)

// Exit codes (also shown by -h):
//
//	0  clean — no findings (or, with -audit-allows, no stale directives)
//	1  findings reported (or stale/reason-less allow directives in audit mode)
//	2  usage, load or I/O error
const (
	exitClean    = 0
	exitFindings = 1
	exitError    = 2
)

func main() {
	var (
		listRules   = flag.Bool("list", false, "list the registered rules and exit")
		quiet       = flag.Bool("q", false, "suppress type-checker warnings")
		ruleList    = flag.String("rules", "", "comma-separated rule names to run (default: all)")
		jsonOut     = flag.Bool("json", false, "write findings as aeropacklint/v1 JSON to stdout")
		sarifPath   = flag.String("sarif", "", "write findings as SARIF 2.1.0 to `file` ('-' for stdout)")
		auditAllows = flag.Bool("audit-allows", false, "report //lint:allow directives that no longer suppress anything or lack a reason")
		cacheDir    = flag.String("cache-dir", "", "content-hash result cache `directory` (default: per-user cache; empty string plus -nocache disables)")
		noCache     = flag.Bool("nocache", false, "disable the result cache")
		applyFix    = flag.Bool("fix", false, "apply machine-applicable fixes in place (gofmt included)")
		dryRun      = flag.Bool("dry-run", false, "with -fix: list files that would change without writing; exit 1 if any fix is pending")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: aeropacklint [flags] [package-dir | dir/...]...\n\n")
		flag.PrintDefaults()
		fmt.Fprintf(flag.CommandLine.Output(), "\nexit codes:\n  %d  clean\n  %d  findings (or stale //lint:allow directives with -audit-allows)\n  %d  usage, load or I/O error\n", exitClean, exitFindings, exitError)
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

	opts := lint.ModuleOptions{
		Dir:      ".",
		Patterns: flag.Args(),
		Rules:    rules,
		Audit:    *auditAllows,
	}
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

	if *auditAllows {
		for _, s := range res.Stale {
			fmt.Println(s.String())
		}
		if n := len(res.Stale); n > 0 {
			fmt.Fprintf(os.Stderr, "aeropacklint: %d allow-directive problem(s)\n", n)
			os.Exit(exitFindings)
		}
		return
	}

	if *sarifPath != "" {
		if err := writeSARIF(*sarifPath, rulesOrAll(rules), res.Findings); err != nil {
			fmt.Fprintln(os.Stderr, "aeropacklint:", err)
			os.Exit(exitError)
		}
	}
	if *jsonOut {
		if err := lint.WriteJSONFindings(os.Stdout, res.Findings); err != nil {
			fmt.Fprintln(os.Stderr, "aeropacklint:", err)
			os.Exit(exitError)
		}
	} else {
		for _, f := range res.Findings {
			fmt.Println(f.String())
		}
	}
	if *applyFix {
		changed, err := lint.ApplyFixes(res.Root, res.Findings, *dryRun)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aeropacklint:", err)
			os.Exit(exitError)
		}
		verb := "fixed"
		if *dryRun {
			verb = "would fix"
		}
		for _, file := range changed {
			fmt.Fprintf(os.Stderr, "aeropacklint: %s %s\n", verb, file)
		}
		if *dryRun && lint.PendingFixes(res.Findings) > 0 {
			fmt.Fprintf(os.Stderr, "aeropacklint: %d fix(es) pending\n", lint.PendingFixes(res.Findings))
			os.Exit(exitFindings)
		}
	}
	if len(res.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "aeropacklint: %d finding(s)\n", len(res.Findings))
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

func rulesOrAll(rules []lint.Rule) []lint.Rule {
	if rules == nil {
		return lint.Rules()
	}
	return rules
}

// writeSARIF writes the SARIF log to path, or stdout for "-".
func writeSARIF(path string, rules []lint.Rule, findings []lint.Finding) error {
	if path == "-" {
		return lint.WriteSARIF(os.Stdout, rules, findings)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := lint.WriteSARIF(f, rules, findings); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}
