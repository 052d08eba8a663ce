// Package lint is aeropack's in-tree static-analysis framework.  It
// enforces the project-wide physical-modelling invariants that the Go
// compiler cannot see: the strict-SI unit convention of internal/units,
// the no-exact-float-comparison rule, the library panic policy, and the
// NaN-propagation contract of the solver entry points, plus the lock,
// goroutine and span disciplines of the concurrent code.
//
// The framework is deliberately dependency-free: it is built only on
// go/ast, go/parser, go/token and go/types, so the lint gate runs
// anywhere the Go toolchain runs.  Each check is a Rule; rules register
// themselves at init time and the cmd/aeropacklint driver runs every
// registered rule over every package of the module.  Every rule reads
// one function body (or one statement list) at a time; the only state
// shared across packages is the small object-fact store in facts.go.
//
// Findings can be suppressed for a single line with a directive comment:
//
//	//lint:allow <rule>[,<rule>...] [reason]
//
// placed either at the end of the offending line or on the line
// immediately above it.  Suppressions are deliberate, reviewable
// exceptions; the reason text is free-form but encouraged.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation at one source position.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
	Hint string
	// Related points at secondary locations, e.g. the %w wrap site of
	// a sentinel errdrop finds compared with ==.  It is carried into the
	// JSON export but not into String().
	Related []Related
}

// Related is one secondary location attached to a finding.
type Related struct {
	Pos token.Position
	Msg string
}

// String renders the finding in the conventional file:line:col form used
// by Go tooling, with the fix hint in parentheses.
func (f Finding) String() string {
	s := fmt.Sprintf("%s: %s: %s", f.Pos, f.Rule, f.Msg)
	if f.Hint != "" {
		s += " (" + f.Hint + ")"
	}
	return s
}

// Package is one type-checked package presented to rules.  Test files are
// never included: every rule either ignores tests by policy (floatcmp,
// panicpolicy, nanguard) or treats them as out of scope (unitsafety).
type Package struct {
	// ImportPath is the package's import path, e.g.
	// "aeropack/internal/thermal".
	ImportPath string
	// ModPath is the path of the module the package belongs to, e.g.
	// "aeropack".
	ModPath string
	// Dir is the directory the package was loaded from.
	Dir string
	// Fset is the file set positions resolve against.
	Fset *token.FileSet
	// Files are the parsed non-test source files.
	Files []*ast.File
	// Pkg is the type-checked package (possibly incomplete if the
	// checker reported errors; rules must tolerate missing info).
	Pkg *types.Package
	// Info carries expression types, definitions and uses.
	Info *types.Info
	// Facts is the cross-package fact store for this run (may be nil;
	// rules that consume facts must tolerate that).
	Facts *Facts

	// allow maps rule name → source line → suppressed.
	allow map[string]map[int]bool
	// directives lists every parsed //lint:allow directive, for the
	// staleness audit.
	directives []AllowDirective
}

// AllowDirective is one parsed //lint:allow comment.
type AllowDirective struct {
	// Pos is the directive comment's position.
	Pos token.Position
	// Rules are the rule names the directive suppresses.
	Rules []string
	// Reason is the free-form justification text after the rule list.
	Reason string
}

// Rule is one self-contained analysis pass.
type Rule interface {
	// Name is the rule identifier used in reports and allow directives.
	Name() string
	// Doc is a one-line description shown by the driver's -rules flag.
	Doc() string
	// Check inspects one package and returns raw findings; the framework
	// applies //lint:allow filtering afterwards.
	Check(p *Package) []Finding
}

var registry []Rule

// Register adds a rule to the global registry.  Rules call it from init.
func Register(r Rule) { registry = append(registry, r) }

// Rules returns the registered rules sorted by name.
func Rules() []Rule {
	out := append([]Rule(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// allowDirective is the comment prefix that suppresses findings.
const allowDirective = "//lint:allow"

// buildAllow scans the package's comments for //lint:allow directives and
// records, per rule, the lines they cover (the directive's own line and
// the line below, so both trailing and preceding placements work).
func (p *Package) buildAllow() {
	p.allow = make(map[string]map[int]bool)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowDirective)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				d := AllowDirective{Pos: pos, Reason: strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0]))}
				for _, rule := range strings.Split(fields[0], ",") {
					if rule == "" {
						continue
					}
					d.Rules = append(d.Rules, rule)
					if p.allow[rule] == nil {
						p.allow[rule] = make(map[int]bool)
					}
					p.allow[rule][pos.Line] = true
					p.allow[rule][pos.Line+1] = true
				}
				p.directives = append(p.directives, d)
			}
		}
	}
}

// Allowed reports whether findings for rule are suppressed at line.
func (p *Package) Allowed(rule string, line int) bool {
	if p.allow == nil {
		p.buildAllow()
	}
	return p.allow[rule][line]
}

// RunRules runs rules over the packages and returns the findings no
// //lint:allow directive suppresses, sorted by position.
func RunRules(pkgs []*Package, rules []Rule) []Finding {
	var out []Finding
	for _, p := range pkgs {
		findings, _ := p.check(rules)
		out = append(out, findings...)
	}
	SortFindings(out)
	return out
}

// check runs rules over p once and splits the raw findings into the
// ones no directive suppresses and the audit of p's directives: a
// directive naming a rule missing from the registry, one naming a rule
// that ran without a raw finding on the directive's line or the next
// (stale), and one without reason text.  A directive naming a
// registered rule that did not run is not judged stale.
func (p *Package) check(rules []Rule) ([]Finding, []StaleAllow) {
	if p.allow == nil {
		p.buildAllow()
	}
	ran := make(map[string]bool, len(rules))
	var raw []Finding
	for _, r := range rules {
		ran[r.Name()] = true
		raw = append(raw, r.Check(p)...)
	}
	type site struct {
		rule, file string
		line       int
	}
	matched := make(map[site]bool, len(raw))
	var findings []Finding
	for _, f := range raw {
		matched[site{f.Rule, f.Pos.Filename, f.Pos.Line}] = true
		if !p.allow[f.Rule][f.Pos.Line] {
			findings = append(findings, f)
		}
	}
	known := make(map[string]bool, len(registry))
	for _, r := range registry {
		known[r.Name()] = true
	}
	var stale []StaleAllow
	for _, d := range p.directives {
		for _, rule := range d.Rules {
			switch {
			case !known[rule]:
				stale = append(stale, StaleAllow{Pos: d.Pos, Rule: rule, Why: "unknown-rule"})
			case ran[rule] && !matched[site{rule, d.Pos.Filename, d.Pos.Line}] &&
				!matched[site{rule, d.Pos.Filename, d.Pos.Line + 1}]:
				stale = append(stale, StaleAllow{Pos: d.Pos, Rule: rule, Why: "stale"})
			}
		}
		if d.Reason == "" {
			stale = append(stale, StaleAllow{Pos: d.Pos, Rule: strings.Join(d.Rules, ","), Why: "no-reason"})
		}
	}
	return findings, stale
}

// SortFindings orders findings by file, line, column, then rule name.
func SortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Rule < out[j].Rule
	})
}

// isFloat64 reports whether t is (an alias of) float64.
func isFloat64(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Kind() == types.Float64 || b.Kind() == types.UntypedFloat
}

// exprIsFloat64 reports whether the expression has type float64 according
// to the (possibly incomplete) type info.
func (p *Package) exprIsFloat64(e ast.Expr) bool {
	if p.Info == nil {
		return false
	}
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return isFloat64(tv.Type)
}
