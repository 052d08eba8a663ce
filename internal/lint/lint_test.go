package lint

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/types"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// loadTestPackage parses one testdata source file and type-checks it
// under a fake import path, so each rule sees the package scope it would
// see in the real tree (nanguard and panicpolicy key off the path).
func loadTestPackage(t *testing.T, path, importPath string) *Package {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	f, err := parser.ParseFile(l.Fset, path, nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l, Error: func(error) {}}
	pkg, _ := conf.Check(importPath, l.Fset, []*ast.File{f}, info)
	p := &Package{
		ImportPath: importPath,
		ModPath:    l.ModPath,
		Fset:       l.Fset,
		Files:      []*ast.File{f},
		Pkg:        pkg,
		Info:       info,
	}
	// Gather cross-package facts over the dependencies the import above
	// pulled in (e.g. linalg's %w wrap of ErrStopped) plus the test
	// package itself, mirroring the RunModule pipeline.
	facts := NewFacts()
	facts.Gather(append(l.Loaded(), p))
	p.Facts = facts
	return p
}

func ruleByName(t *testing.T, name string) Rule {
	t.Helper()
	for _, r := range Rules() {
		if r.Name() == name {
			return r
		}
	}
	t.Fatalf("rule %q not registered", name)
	return nil
}

// TestGolden runs each rule over its testdata source and compares the
// surviving findings (after //lint:allow filtering) against a golden
// file.  Every source demonstrates at least one flagged violation and
// one suppressed line; run with -update to regenerate.
func TestGolden(t *testing.T) {
	cases := []struct {
		name       string
		rule       string
		src        string
		importPath string
	}{
		{"unitsafety", "unitsafety", "testdata/unitsafety_src.go", "aeropack/internal/thermal"},
		{"unitsafety_fact", "unitsafety", "testdata/unitsafety_fact_src.go", "aeropack/internal/cosee"},
		{"floatcmp", "floatcmp", "testdata/floatcmp_src.go", "aeropack/internal/thermal"},
		{"panicpolicy", "panicpolicy", "testdata/panicpolicy_src.go", "aeropack/internal/thermal"},
		{"panicpolicy_linalg", "panicpolicy", "testdata/panicpolicy_linalg_src.go", "aeropack/internal/linalg"},
		{"nanguard", "nanguard", "testdata/nanguard_src.go", "aeropack/internal/thermal"},
		{"spanleak", "spanleak", "testdata/spanleak_src.go", "aeropack/internal/thermal"},
		{"spanleak_ipa", "spanleak", "testdata/spanleak_ipa_src.go", "aeropack/internal/thermal"},
		{"detguard", "detguard", "testdata/detguard_src.go", "aeropack/internal/cosee"},
		{"errdrop", "errdrop", "testdata/errdrop_src.go", "aeropack/internal/cosee"},
		{"lockheld", "lockheld", "testdata/lockheld_src.go", "aeropack/internal/cosee"},
		{"lockheld_ipa", "lockheld", "testdata/lockheld_ipa_src.go", "aeropack/internal/cosee"},
		{"goroleak", "goroleak", "testdata/goroleak_src.go", "aeropack/internal/cosee"},
		{"hotalloc", "hotalloc", "testdata/hotalloc_src.go", "aeropack/internal/cosee"},
		{"lockorder", "lockheld", "testdata/lockorder_src.go", "aeropack/internal/cosee"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := loadTestPackage(t, tc.src, tc.importPath)
			findings := RunRules([]*Package{p}, []Rule{ruleByName(t, tc.rule)})
			var b strings.Builder
			for _, f := range findings {
				b.WriteString(f.String())
				b.WriteByte('\n')
			}
			got := b.String()
			if len(findings) == 0 {
				t.Fatal("testdata must demonstrate at least one flagged violation")
			}

			golden := "testdata/" + tc.name + ".golden"
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run go test -run Golden -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings diverge from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
			}

			// The allow directive in the source must have suppressed its
			// line: no reported position may coincide with a directive.
			src, err := os.ReadFile(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(src), allowDirective) {
				t.Fatalf("%s must demonstrate a //lint:allow suppression", tc.src)
			}
			for i, line := range strings.Split(string(src), "\n") {
				if !strings.Contains(line, allowDirective) {
					continue
				}
				for _, f := range findings {
					if f.Pos.Line == i+1 || f.Pos.Line == i+2 {
						t.Errorf("finding at line %d should be suppressed by the directive at line %d", f.Pos.Line, i+1)
					}
				}
			}
		})
	}
}

// TestRulesRegistered pins the rule set: all ten analyzers register
// themselves and come back sorted by name.
func TestRulesRegistered(t *testing.T) {
	var names []string
	for _, r := range Rules() {
		names = append(names, r.Name())
		if r.Doc() == "" {
			t.Errorf("rule %s has no doc line", r.Name())
		}
	}
	want := []string{"detguard", "errdrop", "floatcmp",
		"goroleak", "hotalloc", "lockheld", "nanguard", "panicpolicy",
		"spanleak", "unitsafety"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("registered rules = %v, want %v", names, want)
	}
}

// TestAllowDirectiveCoversBothPlacements checks the directive covers its
// own line (trailing placement) and the next line (preceding placement).
func TestAllowDirectiveCoversBothPlacements(t *testing.T) {
	p := loadTestPackage(t, "testdata/floatcmp_src.go", "aeropack/internal/thermal")
	found := false
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowDirective) {
					continue
				}
				line := p.Fset.Position(c.Pos()).Line
				if !p.Allowed("floatcmp", line) || !p.Allowed("floatcmp", line+1) {
					t.Errorf("directive at line %d should cover lines %d and %d", line, line, line+1)
				}
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no allow directive found in floatcmp testdata")
	}
	if p.Allowed("floatcmp", 1) {
		t.Error("line 1 should not be suppressed")
	}
}

// TestLoadAllWholeModule smoke-tests the loader against the real module:
// it must discover a healthy number of packages, including this one.
func TestLoadAllWholeModule(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := l.PackageDirs(l.Root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadDirs(dirs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 15 {
		t.Fatalf("LoadDirs found only %d packages", len(pkgs))
	}
	seen := false
	for _, p := range pkgs {
		if p.ImportPath == "aeropack/internal/lint" {
			seen = true
		}
		if p.Pkg == nil {
			t.Errorf("%s: no type information", p.ImportPath)
		}
	}
	if !seen {
		t.Error("LoadDirs missed aeropack/internal/lint")
	}
}
