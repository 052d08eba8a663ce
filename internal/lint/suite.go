// The module-level pipeline behind cmd/aeropacklint: pattern expansion,
// cache probing, a parallel parse and a serial type-check, fact
// gathering, and a parallel rule phase that audits the
// //lint:allow directives alongside.  The driver and BenchmarkLintModule
// share this entry point.
package lint

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"aeropack/internal/parallel"
)

// ModuleOptions configures one RunModule call.
type ModuleOptions struct {
	// Dir is where the module root search starts (usually ".").
	Dir string
	// Patterns are package directories; a trailing /... expands to the
	// subtree.  Empty means ./...
	Patterns []string
	// Rules restricts the run; nil means every registered rule.
	Rules []Rule
	// Cache enables the content-hash result cache when non-nil.
	Cache *Cache
}

// StaleAllow is one audit report line.
type StaleAllow struct {
	Pos token.Position
	// Rule is the directive rule name this report is about.
	Rule string
	// Why classifies the problem: "stale" (nothing suppressed),
	// "unknown-rule", or "no-reason".
	Why string
}

func (s StaleAllow) String() string {
	switch s.Why {
	case "stale":
		return fmt.Sprintf("%s: stale //lint:allow %s: no %s finding on this or the next line", s.Pos, s.Rule, s.Rule)
	case "unknown-rule":
		return fmt.Sprintf("%s: //lint:allow names unknown rule %q", s.Pos, s.Rule)
	default:
		return fmt.Sprintf("%s: //lint:allow %s has no reason text", s.Pos, s.Rule)
	}
}

// ModuleResult is what RunModule produces.
type ModuleResult struct {
	// Root is the module root directory.
	Root string
	// Findings are the surviving findings, positions module-root-relative.
	Findings []Finding
	// Stale holds the //lint:allow directive problems, positions
	// module-root-relative.
	Stale []StaleAllow
	// TypeErrors are non-fatal type-checker diagnostics.
	TypeErrors []string
	// Packages is the number of requested packages.
	Packages int
	// CacheHits / CacheMisses count requested packages served from /
	// missing the cache.
	CacheHits, CacheMisses int
}

// RunModule executes the configured suite and returns the merged,
// sorted result.
func RunModule(opts ModuleOptions) (*ModuleResult, error) {
	if opts.Dir == "" {
		opts.Dir = "."
	}
	loader, err := NewLoader(opts.Dir)
	if err != nil {
		return nil, err
	}
	rules := opts.Rules
	if rules == nil {
		rules = Rules()
	}
	dirs, err := expandPatterns(loader, opts.Dir, opts.Patterns)
	if err != nil {
		return nil, err
	}
	res := &ModuleResult{Root: loader.Root, Packages: len(dirs)}

	// Phase 1: probe the cache.
	missDirs := dirs
	keyByDir := make(map[string]string)
	if opts.Cache != nil {
		missDirs = nil
		ky := newKeyer(loader, rules)
		for _, dir := range dirs {
			key, err := ky.Key(dir)
			if err != nil {
				return nil, err
			}
			keyByDir[dir] = key
			if e, ok := opts.Cache.Get(key); ok {
				res.CacheHits++
				res.Findings = append(res.Findings, e.Findings...)
				res.Stale = append(res.Stale, e.Stale...)
				continue
			}
			missDirs = append(missDirs, dir)
		}
	}
	res.CacheMisses = len(missDirs)

	// Phase 2: parse the misses in parallel, then type-check them (and
	// their dependencies) serially.
	pkgs, err := loader.LoadDirs(missDirs)
	if err != nil {
		return nil, err
	}

	// Phase 3: gather cross-package facts over everything the loader
	// touched (requested packages and dependencies alike), then attach
	// the store.
	facts := NewFacts()
	loaded := loader.Loaded()
	facts.Gather(loaded)
	for _, p := range loaded {
		p.Facts = facts
	}

	// Phase 4: run the rules and the directive audit per package.  The
	// fact store is read-only after Gather, so this fans out.
	perPkg, err := parallel.Map(pkgs, 0, func(_ int, p *Package) (CacheEntry, error) {
		findings, stale := p.check(rules)
		for i := range findings {
			findings[i].Pos = relPosition(loader.Root, findings[i].Pos)
			for j := range findings[i].Related {
				findings[i].Related[j].Pos = relPosition(loader.Root, findings[i].Related[j].Pos)
			}
		}
		for i := range stale {
			stale[i].Pos = relPosition(loader.Root, stale[i].Pos)
		}
		e := CacheEntry{Findings: findings, Stale: stale}
		if key := keyByDir[p.Dir]; key != "" {
			if err := opts.Cache.Put(key, e); err != nil {
				return e, fmt.Errorf("lint: writing cache: %w", err)
			}
		}
		return e, nil
	})
	if err != nil {
		return nil, err
	}
	for _, e := range perPkg {
		res.Findings = append(res.Findings, e.Findings...)
		res.Stale = append(res.Stale, e.Stale...)
	}
	SortFindings(res.Findings)
	sort.Slice(res.Stale, func(i, j int) bool {
		a, b := res.Stale[i], res.Stale[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Rule < b.Rule
	})
	res.TypeErrors = loader.TypeErrors
	return res, nil
}

// expandPatterns resolves the CLI package arguments to directories.
func expandPatterns(l *Loader, base string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, arg := range patterns {
		if rest, ok := strings.CutSuffix(arg, "/..."); ok {
			if rest == "" {
				rest = "."
			}
			if !filepath.IsAbs(rest) {
				rest = filepath.Join(base, rest)
			}
			sub, err := l.PackageDirs(rest)
			if err != nil {
				return nil, err
			}
			for _, d := range sub {
				add(d)
			}
			continue
		}
		dir := arg
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(base, dir)
		}
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		if _, err := os.Stat(abs); err != nil {
			return nil, fmt.Errorf("lint: %s: %w", arg, err)
		}
		add(abs)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// relPosition rewrites the position's filename to be root-relative.
func relPosition(root string, pos token.Position) token.Position {
	pos.Filename = relPath(root, pos.Filename)
	return pos
}

// relPath strips the root prefix from a file path.
func relPath(root, path string) string {
	if root == "" {
		return path
	}
	if rest, ok := strings.CutPrefix(path, root+string(os.PathSeparator)); ok {
		return rest
	}
	return path
}
