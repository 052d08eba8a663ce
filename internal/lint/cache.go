// Content-hash result cache.  Lint results for a package are a pure
// function of (a) the package's own non-test sources, (b) the sources
// of its transitive module-internal dependencies — facts and type
// information flow only along the import graph — and (c) the rule set
// that ran and the registry it was judged against.  The cache key folds
// all three together, so a hit can skip parsing, type-checking, rule
// execution and the directive audit for the package entirely; a cached
// whole-module re-run touches nothing but file bytes and import lines.
package lint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// cacheSchemaVersion invalidates every entry when the on-disk format or
// the analysis semantics change in a way the rule-set salt cannot see.
// v2: findings carry related locations; interprocedural summaries feed
// the rules (the key already covers callee sources via the dep closure).
// v3: findings carry machine-applicable fixes; the value-flow engine
// feeds four new rules.
// v4: an entry holds the findings and the //lint:allow audit; fixes
// are gone.
// v5: the call-graph and value-flow engines are gone; every rule reads
// one body, and only the sentinel-wrap and magic-constant facts cross
// packages.
const cacheSchemaVersion = "aeropacklint-cache/v5"

// Cache is a directory of per-package result files keyed by content
// hash.  The zero value (empty Dir) is a disabled cache.
type Cache struct {
	// Dir holds one JSON file per (package, content) key.
	Dir string
}

// CacheEntry is one package's result: the surviving findings and the
// directive problems, positions module-root-relative.
type CacheEntry struct {
	Findings []Finding
	Stale    []StaleAllow
}

// DefaultCacheDir returns the per-user cache directory for the module
// rooted at root, namespaced by the root path so two checkouts never
// share entries.
func DefaultCacheDir(root string) string {
	base, err := os.UserCacheDir()
	if err != nil {
		base = os.TempDir()
	}
	h := sha256.Sum256([]byte(root))
	return filepath.Join(base, "aeropacklint", hex.EncodeToString(h[:8]))
}

// cachedEntry is the serialized form of a CacheEntry.
type cachedEntry struct {
	Findings []jsonFinding `json:"findings"`
	Stale    []cachedStale `json:"stale,omitempty"`
}

type cachedStale struct {
	jsonPos
	Rule string `json:"rule"`
	Why  string `json:"why"`
}

// Get returns the cached entry for key, with ok=false on any miss or
// decode problem (a corrupt entry behaves like a miss).
func (c *Cache) Get(key string) (CacheEntry, bool) {
	var e CacheEntry
	if c == nil || c.Dir == "" {
		return e, false
	}
	data, err := os.ReadFile(filepath.Join(c.Dir, key+".json"))
	if err != nil {
		return e, false
	}
	var ce cachedEntry
	if err := json.Unmarshal(data, &ce); err != nil {
		return e, false
	}
	for _, jf := range ce.Findings {
		e.Findings = append(e.Findings, jf.finding())
	}
	for _, cs := range ce.Stale {
		e.Stale = append(e.Stale, StaleAllow{Pos: cs.position(), Rule: cs.Rule, Why: cs.Why})
	}
	return e, true
}

// Put stores the entry under key.  The write is atomic-enough for a
// cache: a rename from a temp file in the same dir.
func (c *Cache) Put(key string, e CacheEntry) error {
	if c == nil || c.Dir == "" {
		return nil
	}
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		return err
	}
	var ce cachedEntry
	for _, f := range e.Findings {
		ce.Findings = append(ce.Findings, toJSONFinding(f))
	}
	for _, s := range e.Stale {
		ce.Stale = append(ce.Stale, cachedStale{jsonPos: toJSONPos(s.Pos), Rule: s.Rule, Why: s.Why})
	}
	data, err := json.Marshal(ce)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.Dir, "put-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close() // the write error is the one worth reporting
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(c.Dir, key+".json"))
}

// ruleSalt folds the active rule set (names and docs — a reworded doc
// implies reworded hints) and the registry's rule names (the audit
// judges directives against them, so a deleted rule must rotate every
// key) into every key.
func ruleSalt(rules []Rule) string {
	h := sha256.New()
	fmt.Fprintln(h, cacheSchemaVersion)
	for _, r := range rules {
		fmt.Fprintln(h, r.Name(), r.Doc())
	}
	for _, r := range Rules() {
		fmt.Fprintln(h, "registered", r.Name())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// keyer computes cache keys for package directories of one module,
// hashing each directory once, on first use.
type keyer struct {
	l    *Loader
	salt string
	// keys maps a directory to its key; "" marks a key in progress.
	keys map[string]string
}

func newKeyer(l *Loader, rules []Rule) *keyer {
	return &keyer{l: l, salt: ruleSalt(rules), keys: make(map[string]string)}
}

// Key returns the cache key for dir: a hash over the rule salt, the
// directory's own content hash and the keys of its dependency closure.
// The error reports the first unreadable directory in the closure.
func (k *keyer) Key(dir string) (string, error) {
	if key, ok := k.keys[dir]; ok {
		if key == "" {
			// Go forbids import cycles, but a malformed tree should
			// error instead of recursing forever.
			return "", fmt.Errorf("lint: import cycle through %s", dir)
		}
		return key, nil
	}
	k.keys[dir] = ""
	own, deps, err := k.scanDir(dir)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintln(h, k.salt)
	// The package's identity (its module-relative path) is part of the
	// key: findings embed file paths, so two content-identical packages
	// must not share an entry.
	if rel, err := filepath.Rel(k.l.Root, dir); err == nil {
		fmt.Fprintln(h, filepath.ToSlash(rel))
	}
	fmt.Fprintln(h, own)
	for _, dep := range deps {
		depKey, err := k.Key(dep)
		if err != nil {
			return "", err
		}
		fmt.Fprintln(h, depKey)
	}
	key := hex.EncodeToString(h.Sum(nil))
	k.keys[dir] = key
	return key, nil
}

// scanDir hashes the directory's non-test sources and extracts its
// module-internal imports with an imports-only parse.
func (k *keyer) scanDir(dir string) (own string, deps []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", nil, err
	}
	h := sha256.New()
	fset := token.NewFileSet()
	depSet := make(map[string]bool)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return "", nil, err
		}
		fmt.Fprintln(h, name, len(data))
		h.Write(data)
		f, err := parser.ParseFile(fset, path, data, parser.ImportsOnly)
		if err != nil {
			return "", nil, err
		}
		for _, imp := range f.Imports {
			ipath := strings.Trim(imp.Path.Value, `"`)
			if depDir, ok := k.l.dirFor(ipath); ok && depDir != dir {
				depSet[depDir] = true
			}
		}
	}
	for dep := range depSet {
		deps = append(deps, dep)
	}
	sort.Strings(deps)
	return hex.EncodeToString(h.Sum(nil)), deps, nil
}
