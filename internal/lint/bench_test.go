package lint

import (
	"path/filepath"
	"testing"
	"time"
)

// BenchmarkLintModule measures the full ten-rule suite over the real
// module, cold (empty cache, full parse + type-check) and warm (every
// package served from the content-hash cache, so only hashing and key
// derivation remain).  The warm/cold ratio is the headline number for
// the cache: it should be well under 0.5.
func BenchmarkLintModule(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cache := &Cache{Dir: filepath.Join(b.TempDir(), "cache")}
			b.StartTimer()
			res, err := RunModule(ModuleOptions{Dir: "../..", Cache: cache})
			if err != nil {
				b.Fatal(err)
			}
			if res.CacheHits != 0 {
				b.Fatalf("cold run hit the cache %d times", res.CacheHits)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		cache := &Cache{Dir: filepath.Join(b.TempDir(), "cache")}
		if _, err := RunModule(ModuleOptions{Dir: "../..", Cache: cache}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := RunModule(ModuleOptions{Dir: "../..", Cache: cache})
			if err != nil {
				b.Fatal(err)
			}
			if res.CacheMisses != 0 {
				b.Fatalf("warm run missed the cache %d times", res.CacheMisses)
			}
		}
	})
}

// BenchmarkLintPhases isolates the loader and the fact pass:
// typecheck-serial is LoadDirs over every module package (one parallel
// parse, then a serial type-check), and facts is the cross-package fact
// gather over the fully loaded module.
func BenchmarkLintPhases(b *testing.B) {
	probe, err := NewLoader("../..")
	if err != nil {
		b.Fatal(err)
	}
	dirs, err := probe.PackageDirs(probe.Root)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("typecheck-serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l, err := NewLoader("../..")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := l.LoadDirs(dirs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("facts", func(b *testing.B) {
		l, err := NewLoader("../..")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := l.LoadDirs(dirs); err != nil {
			b.Fatal(err)
		}
		loaded := l.Loaded()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			facts := NewFacts()
			facts.Gather(loaded)
		}
	})
}

// TestWarmRunUnder50ms pins the headline cache promise: a fully warm
// cached run of the whole module stays under 50 ms.  Best-of-three
// absorbs scheduler noise; the real warm runs sit in single-digit
// milliseconds (see BENCH_lint.json), so the margin is wide.
func TestWarmRunUnder50ms(t *testing.T) {
	if testing.Short() {
		t.Skip("timing assertion")
	}
	cache := &Cache{Dir: filepath.Join(t.TempDir(), "cache")}
	if _, err := RunModule(ModuleOptions{Dir: "../..", Cache: cache}); err != nil {
		t.Fatal(err)
	}
	best := time.Duration(1) << 62
	for i := 0; i < 3; i++ {
		start := time.Now()
		res, err := RunModule(ModuleOptions{Dir: "../..", Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if res.CacheMisses != 0 {
			t.Fatalf("warm run missed the cache %d times", res.CacheMisses)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	if best > 50*time.Millisecond {
		t.Errorf("best warm cached run took %v, want under 50ms", best)
	}
}
