package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"aeropack/internal/obs"
)

// newBoundedCache returns a memory-only cache under a budget of max
// bytes, reporting to its own registry.
func newBoundedCache(t *testing.T, dir string, max int) (*resultCache, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	c, err := newResultCache(dir, reg)
	if err != nil {
		t.Fatal(err)
	}
	c.max = max
	return c, reg
}

// checkAccounting asserts the cache's invariants: its map and list hold
// the same entries, bytes is Σ cap(body)+len(key) over them and within
// the budget, and the serve_cache_bytes gauge reads bytes.
func checkAccounting(t *testing.T, c *resultCache, reg *obs.Registry) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	sum := 0
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		if c.entries[e.key] != el {
			t.Fatalf("list entry %q is not the map's", e.key)
		}
		sum += cap(e.body) + len(e.key)
	}
	if len(c.entries) != c.lru.Len() {
		t.Fatalf("map holds %d entries, list %d", len(c.entries), c.lru.Len())
	}
	if sum != c.bytes || c.bytes > c.max {
		t.Fatalf("bytes = %d, entries hold %d, budget %d", c.bytes, sum, c.max)
	}
	if g := reg.Gauge("serve_cache_bytes").Value(); g != float64(c.bytes) {
		t.Fatalf("serve_cache_bytes = %v, want %d", g, c.bytes)
	}
}

// keyOf returns the i-th test key: a request hash, as served keys are.
func keyOf(i int) string { return requestKey([]byte(strconv.Itoa(i))) }

// TestCacheLRUOrder checks the recency order: under a budget of three
// entries a hit refreshes its entry, so a fourth put drops the least
// recently used one, not the oldest put.
func TestCacheLRUOrder(t *testing.T) {
	const bodyLen = 100
	entry := bodyLen + len(keyOf(0))
	c, reg := newBoundedCache(t, "", 3*entry)
	for i := 0; i < 3; i++ {
		if err := c.put(keyOf(i), make([]byte, bodyLen)); err != nil {
			t.Fatal(err)
		}
	}
	if c.memGet(keyOf(0)) == nil {
		t.Fatal("entry 0 missing before the budget was reached")
	}
	if err := c.put(keyOf(3), make([]byte, bodyLen)); err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{true, false, true, true} {
		if got := c.memGet(keyOf(i)) != nil; got != want {
			t.Errorf("entry %d held = %v, want %v (entry 1 is the least recently used)", i, got, want)
		}
	}
	if got := reg.Counter("serve_cache_evictions_total").Value(); got != 1 {
		t.Errorf("serve_cache_evictions_total = %d, want 1", got)
	}
	checkAccounting(t, c, reg)

	// Touch 2, then 0: the next two puts drop 3, then 2.
	c.memGet(keyOf(2))
	c.memGet(keyOf(0))
	for i := 4; i < 6; i++ {
		if err := c.put(keyOf(i), make([]byte, bodyLen)); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range []bool{true, false, false, false, true, true} {
		if got := c.memGet(keyOf(i)) != nil; got != want {
			t.Errorf("after two more puts, entry %d held = %v, want %v", i, got, want)
		}
	}
	checkAccounting(t, c, reg)
}

// TestCacheChargesCapacity checks the budget counts what the heap holds,
// cap(body)+len(key), not the body's length; that a put of a key already
// held keeps one entry; and that an entry larger than the whole budget
// is answered and written to disk but not kept in memory.
func TestCacheChargesCapacity(t *testing.T) {
	dir := t.TempDir()
	c, reg := newBoundedCache(t, dir, 1000)
	k := keyOf(0)
	if err := c.put(k, make([]byte, 10, 300)); err != nil {
		t.Fatal(err)
	}
	if c.bytes != 300+len(k) {
		t.Errorf("bytes = %d, want cap 300 + key %d", c.bytes, len(k))
	}
	if err := c.put(k, make([]byte, 10, 300)); err != nil {
		t.Fatal(err)
	}
	if c.len() != 1 || c.bytes != 300+len(k) {
		t.Errorf("a second put of one key: %d entries, %d bytes; want 1 and %d", c.len(), c.bytes, 300+len(k))
	}
	checkAccounting(t, c, reg)

	big := keyOf(1)
	body := bytes.Repeat([]byte("x"), 1000)
	if err := c.put(big, body); err != nil {
		t.Fatal(err)
	}
	if c.memGet(big) != nil || c.memGet(k) == nil {
		t.Error("an oversized body was kept in memory, or pushed out an entry that fits")
	}
	if got := reg.Counter("serve_cache_evictions_total").Value(); got != 0 {
		t.Errorf("serve_cache_evictions_total = %d after an oversized put, want 0", got)
	}
	got, corrupt := c.get(big)
	if corrupt || !bytes.Equal(got, body) {
		t.Errorf("oversized body not served from disk (corrupt %v)", corrupt)
	}
	if c.memGet(big) != nil {
		t.Error("an oversized disk entry was promoted into memory")
	}
	checkAccounting(t, c, reg)
}

// TestCacheDiskPromotionBounded checks that a disk hit is promoted
// within the budget: a restart over a directory of 40 entries, with room
// in memory for 10, serves every one of them and holds at most 10, each
// promoted body copied to an array of its own length.
func TestCacheDiskPromotionBounded(t *testing.T) {
	dir := t.TempDir()
	const n, bodyLen = 40, 200
	writer, _ := newBoundedCache(t, dir, memCacheBytes)
	for i := 0; i < n; i++ {
		if err := writer.put(keyOf(i), bytes.Repeat([]byte{byte('a' + i%26)}, bodyLen)); err != nil {
			t.Fatal(err)
		}
	}

	c, reg := newBoundedCache(t, dir, 10*(bodyLen+len(keyOf(0))))
	for i := 0; i < n; i++ {
		body, corrupt := c.get(keyOf(i))
		if corrupt || len(body) != bodyLen || body[0] != byte('a'+i%26) {
			t.Fatalf("entry %d: %d bytes from disk (corrupt %v)", i, len(body), corrupt)
		}
		if cap(body) != len(body) {
			t.Fatalf("entry %d: promoted body has capacity %d for %d bytes", i, cap(body), len(body))
		}
		checkAccounting(t, c, reg)
	}
	if c.len() != 10 {
		t.Errorf("memory holds %d promoted entries, want 10", c.len())
	}
	if got := reg.Counter("serve_cache_evictions_total").Value(); got != n-10 {
		t.Errorf("serve_cache_evictions_total = %d, want %d", got, n-10)
	}
}

// TestCacheConcurrentBounded drives one small cache from eight
// goroutines, each putting and reading back keys of a shared range, so
// hits, inserts, duplicate puts and evictions interleave.  Run it under
// -race; the accounting must balance once they are done.
func TestCacheConcurrentBounded(t *testing.T) {
	c, reg := newBoundedCache(t, "", 16*(64+len(keyOf(0))))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := keyOf((g*131 + i*7) % 64)
				if b := c.memGet(k); b != nil && len(b) != 64 {
					t.Errorf("goroutine %d: body of %d bytes, want 64", g, len(b))
					return
				}
				if err := c.put(k, make([]byte, 64)); err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	checkAccounting(t, c, reg)
	if reg.Counter("serve_cache_evictions_total").Value() == 0 {
		t.Error("64 keys through a 16-entry cache evicted nothing")
	}
}

// TestCacheSoakBounded pushes 100k distinct 2–3 KB bodies through a
// cache under a 1 MiB budget: the held bytes stay within it after every
// put, and the live heap after the run stays under a fixed ceiling,
// where an unbounded memory tier would hold about 250 MB.
func TestCacheSoakBounded(t *testing.T) {
	const budget = 1 << 20
	c, reg := newBoundedCache(t, "", budget)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	for i := 0; i < 100_000; i++ {
		if err := c.put(keyOf(i), make([]byte, 2048+i%1024)); err != nil {
			t.Fatal(err)
		}
		if c.bytes > budget {
			t.Fatalf("put %d: cache holds %d bytes, budget %d", i, c.bytes, budget)
		}
	}
	checkAccounting(t, c, reg)
	runtime.GC()
	runtime.ReadMemStats(&ms)
	const ceiling = 8 << 20
	if grown := int64(ms.HeapAlloc) - int64(base); grown > ceiling {
		t.Errorf("live heap grew %d bytes over 100k puts, ceiling %d", grown, ceiling)
	}
	t.Logf("%d entries, %d bytes held, %d evictions", c.len(), c.bytes, reg.Counter("serve_cache_evictions_total").Value())
}

// TestHotBodyStaysCached sends one hot techmap between 5,000 distinct
// technology-map misses under a budget of a few dozen bodies: every
// resend is a hit with the first answer's bytes, while the misses
// evict one another.
func TestHotBodyStaysCached(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	s.cache.max = 64 << 10
	hot := readContract(t, "techmap.request.json")
	first := postStudy(s, hot)
	if first.Code != http.StatusOK {
		t.Fatalf("hot body: status %d", first.Code)
	}
	for i := 0; i < 5000; i++ {
		miss := []byte(fmt.Sprintf(`{"kind": "techmap", "techmap": {"powers_w": [%d], "fluxes_w_cm2": [%d]}}`, 1+i%100, 1+i/100))
		if w := postStudy(s, miss); w.Code != http.StatusOK || w.Header().Get("X-Aeropack-Cache") != "miss" {
			t.Fatalf("distinct body %d: status %d cache %q, want a miss", i, w.Code, w.Header().Get("X-Aeropack-Cache"))
		}
		if i%10 != 9 {
			continue
		}
		w := postStudy(s, hot)
		if w.Header().Get("X-Aeropack-Cache") != "hit" || !bytes.Equal(w.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("hot body after %d misses: cache %q, same bytes %v", i+1, w.Header().Get("X-Aeropack-Cache"), bytes.Equal(w.Body.Bytes(), first.Body.Bytes()))
		}
	}
	if s.reg.Counter("serve_cache_evictions_total").Value() == 0 {
		t.Error("5,000 misses under a 64 KiB budget evicted nothing")
	}
	if held := s.reg.Gauge("serve_cache_bytes").Value(); held > float64(s.cache.max) {
		t.Errorf("serve_cache_bytes = %v over the %d budget", held, s.cache.max)
	}
}
