package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
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
		if err := c.put(keyOf(i), make([]byte, bodyLen), false); err != nil {
			t.Fatal(err)
		}
	}
	if c.memGet(keyOf(0)) == nil {
		t.Fatal("entry 0 missing before the budget was reached")
	}
	if err := c.put(keyOf(3), make([]byte, bodyLen), false); err != nil {
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
		if err := c.put(keyOf(i), make([]byte, bodyLen), false); err != nil {
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
	if err := c.put(k, make([]byte, 10, 300), false); err != nil {
		t.Fatal(err)
	}
	if c.bytes != 300+len(k) {
		t.Errorf("bytes = %d, want cap 300 + key %d", c.bytes, len(k))
	}
	if err := c.put(k, make([]byte, 10, 300), false); err != nil {
		t.Fatal(err)
	}
	if c.len() != 1 || c.bytes != 300+len(k) {
		t.Errorf("a second put of one key: %d entries, %d bytes; want 1 and %d", c.len(), c.bytes, 300+len(k))
	}
	checkAccounting(t, c, reg)

	big := keyOf(1)
	body := bytes.Repeat([]byte("x"), 1000)
	if err := c.put(big, body, false); err != nil {
		t.Fatal(err)
	}
	if c.memGet(big) != nil || c.memGet(k) == nil {
		t.Error("an oversized body was kept in memory, or pushed out an entry that fits")
	}
	if got := reg.Counter("serve_cache_evictions_total").Value(); got != 0 {
		t.Errorf("serve_cache_evictions_total = %d after an oversized put, want 0", got)
	}
	got, corrupt := c.get(big, false)
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
		if err := writer.put(keyOf(i), bytes.Repeat([]byte{byte('a' + i%26)}, bodyLen), false); err != nil {
			t.Fatal(err)
		}
	}

	c, reg := newBoundedCache(t, dir, 10*(bodyLen+len(keyOf(0))))
	for i := 0; i < n; i++ {
		body, corrupt := c.get(keyOf(i), false)
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
				if e := c.memGet(k); e != nil && len(e.body) != 64 {
					t.Errorf("goroutine %d: body of %d bytes, want 64", g, len(e.body))
					return
				}
				if err := c.put(k, make([]byte, 64), false); err != nil {
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
		if err := c.put(keyOf(i), make([]byte, 2048+i%1024), false); err != nil {
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

// hitAllocCeiling bounds the allocations of one memory hit through
// Server.ServeHTTP, httptest's request and recorder included (11 of
// them): about 25 today, where a hit that decodes its request first
// makes 43–51.
const hitAllocCeiling = 32

// TestMemoryHitSkipsDecode pins the pre-decode hit: a memory hit on a
// sync body allocates the same for a board study, a qualification and a
// technology map, whose decodes differ, and stays under
// hitAllocCeiling, so a decode that creeps back onto the hit path fails.
func TestMemoryHitSkipsDecode(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	allocs := map[string]float64{}
	for _, name := range []string{"study", "qualification", "techmap"} {
		body := readContract(t, name+".request.json")
		first := postStudy(s, body)
		if first.Code != http.StatusOK {
			t.Fatalf("%s: status %d", name, first.Code)
		}
		if w := postStudy(s, body); w.Header().Get("X-Aeropack-Cache") != "hit" || !bytes.Equal(w.Body.Bytes(), first.Body.Bytes()) {
			t.Fatalf("%s: second request not a hit with the first body (cache %q)", name, w.Header().Get("X-Aeropack-Cache"))
		}
		allocs[name] = testing.AllocsPerRun(50, func() { postStudy(s, body) })
	}
	for name, n := range allocs {
		if n != allocs["techmap"] || n > hitAllocCeiling {
			t.Errorf("a %s hit allocates %v times (all: %v); want one count for every kind, at most %d", name, n, allocs, hitAllocCeiling)
		}
	}
	t.Logf("allocations per memory hit: %v", allocs)
}

// plantEntry writes a framed disk entry holding payload under the key
// of request.
func plantEntry(t *testing.T, dir string, request, payload []byte) string {
	t.Helper()
	path := filepath.Join(dir, modelVersion, requestKey(request)+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, encodeEntry(payload), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDiskHitDecodesFirst checks that only bytes this process has
// decoded skip the decode.  A well-framed disk entry planted under the
// key of a request that fails validation is never served; a sync body
// promoted from disk is answered from memory by the pre-decode path on
// its next request, its file gone; and an async body promoted from disk
// is still answered with a job.
func TestDiskHitDecodesFirst(t *testing.T) {
	dir := t.TempDir()
	bad := readContract(t, "unknown-field.request.json")
	plantEntry(t, dir, bad, []byte("{\"planted\": true}\n"))
	s := newTestServer(t, Options{Workers: 1, CacheDir: dir})
	for i := 0; i < 2; i++ {
		w := postStudy(s, bad)
		if w.Code != http.StatusBadRequest || !bytes.Equal(w.Body.Bytes(), readContract(t, "unknown-field.response.json")) {
			t.Fatalf("request %d under a planted entry: status %d body %s, want the 400 bad_request golden", i+1, w.Code, w.Body.Bytes())
		}
	}
	if hits := s.reg.Counter("serve_cache_hits_total").Value(); hits != 0 {
		t.Errorf("serve_cache_hits_total = %d after two invalid requests, want 0", hits)
	}

	good := readContract(t, "techmap.request.json")
	want := postStudy(newTestServer(t, Options{Workers: 1, CacheDir: dir}), good)
	s2 := newTestServer(t, Options{Workers: 1, CacheDir: dir})
	if w := postStudy(s2, good); w.Header().Get("X-Aeropack-Cache") != "hit" || !bytes.Equal(w.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("restart: cache %q, same bytes %v; want a disk hit", w.Header().Get("X-Aeropack-Cache"), bytes.Equal(w.Body.Bytes(), want.Body.Bytes()))
	}
	if e := s2.cache.memGet(requestKey(good)); e == nil || e.async {
		t.Fatalf("promoted entry of the sync body: %+v, want one not marked async", e)
	}
	if err := os.Remove(filepath.Join(dir, modelVersion, requestKey(good)+".json")); err != nil {
		t.Fatal(err)
	}
	if w := postStudy(s2, good); w.Header().Get("X-Aeropack-Cache") != "hit" || !bytes.Equal(w.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("after promotion: cache %q, same bytes %v; want a memory hit", w.Header().Get("X-Aeropack-Cache"), bytes.Equal(w.Body.Bytes(), want.Body.Bytes()))
	}
	if n := testing.AllocsPerRun(20, func() { postStudy(s2, good) }); n > hitAllocCeiling {
		t.Errorf("a hit on a promoted sync entry allocates %v times, want at most %d", n, hitAllocCeiling)
	}

	async := readContract(t, "async-sweep.request.json")
	planted := []byte("{\"planted async\": true}\n")
	plantEntry(t, dir, async, planted)
	s3 := newTestServer(t, Options{Workers: 1, CacheDir: dir})
	for i := 1; i <= 2; i++ {
		if w := postStudy(s3, async); w.Code != http.StatusAccepted {
			t.Fatalf("async submission %d after a disk promotion: status %d, want 202", i, w.Code)
		}
		id := "j" + strconv.Itoa(i)
		waitJobDone(t, s3, id)
		if res := getPath(s3, "/v1/results/"+id); !bytes.Equal(res.Body.Bytes(), planted) {
			t.Errorf("job %s: result %s, want the disk entry", id, res.Body.Bytes())
		}
	}
}

// TestServeCountersOnEveryPath checks serve_requests_total,
// serve_cache_hits_total and serve_cache_misses_total, and the
// X-Aeropack-Cache header, step by step over a sync miss and its
// pre-decode hits, an invalid body, and an async miss and hit.
func TestServeCountersOnEveryPath(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1})
	syncBody := readContract(t, "techmap.request.json")
	asyncBody := readContract(t, "async-sweep.request.json")
	bad := readContract(t, "unknown-field.request.json")
	jobs := 0
	for i, st := range []struct {
		name         string
		body         []byte
		status       int
		cache        string
		hits, misses int64
	}{
		{"sync miss", syncBody, 200, "miss", 0, 1},
		{"sync hit", syncBody, 200, "hit", 1, 1},
		{"invalid body", bad, 400, "", 1, 1},
		{"invalid body again", bad, 400, "", 1, 1},
		{"async miss", asyncBody, 202, "", 1, 2},
		{"async hit", asyncBody, 202, "", 2, 2},
		{"sync hit again", syncBody, 200, "hit", 3, 2},
	} {
		w := postStudy(s, st.body)
		if w.Code != st.status || w.Header().Get("X-Aeropack-Cache") != st.cache {
			t.Fatalf("%s: status %d cache %q, want %d %q", st.name, w.Code, w.Header().Get("X-Aeropack-Cache"), st.status, st.cache)
		}
		if w.Code == http.StatusAccepted {
			jobs++
			waitJobDone(t, s, "j"+strconv.Itoa(jobs))
		}
		reqs := s.reg.Counter("serve_requests_total").Value()
		hits := s.reg.Counter("serve_cache_hits_total").Value()
		misses := s.reg.Counter("serve_cache_misses_total").Value()
		if reqs != int64(i+1) || hits != st.hits || misses != st.misses {
			t.Errorf("%s: requests %d, hits %d, misses %d; want %d, %d, %d", st.name, reqs, hits, misses, i+1, st.hits, st.misses)
		}
	}
}

// TestPreDecodeHitConcurrent drives the pre-decode path from several
// goroutines at once (run under -race in verify.sh): two re-send one
// cached sync body, two submit its async twin, and two push distinct
// bodies through a memory tier of a few entries, so the hot entry is
// hit, evicted, recomputed and read by async jobs all at once.  Every
// sync answer is 200 with the first answer's bytes, and every async
// submission is 202.
func TestPreDecodeHitConcurrent(t *testing.T) {
	s := newTestServer(t, Options{Workers: 1, MaxQueue: 256})
	s.cache.max = 16 << 10
	hot := readContract(t, "techmap.request.json")
	twin := append([]byte(`{"async": true, `), hot[1:]...)
	first := postStudy(s, hot)
	if first.Code != http.StatusOK {
		t.Fatalf("hot body: status %d", first.Code)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				switch g % 3 {
				case 0:
					if w := postStudy(s, hot); w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), first.Body.Bytes()) {
						t.Errorf("goroutine %d: hot body answered %d (cache %q), or other bytes", g, w.Code, w.Header().Get("X-Aeropack-Cache"))
						return
					}
				case 1:
					if w := postStudy(s, twin); w.Code != http.StatusAccepted {
						t.Errorf("goroutine %d: async twin answered %d, want 202", g, w.Code)
						return
					}
				default:
					miss := []byte(fmt.Sprintf(`{"kind": "techmap", "techmap": {"powers_w": [%d, %d], "fluxes_w_cm2": [1, 5, 20]}}`, 1+g, 10+i))
					if w := postStudy(s, miss); w.Code != http.StatusOK {
						t.Errorf("goroutine %d: distinct body %d answered %d", g, i, w.Code)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if s.reg.Counter("serve_cache_evictions_total").Value() == 0 {
		t.Error("distinct bodies through a 16 KiB memory tier evicted nothing")
	}
}
