package serve

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"aeropack/internal/obs"
)

// requestKey derives the cache/dedup key from the raw request bytes:
// the response is a pure function of the body, so the sha256 of the
// bytes identifies the study exactly.  No canonicalization is applied —
// two semantically equal requests with different whitespace are
// different cache entries, which errs on the side of recomputing rather
// than ever conflating two studies.
func requestKey(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// modelVersion names the engine revision whose answers the disk cache
// holds.  Entries live under <dir>/<modelVersion>/, so a cache directory
// written by a revision with different numbers is never replayed.  Bump
// it whenever a contract response golden changes; TestModelVersionDigest
// compares the goldens against goldenDigest, the sha256 of their names
// and bytes recorded with this version, and fails until both are
// updated.
const (
	modelVersion = "v9"
	goldenDigest = "df174a1c6ad97656fab4898bcdef424e4ca5cba521d1bc8db75a212f3b0028e7"
)

// entrySchema tags the header line of every disk entry.
const entrySchema = "aeropack-result/v1"

// memCacheBytes bounds the memory tier: the bodies it holds, each
// charged its capacity plus its key's length, total at most this.  It
// holds about 12,000 technology-map bodies (2.6 KB each) or 20,000
// COSEE or board bodies (1.4–1.7 KB each).
const memCacheBytes = 32 << 20

// resultCache stores finished response bodies by request hash: a
// byte-bounded least-recently-used memory tier always, plus best-effort
// persistence under dir/modelVersion when a dir is configured (survives
// server restarts).  A memory hit moves its entry to the front, and a
// put or a disk promotion inserts at the front and then drops entries
// from the back until the held bytes are within max; an entry larger
// than max alone is answered (and written to disk) but not kept.
// Each disk entry is a header line "<entrySchema> <sha256 of body>"
// followed by the body; a file that is short, garbled or fails the hash
// is a miss and recomputes.  compute stores
// every HTTP 200 body of an unbudgeted study that ran to the end,
// partial keep-going bodies included: their point failures are as
// deterministic as their points.  Error bodies, budgeted studies (their
// outcome depends on wall clock and scheduling) and canceled
// computations (they stopped wherever the cancellation caught them) are
// never stored.
type resultCache struct {
	mu      sync.Mutex
	entries map[string]*list.Element // of *cacheEntry, in lru
	lru     list.List                // most recently used first
	bytes   int                      // Σ cap(body)+len(key) over entries
	max     int                      // memCacheBytes; tests lower it
	dir     string                   // "" = memory only; else the versioned entry directory

	// Updated after mu is released: serve_cache_evictions_total and the
	// serve_cache_bytes gauge, which moves by deltas so that concurrent
	// updates land in any order.
	evictions *obs.Counter
	held      *obs.Gauge
}

// cacheEntry is one memory-tier body under its key.
type cacheEntry struct {
	key  string
	body []byte
}

func newResultCache(dir string, reg *obs.Registry) (*resultCache, error) {
	c := &resultCache{
		entries:   make(map[string]*list.Element),
		max:       memCacheBytes,
		evictions: reg.Counter("serve_cache_evictions_total"),
		held:      reg.Gauge("serve_cache_bytes"),
	}
	if dir != "" {
		c.dir = filepath.Join(dir, modelVersion)
		if err := os.MkdirAll(c.dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: creating cache dir: %w", err)
		}
	}
	return c, nil
}

// path maps a key to its on-disk file.  Keys are hex sha256 strings, so
// they are always safe path components.
func (c *resultCache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// get returns the stored body for key, or nil.  A disk hit is promoted
// into memory, copied out of the file's buffer to an array of its own
// length, so the next lookup skips the filesystem.  corrupt reports a
// disk entry that exists but fails verification; the next put for the
// key overwrites it.
func (c *resultCache) get(key string) (body []byte, corrupt bool) {
	body = c.memGet(key)
	if body != nil || c.dir == "" {
		return body, false
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	body, ok := decodeEntry(data)
	if !ok {
		return nil, true
	}
	body = append(make([]byte, 0, len(body)), body...)
	c.keep(key, body)
	return body, false
}

// memGet returns the in-memory body for key, or nil, without touching
// the disk.  A hit becomes the most recently used entry.
func (c *resultCache) memGet(key string) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.entries[key]
	if el == nil {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).body
}

// keep inserts body under key as the most recently used entry, then
// drops the least recently used ones until the held bytes are within
// max.  A key already held keeps its body, which is the same bytes, and
// only moves to the front; a body whose entry alone exceeds max is not
// kept.
func (c *resultCache) keep(key string, body []byte) {
	size := cap(body) + len(key)
	c.mu.Lock()
	before, evicted := c.bytes, 0
	if el := c.entries[key]; el != nil {
		c.lru.MoveToFront(el)
	} else if size <= c.max {
		c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, body: body})
		c.bytes += size
		for c.bytes > c.max {
			old := c.lru.Remove(c.lru.Back()).(*cacheEntry)
			delete(c.entries, old.key)
			c.bytes -= cap(old.body) + len(old.key)
			evicted++
		}
	}
	delta := c.bytes - before
	c.mu.Unlock()
	c.evictions.Add(int64(evicted))
	c.held.Add(float64(delta))
}

// encodeEntry frames body for disk behind its header line.
func encodeEntry(body []byte) []byte {
	sum := sha256.Sum256(body)
	return append([]byte(entrySchema+" "+hex.EncodeToString(sum[:])+"\n"), body...)
}

// decodeEntry returns the body of a framed disk entry, ok=false when the
// header is missing or names another schema, the body is empty, or its
// sha256 does not match the header.
func decodeEntry(data []byte) (body []byte, ok bool) {
	header, body, found := bytes.Cut(data, []byte("\n"))
	tag, digest, _ := strings.Cut(string(header), " ")
	sum := sha256.Sum256(body)
	if !found || tag != entrySchema || len(body) == 0 || digest != hex.EncodeToString(sum[:]) {
		return nil, false
	}
	return body, true
}

// put stores a finished body.  The disk write is best-effort: a failed
// write only costs future recomputes, never correctness, so its error
// is reported to the caller for logging but the memory entry stands.
func (c *resultCache) put(key string, body []byte) error {
	c.keep(key, body)
	if c.dir == "" {
		return nil
	}
	// Write-rename so a crashed server never leaves a torn file that a
	// restart would replay as a (corrupt) cached result.
	tmp := c.path(key) + ".tmp"
	if err := os.WriteFile(tmp, encodeEntry(body), 0o644); err != nil {
		return fmt.Errorf("serve: persisting cache entry: %w", err)
	}
	if err := os.Rename(tmp, c.path(key)); err != nil {
		return fmt.Errorf("serve: persisting cache entry: %w", err)
	}
	return nil
}

// len reports the number of in-memory entries (for tests and metrics).
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
