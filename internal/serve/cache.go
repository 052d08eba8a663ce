package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

// resultCache stores finished response bodies by request hash: an
// in-memory map always, plus best-effort persistence under
// dir/modelVersion when a dir is configured (survives server restarts).
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
	mu  sync.RWMutex
	mem map[string][]byte
	dir string // "" = memory only; else the versioned entry directory
}

func newResultCache(dir string) (*resultCache, error) {
	c := &resultCache{mem: make(map[string][]byte)}
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
// into memory so the next lookup skips the filesystem.  corrupt reports
// a disk entry that exists but fails verification; the next put for the
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
	c.mu.Lock()
	c.mem[key] = body
	c.mu.Unlock()
	return body, false
}

// memGet returns the in-memory body for key, or nil, without touching
// the disk.
func (c *resultCache) memGet(key string) []byte {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.mem[key]
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
	c.mu.Lock()
	c.mem[key] = body
	c.mu.Unlock()
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
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.mem)
}
