package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Version tags every cache key. Bump it whenever the simulation semantics
// behind cached results change (pipeline timing, transformation
// algorithm, workload generation), so stale entries can never be served.
const Version = "vanguard-engine/v1"

// Cache is a content-keyed on-disk result store. Entries are immutable
// once written: a key fully determines its value, so there is no
// invalidation beyond the Version tag folded into every key. All methods
// are safe for concurrent use; writes are atomic (temp file + rename), so
// concurrent processes can share one directory.
type Cache struct {
	dir                   string
	hits, misses, corrupt atomic.Int64
}

// Open creates (if needed) and opens a cache directory.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("engine: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: open cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// DefaultDir returns the conventional cache location
// (os.UserCacheDir()/vanguard/runs), or "" when the platform reports no
// user cache directory.
func DefaultDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "vanguard", "runs")
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// path fans entries across 256 subdirectories to keep listings fast.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// Get returns the stored bytes for key, if present. It counts nothing:
// only the caller's decode tells a usable entry from a corrupt one, so
// the counters belong to Load.
func (c *Cache) Get(key string) ([]byte, bool) {
	data, err := os.ReadFile(c.path(key))
	return data, err == nil
}

// Load decodes the JSON entry stored under key into v and reports whether
// it did (hit), and whether an entry was present but did not decode
// (corrupt). An absent entry counts as a miss; a corrupt one counts as a
// miss and as corrupt, and the caller recomputes it. A null entry is
// corrupt: it decodes without error but leaves no result.
func (c *Cache) Load(key string, v any) (hit, corrupt bool) {
	data, ok := c.Get(key)
	if ok && (bytes.Equal(bytes.TrimSpace(data), []byte("null")) || json.Unmarshal(data, v) != nil) {
		c.corrupt.Add(1)
		ok, corrupt = false, true
	}
	if !ok {
		c.misses.Add(1)
		return false, corrupt
	}
	c.hits.Add(1)
	return true, false
}

// Put stores data under key. The cache is an optimization, so failures
// (disk full, read-only media) are swallowed: the run still has its
// computed result.
func (c *Cache) Put(key string, data []byte) {
	p := c.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), ".put-*")
	if err != nil {
		return
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
	}
}

// Hits returns the lifetime lookup-hit count of this handle.
func (c *Cache) Hits() int64 { return c.hits.Load() }

// Misses returns the lifetime lookup-miss count of this handle, corrupt
// entries included.
func (c *Cache) Misses() int64 { return c.misses.Load() }

// Corrupt returns how many lookups of this handle found an entry that did
// not decode.
func (c *Cache) Corrupt() int64 { return c.corrupt.Load() }

// Key derives a content key from the JSON encodings of parts, prefixed by
// the engine Version. Parts must be pure data (JSON-encodable); a
// non-encodable part panics, because a silently truncated key could alias
// distinct configurations.
func Key(parts ...any) string {
	h := sha256.New()
	io.WriteString(h, Version+"\n")
	enc := json.NewEncoder(h)
	for _, p := range parts {
		if err := enc.Encode(p); err != nil {
			panic(fmt.Sprintf("engine: unencodable key part %T: %v", p, err))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
