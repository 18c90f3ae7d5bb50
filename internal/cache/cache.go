// Package cache is a content-addressed result store for simulation
// reports: an in-memory LRU over immutable byte payloads, optionally
// backed by an on-disk store so results survive process restarts and
// can be shared between vipserve and the experiment runners.
//
// Keys are caller-constructed content addresses — by convention
// "<scenario hash>@<engine version>" (see Key) — so a value is valid
// forever: the same key can only ever map to the same bytes, which is
// what makes serving a cached report byte-identical to re-running the
// simulation. There is consequently no invalidation API, only LRU
// eviction (memory) and explicit directory removal (disk).
//
// Beside each result slot the disk store can hold a pending marker
// (PutPending, DropPending, Markers): a small record that a key's
// result was promised but has not landed yet. vipserve writes one
// before it acknowledges an async job and removes it once the result
// is on disk, so the cache directory is all it needs to recover
// accepted jobs after a crash.
//
// The cache is safe for concurrent use by the serving layer's
// goroutines; the simulator itself never touches it (the engine
// packages stay single-threaded and lock-free).
package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Key builds the conventional content address for a simulation result:
// the scenario's canonical hash qualified by the engine version, so a
// model revision can never serve results computed by its predecessor.
func Key(scenarioHash, engineVersion string) string {
	return scenarioHash + "@" + sanitize(engineVersion)
}

// HashBytes returns the hex SHA-256 of b — the convention for deriving
// the hash half of a Key from a canonical scenario encoding.
func HashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// sanitize maps an arbitrary tag onto the filename-safe charset used in
// on-disk entry names.
func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.', r == '@':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Stats is a snapshot of the cache's counters.
type Stats struct {
	Hits       uint64 `json:"hits"`      // Get served from memory
	DiskHits   uint64 `json:"disk_hits"` // Get served from the disk store (subset of Hits)
	Misses     uint64 `json:"misses"`    // Get found nothing
	Puts       uint64 `json:"puts"`      // values stored
	Evictions  uint64 `json:"evictions"` // LRU entries dropped from memory
	Corrupt    uint64 `json:"corrupt"`   // disk entries or markers found torn/altered
	Entries    int    `json:"entries"`   // current in-memory entries
	Bytes      int64  `json:"bytes"`     // current in-memory payload bytes
	MaxEntries int    `json:"max_entries"`
}

// entry is one resident value.
type entry struct {
	key string
	val []byte
}

// Cache is the LRU + optional disk store. The zero value is not usable;
// construct with New.
type Cache struct {
	mu    sync.Mutex
	max   int
	dir   string // "" = memory only
	ll    *list.List
	items map[string]*list.Element
	stats Stats
}

// New returns a cache holding at most maxEntries values in memory
// (minimum 1). dir, when non-empty, enables the on-disk store: every
// Put also writes dir/<k0k1>/<key>, and a memory miss falls back to the
// disk copy (promoting it). The directory is created on first use.
func New(maxEntries int, dir string) *Cache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return &Cache{
		max:   maxEntries,
		dir:   dir,
		ll:    list.New(),
		items: make(map[string]*list.Element),
	}
}

// Get returns the value stored under key and whether it was present.
// The returned slice is shared and must be treated as immutable — which
// is the point: cached payloads are served byte-identical.
func (c *Cache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		v := el.Value.(*entry).val
		c.stats.Hits++
		c.mu.Unlock()
		return v, true
	}
	c.mu.Unlock()

	if c.dir != "" {
		if v, ok := c.readDisk(key); ok {
			c.mu.Lock()
			// Re-check: another goroutine may have promoted it first.
			if _, ok := c.items[key]; !ok {
				c.insert(key, v)
			}
			c.stats.Hits++
			c.stats.DiskHits++
			c.mu.Unlock()
			return v, true
		}
	}

	c.mu.Lock()
	c.stats.Misses++
	c.mu.Unlock()
	return nil, false
}

// Put stores val under key in memory (evicting LRU entries beyond the
// budget) and, when the disk store is enabled, persists it with an
// atomic write-then-rename, returning that write's error. Re-putting
// an existing key refreshes its recency but keeps the first value:
// content-addressed entries cannot change meaning.
func (c *Cache) Put(key string, val []byte) error {
	c.mu.Lock()
	c.stats.Puts++
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.mu.Unlock()
		return nil
	}
	c.insert(key, val)
	c.mu.Unlock()

	if c.dir == "" {
		return nil
	}
	return writeFile(c.path(key), val)
}

// insert adds a new entry and evicts beyond the budget. Caller holds mu.
func (c *Cache) insert(key string, val []byte) {
	c.items[key] = c.ll.PushFront(&entry{key: key, val: val})
	c.stats.Entries++
	c.stats.Bytes += int64(len(val))
	for c.stats.Entries > c.max {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		e := oldest.Value.(*entry)
		c.ll.Remove(oldest)
		delete(c.items, e.key)
		c.stats.Entries--
		c.stats.Bytes -= int64(len(e.val))
		c.stats.Evictions++
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.MaxEntries = c.max
	return s
}

// path maps a key to its on-disk location, sharding by the first two
// key characters so huge stores do not pile every entry into one
// directory.
func (c *Cache) path(key string) string {
	k := sanitize(key)
	shard := "xx"
	if len(k) >= 2 {
		shard = k[:2]
	}
	return filepath.Join(c.dir, shard, k)
}

// diskMagic opens every on-disk entry. The envelope is
//
//	vipcache1 <hex sha256 of payload>\n<payload>
//
// so a torn write (crash mid-flush) or bit rot is detected on read and
// served as a miss — the scenario re-simulates deterministically —
// instead of handing a client a truncated report. Entries written by
// the pre-envelope format fail the magic check and heal the same way.
const diskMagic = "vipcache1 "

// envelopeLen is the fixed header size: magic + 64 hex digest chars +
// newline.
const envelopeLen = len(diskMagic) + sha256.Size*2 + 1

// envelope frames val for the disk store.
func envelope(val []byte) []byte {
	out := make([]byte, 0, envelopeLen+len(val))
	out = append(out, diskMagic...)
	out = append(out, HashBytes(val)...)
	out = append(out, '\n')
	return append(out, val...)
}

// unenvelope verifies one disk entry and returns its payload; ok is
// false for any truncated, altered or legacy-format entry.
func unenvelope(b []byte) ([]byte, bool) {
	if len(b) < envelopeLen || string(b[:len(diskMagic)]) != diskMagic || b[envelopeLen-1] != '\n' {
		return nil, false
	}
	sum := string(b[len(diskMagic) : envelopeLen-1])
	payload := b[envelopeLen:]
	if HashBytes(payload) != sum {
		return nil, false
	}
	return payload, true
}

// readDisk loads and verifies one disk entry. A torn or corrupt entry
// counts as corrupt, is removed best-effort so the slot heals on the
// next Put, and reads as a miss.
func (c *Cache) readDisk(key string) ([]byte, bool) {
	b, err := os.ReadFile(c.path(key))
	if err != nil {
		return nil, false
	}
	payload, ok := unenvelope(b)
	if !ok {
		c.mu.Lock()
		c.stats.Corrupt++
		c.mu.Unlock()
		_ = os.Remove(c.path(key)) // best-effort heal; next Put rewrites it
		return nil, false
	}
	return payload, true
}

// writeFile persists one entry crash-atomically: the checksummed
// envelope is written to a temp file, fsynced, renamed into place, and
// the parent directory fsynced so the rename itself survives a crash.
// A failure can never leave a plausible-looking partial entry behind:
// an un-fsynced or half-written file fails the envelope check on read.
// For results the error is advisory (a read-only disk degrades the
// cache to memory-only); a pending marker's caller must not acknowledge
// without it.
func writeFile(p string, val []byte) error {
	dir := filepath.Dir(p)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	_, werr := tmp.Write(envelope(val))
	if err := errors.Join(werr, tmp.Sync(), tmp.Close()); err != nil {
		_ = os.Remove(name)
		return err
	}
	if err := os.Rename(name, p); err != nil {
		_ = os.Remove(name)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}

// pendingSuffix names a pending marker: the file beside a result slot
// that records an accepted job whose result has not landed yet.
const pendingSuffix = ".pending"

// PutPending durably writes val as key's pending marker, in the same
// envelope and with the same atomic write as a result. Without a disk
// store it is a no-op: nothing outlives the process anyway.
func (c *Cache) PutPending(key string, val []byte) error {
	if c.dir == "" {
		return nil
	}
	return writeFile(c.path(key)+pendingSuffix, val)
}

// DropPending removes key's pending marker, if there is one. It does
// not fsync the directory: a marker that survives a crash beside its
// result is dropped when Markers' caller finds the result.
func (c *Cache) DropPending(key string) {
	if c.dir == "" {
		return
	}
	_ = os.Remove(c.path(key) + pendingSuffix)
}

// Marker is one pending marker read back from disk. Val is nil for a
// torn or altered marker.
type Marker struct {
	Key string
	Val []byte
}

// Markers returns every pending marker on disk, ordered by key. A torn
// or altered marker counts as corrupt and comes back with a nil Val:
// it stood for an accepted job, so the caller decides what to tell its
// client before dropping it.
func (c *Cache) Markers() []Marker {
	if c.dir == "" {
		return nil
	}
	paths, _ := filepath.Glob(filepath.Join(c.dir, "*", "*"+pendingSuffix)) // the pattern is well-formed
	var out []Marker
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		val, ok := unenvelope(b)
		if !ok {
			c.mu.Lock()
			c.stats.Corrupt++
			c.mu.Unlock()
		}
		out = append(out, Marker{Key: strings.TrimSuffix(filepath.Base(p), pendingSuffix), Val: val})
	}
	return out
}
