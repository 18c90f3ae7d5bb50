package cache

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestMemoryHitMissAndStats(t *testing.T) {
	c := New(4, "")
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Put("a", []byte("alpha"))
	v, ok := c.Get("a")
	if !ok || string(v) != "alpha" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Puts != 1 || s.Entries != 1 || s.Bytes != 5 {
		t.Errorf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2, "")
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	c.Get("a")              // a is now most-recent
	c.Put("c", []byte("3")) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a should have survived (recently used)")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("c should be resident")
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 2 {
		t.Errorf("stats = %+v", s)
	}
}

// TestPutIsImmutable: re-putting a content-addressed key keeps the
// first value — the address defines the bytes.
func TestPutIsImmutable(t *testing.T) {
	c := New(4, "")
	c.Put("k", []byte("first"))
	c.Put("k", []byte("second"))
	v, _ := c.Get("k")
	if string(v) != "first" {
		t.Errorf("re-put replaced the value: %q", v)
	}
}

func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := New(1, dir)
	c.Put("aakey", []byte("payload"))
	c.Put("bbkey", []byte("other")) // evicts aakey from memory

	// aakey must come back from disk and count as a disk hit.
	v, ok := c.Get("aakey")
	if !ok || string(v) != "payload" {
		t.Fatalf("disk fallback Get = %q, %v", v, ok)
	}
	if s := c.Stats(); s.DiskHits != 1 {
		t.Errorf("DiskHits = %d, want 1", s.DiskHits)
	}

	// A fresh cache over the same directory sees the entries cold.
	c2 := New(4, dir)
	if v, ok := c2.Get("bbkey"); !ok || string(v) != "other" {
		t.Fatalf("fresh cache disk Get = %q, %v", v, ok)
	}

	// Entries are sharded by key prefix.
	if _, err := os.Stat(filepath.Join(dir, "aa", "aakey")); err != nil {
		t.Errorf("expected sharded disk entry: %v", err)
	}
}

func TestKeySanitization(t *testing.T) {
	k := Key("deadbeef", "vip-engine/1")
	if k != "deadbeef@vip-engine_1" {
		t.Errorf("Key = %q", k)
	}
	// Hostile keys must stay inside the cache directory: every file they
	// leave lies under dir, and a fresh cache over dir reads each back.
	// dir sits two levels down, so an escape lands inside root.
	root := t.TempDir()
	dir := filepath.Join(root, "a", "cache")
	keys := []string{"..@x@vip-engine_1", "../../escape", "..", ".", ""}
	c := New(len(keys), dir)
	for i, k := range keys {
		if err := c.Put(k, []byte{'a' + byte(i)}); err != nil {
			t.Errorf("Put(%q): %v", k, err)
		}
	}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if rel, err := filepath.Rel(dir, p); err != nil || !filepath.IsLocal(rel) {
			t.Errorf("%s lies outside the cache dir %s", p, dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fresh := New(len(keys), dir)
	for i, k := range keys {
		if v, ok := fresh.Get(k); !ok || !bytes.Equal(v, []byte{'a' + byte(i)}) {
			t.Errorf("Get(%q) from disk = %q, %v", k, v, ok)
		}
	}
}

// TestConcurrentAccess exercises the lock under the race detector.
func TestConcurrentAccess(t *testing.T) {
	c := New(8, t.TempDir())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("key-%d", i%16)
				want := []byte(fmt.Sprintf("val-%d", i%16))
				c.Put(key, want)
				if v, ok := c.Get(key); ok && !bytes.Equal(v, want) {
					t.Errorf("Get(%s) = %q, want %q", key, v, want)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTornDiskEntryIsMiss is the crash-atomicity regression test: a
// disk entry truncated or altered by a crash mid-write must read as a
// miss (the scenario re-simulates) — never as a corrupt payload handed
// to a client — and the slot must heal on the next Put.
func TestTornDiskEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c := New(1, dir)
	c.Put("aakey", []byte("full-report-payload"))
	c.Put("bbkey", []byte("evictor")) // push aakey out of memory
	p := filepath.Join(dir, "aa", "aakey")

	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatalf("reading disk entry: %v", err)
	}
	cases := map[string][]byte{
		"truncated":     b[:len(b)-5],
		"flipped":       append(append([]byte{}, b[:len(b)-1]...), b[len(b)-1]^0xff),
		"legacy-format": []byte("raw-pre-envelope-payload"),
		"empty":         {},
	}
	names := []string{"truncated", "flipped", "legacy-format", "empty"}
	for _, name := range names {
		damaged := cases[name]
		t.Run(name, func(t *testing.T) {
			fresh := New(1, dir) // cold memory, disk only
			if err := os.WriteFile(p, damaged, 0o644); err != nil {
				t.Fatalf("planting damaged entry: %v", err)
			}
			if v, ok := fresh.Get("aakey"); ok {
				t.Fatalf("damaged entry served as a hit: %q", v)
			}
			s := fresh.Stats()
			if s.Corrupt != 1 {
				t.Errorf("Corrupt = %d, want 1", s.Corrupt)
			}
			if s.Misses != 1 {
				t.Errorf("Misses = %d, want 1", s.Misses)
			}
			// The damaged file is gone, and a re-Put fully heals the slot.
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Errorf("damaged entry not removed: %v", err)
			}
			fresh.Put("aakey", []byte("full-report-payload"))
			healed := New(1, dir)
			if v, ok := healed.Get("aakey"); !ok || string(v) != "full-report-payload" {
				t.Errorf("healed Get = %q, %v", v, ok)
			}
		})
	}
}

// TestEnvelopeRoundTrip pins the disk framing itself.
func TestEnvelopeRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("report"), 1000)} {
		got, ok := unenvelope(envelope(payload))
		if !ok {
			t.Fatalf("envelope(%d bytes) failed verification", len(payload))
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("round trip changed payload: %d bytes -> %d", len(payload), len(got))
		}
	}
	if _, ok := unenvelope(nil); ok {
		t.Error("nil unenveloped")
	}
}

// TestPendingMarkers: markers round-trip beside their result slots in
// key order, DropPending removes one, a torn marker comes back by key
// with no payload, and a write that cannot reach the disk reports it —
// for markers and results alike. Without a directory nothing happens.
func TestPendingMarkers(t *testing.T) {
	dir := t.TempDir()
	c := New(4, dir)
	for _, k := range []string{"bbkey", "aakey", "ackey"} {
		if err := c.PutPending(k, []byte("req-"+k)); err != nil {
			t.Fatalf("PutPending(%s): %v", k, err)
		}
	}
	c.DropPending("ackey")
	ms := c.Markers()
	if len(ms) != 2 || ms[0].Key != "aakey" || string(ms[0].Val) != "req-aakey" || ms[1].Key != "bbkey" {
		t.Fatalf("Markers = %+v, want aakey then bbkey", ms)
	}
	if _, ok := c.Get("aakey"); ok {
		t.Error("a marker reads as a result")
	}

	p := filepath.Join(dir, "bb", "bbkey"+pendingSuffix)
	if err := os.WriteFile(p, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if ms := c.Markers(); len(ms) != 2 || ms[1].Key != "bbkey" || ms[1].Val != nil {
		t.Errorf("torn marker = %+v, want bbkey with a nil Val", ms)
	}
	if s := c.Stats(); s.Corrupt != 1 {
		t.Errorf("Corrupt = %d, want 1", s.Corrupt)
	}

	if err := os.WriteFile(filepath.Join(dir, "cc"), []byte("x"), 0o644); err != nil {
		t.Fatal(err) // a file where the cc shard directory belongs
	}
	if err := c.PutPending("cckey", []byte("r")); err == nil {
		t.Error("PutPending into a blocked shard returned no error")
	}
	if err := c.Put("cckey", []byte("v")); err == nil {
		t.Error("Put into a blocked shard returned no error")
	}

	mem := New(4, "")
	if err := mem.PutPending("aakey", []byte("r")); err != nil || len(mem.Markers()) != 0 {
		t.Errorf("memory-only PutPending = %v, Markers = %v; want no-ops", err, mem.Markers())
	}
}
