package vcache

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

func diskCache(t *testing.T, dir string) *Cache {
	t.Helper()
	c, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestCachesOnOneDirectorySeeEachOther opens two caches on one
// directory before either stores: each must read what the other
// appends, through the catch-up a miss makes.
func TestCachesOnOneDirectorySeeEachOther(t *testing.T) {
	dir := t.TempDir()
	a, b := diskCache(t, dir), diskCache(t, dir)
	for i := range 10 {
		if err := a.Put(key(i), entry(key(i), i)); err != nil {
			t.Fatal(err)
		}
		if got := b.Get(key(i)); got == nil || got.Stats().Iterations != i {
			t.Fatalf("b misses a's record %d", i)
		}
		if err := b.Put(key(100+i), entry(key(100+i), i)); err != nil {
			t.Fatal(err)
		}
		if got := a.Get(key(100 + i)); got == nil || got.Stats().Iterations != i {
			t.Fatalf("a misses b's record %d", i)
		}
	}
	for _, c := range []*Cache{a, b} {
		if s := c.Stats().Snapshot(); s.DiskHits != 10 || s.Corrupt != 0 {
			t.Fatalf("counters %+v, want 10 disk hits", s)
		}
	}
}

// TestCachesOnOneDirectoryConcurrently races stores on one cache
// against reads on another (run under -race in CI): a read returns the
// stored bytes or nothing, never a torn record, and once the writers
// are done every record reads back.
func TestCachesOnOneDirectoryConcurrently(t *testing.T) {
	dir := t.TempDir()
	a, b := diskCache(t, dir), diskCache(t, dir)
	const writers, perWriter = 4, 50
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := range perWriter {
				k := key(w*perWriter + i)
				if err := a.Put(k, entry(k, i)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := range perWriter {
				k := key(w*perWriter + i)
				if got := b.Get(k); got != nil && !bytes.Equal(got.Bytes(), entry(k, i).Bytes()) {
					t.Errorf("key %d read back as another verdict", w*perWriter+i)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := range writers * perWriter {
		if b.Get(key(i)) == nil {
			t.Fatalf("record %d lost", i)
		}
	}
	if s := b.Stats().Snapshot(); s.Corrupt != 0 {
		t.Fatalf("a concurrent read counted corrupt: %+v", s)
	}
}

// TestOneSegmentPerWriter: after 1,000 stores from two caches the
// directory holds their two segments and nothing else, and a store of a
// key already recorded appends nothing.
func TestOneSegmentPerWriter(t *testing.T) {
	dir := t.TempDir()
	a, b := diskCache(t, dir), diskCache(t, dir)
	for i := range 1000 {
		c := a
		if i%2 == 1 {
			c = b
		}
		if err := c.Put(key(i), entry(key(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0].Name() != segmentName(1) || names[1].Name() != segmentName(2) {
		t.Fatalf("the directory holds %v, want the two segments", names)
	}
	size := func() int64 {
		info, err := os.Stat(filepath.Join(dir, segmentName(1)))
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	before := size()
	if err := a.Put(key(0), entry(key(0), 0)); err != nil {
		t.Fatal(err)
	}
	if size() != before {
		t.Fatal("a store of a recorded key appended to the segment")
	}
}

// openFiles counts the process's open file descriptors.
func openFiles(t *testing.T) int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd")
	}
	return len(fds)
}

// TestCloseReleasesSegments: Close gives back the file descriptors of
// the directory and every segment; the closed cache still serves
// memory, reads nothing from disk, and refuses to store there.
func TestCloseReleasesSegments(t *testing.T) {
	dir := t.TempDir()
	before := openFiles(t)
	a, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	b := diskCache(t, dir)
	if err := b.Put(key(1), entry(key(1), 1)); err != nil {
		t.Fatal(err)
	}
	if err := a.Put(key(2), entry(key(2), 2)); err != nil || a.Get(key(1)) == nil {
		t.Fatalf("put %v, or b's record unread", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if n := openFiles(t); n != before+2 { // b's directory and own segment
		t.Fatalf("%d files open after Close, want %d", n, before+2)
	}
	if a.Get(key(2)) == nil {
		t.Fatal("a closed cache stopped serving memory")
	}
	if a.Put(key(3), entry(key(3), 3)) == nil || a.Get(key(3)) == nil {
		t.Fatal("a closed cache stored to disk, or dropped the entry from memory")
	}
}

// TestIndexEntryCost opens a cache on a directory of DefaultMaxEntries
// records and bounds what its index retains per disk entry. Skipped
// under -race, which allocates on its own account.
func TestIndexEntryCost(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations are not the index's")
	}
	dir := t.TempDir()
	w := diskCache(t, dir)
	for i := range DefaultMaxEntries {
		if err := w.Put(key(i), entry(key(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := openSized(Config{Dir: dir}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(after.HeapAlloc-before.HeapAlloc) / DefaultMaxEntries
	t.Logf("%d disk entries: the index retains %.0f bytes each", DefaultMaxEntries, per)
	if per > 64 {
		t.Errorf("the index retains %.0f bytes per disk entry, want at most 64", per)
	}
	runtime.KeepAlive(c)
	c.Close()
}
