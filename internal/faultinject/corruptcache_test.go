package faultinject

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"entangle/internal/egraph"
	"entangle/internal/fingerprint"
	"entangle/internal/vcache"
)

func diskCache(t *testing.T, dir string) *vcache.Cache {
	t.Helper()
	c, err := vcache.Open(vcache.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testEntry(i int) (fingerprint.Hash, *vcache.Entry) {
	key := fingerprint.Hash(sha256.Sum256([]byte(fmt.Sprintf("corrupt-key-%d", i))))
	return key, vcache.Refined(key, 0, egraph.Stats{}, [][]string{{fmt.Sprintf("t%d", i)}})
}

// corruptEvery damages every verdict-cache entry file under dir with one
// fixed fault mode — the targeted variant CorruptCache's seeded sampling
// cannot guarantee for any single file.
func corruptEvery(dir string, mode CacheFault) (int, error) {
	return corruptCache(dir, func(string) CacheFault { return mode })
}

// TestCorruptCacheModeEveryModeIsAMiss is the edge-case sweep the
// seeded CorruptCache cannot guarantee per file: every fault mode —
// including truncation to zero bytes (Empty), a header-only file, and
// a flipped checksum byte over an intact payload — must read back
// through a real cache round trip as a miss counted corrupt, never as
// a wrong verdict.
func TestCorruptCacheModeEveryModeIsAMiss(t *testing.T) {
	for _, mode := range CacheFaults() {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			c := diskCache(t, dir)
			key, e := testEntry(0)
			if err := c.Put(key, e); err != nil {
				t.Fatal(err)
			}

			n, err := corruptEvery(dir, mode)
			if err != nil {
				t.Fatal(err)
			}
			if n != 1 {
				t.Fatalf("damaged %d files, want 1", n)
			}

			// A fresh cache over the same directory has no memory copy:
			// the Get must go to disk and classify the file as corrupt.
			reopened := diskCache(t, dir)
			if got := reopened.Get(key); got != nil {
				t.Fatalf("mode %s returned a verdict from a damaged file: %+v", mode, got)
			}
			s := reopened.Stats().Snapshot()
			if s.Misses != 1 || s.Corrupt != 1 {
				t.Fatalf("mode %s: misses=%d corrupt=%d, want 1/1", mode, s.Misses, s.Corrupt)
			}

			// The store must recover by rewriting: a fresh Put replaces
			// the damaged file and the next read hits again.
			if err := reopened.Put(key, e); err != nil {
				t.Fatal(err)
			}
			third := diskCache(t, dir)
			got := third.Get(key)
			if got == nil || !bytes.Equal(got.Bytes(), e.Bytes()) {
				t.Fatalf("mode %s: cache did not recover after re-Put", mode)
			}
		})
	}
}

// TestCorruptCacheModeShapes pins the on-disk shape each edge mode
// leaves behind, so the modes keep damaging what their names claim.
func TestCorruptCacheModeShapes(t *testing.T) {
	writeOne := func(t *testing.T) (string, string, []byte) {
		dir := t.TempDir()
		c := diskCache(t, dir)
		key, e := testEntry(1)
		if err := c.Put(key, e); err != nil {
			t.Fatal(err)
		}
		hx := key.Hex()
		path := filepath.Join(dir, "v2", hx[:2], hx)
		clean, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return dir, path, clean
	}

	t.Run("empty-truncates-to-zero-bytes", func(t *testing.T) {
		dir, path, _ := writeOne(t)
		if _, err := corruptEvery(dir, Empty); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != 0 {
			t.Fatalf("Empty left %d bytes", len(data))
		}
	})

	t.Run("header-only-keeps-exactly-the-header", func(t *testing.T) {
		dir, path, clean := writeOne(t)
		if _, err := corruptEvery(dir, HeaderOnly); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.Count(data, []byte("\n")); got != 3 {
			t.Fatalf("header-only file has %d newlines, want 3", got)
		}
		if !bytes.HasPrefix(clean, data) || len(data) == len(clean) {
			t.Fatal("header-only is not a strict prefix of the clean file")
		}
	})

	t.Run("flip-checksum-leaves-payload-intact", func(t *testing.T) {
		dir, path, clean := writeOne(t)
		if _, err := corruptEvery(dir, FlipChecksum); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != len(clean) {
			t.Fatalf("flip-checksum changed the length: %d vs %d", len(data), len(clean))
		}
		diffs := 0
		for i := range data {
			if data[i] != clean[i] {
				diffs++
			}
		}
		if diffs != 1 {
			t.Fatalf("flip-checksum changed %d bytes, want exactly 1", diffs)
		}
		// The changed byte must sit inside the checksum line (after the
		// second newline, before the third).
		second := bytes.Index(clean, []byte("\n"))
		second += 1 + bytes.Index(clean[second+1:], []byte("\n"))
		third := second + 1 + bytes.Index(clean[second+2:], []byte("\n"))
		for i := range data {
			if data[i] != clean[i] && (i <= second || i > third) {
				t.Fatalf("flipped byte at %d is outside the checksum line (%d, %d]", i, second, third)
			}
		}
	})
}

// TestDamagePureAndTotal: Damage never mutates its input and is total
// over degenerate inputs — zero-length data and data with no newlines
// must not panic for any mode.
func TestDamagePureAndTotal(t *testing.T) {
	orig := []byte("EVCACHE2\nkey\nsum\nR")
	for _, mode := range CacheFaults() {
		snapshot := append([]byte(nil), orig...)
		_ = Damage(orig, mode)
		if !bytes.Equal(orig, snapshot) {
			t.Fatalf("mode %s mutated its input", mode)
		}
		_ = Damage(nil, mode)
		_ = Damage([]byte{}, mode)
		_ = Damage([]byte("no newlines here"), mode)
	}
}
