package vcache_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"entangle/internal/bench"
	"entangle/internal/core"
	"entangle/internal/faultinject"
	"entangle/internal/fingerprint"
	"entangle/internal/vcache"
)

// verdict is one entry a zoo check stored, with its key.
type verdict struct {
	key   fingerprint.Hash
	entry *vcache.Entry
}

// verdictLog is a verdict store that misses every probe and keeps what
// is stored (one worker: Put is never called concurrently).
type verdictLog struct {
	verdicts []verdict
	stats    vcache.Stats
}

func (l *verdictLog) Get(fingerprint.Hash) *vcache.Entry { return nil }
func (l *verdictLog) Put(k fingerprint.Hash, e *vcache.Entry) error {
	l.verdicts = append(l.verdicts, verdict{k, e})
	return nil
}
func (l *verdictLog) Stats() *vcache.Stats { return &l.stats }

var zoo struct {
	once     sync.Once
	verdicts []verdict
	err      error
}

// zooVerdicts is every verdict the zoo's cold checks store, in check
// order.
func zooVerdicts(tb testing.TB) []verdict {
	zoo.once.Do(func() {
		log := &verdictLog{}
		for _, c := range bench.Zoo() {
			if c.Expectation {
				continue
			}
			_, gs, gd, ri, err := c.Graphs()
			if err != nil {
				zoo.err = err
				return
			}
			_, _ = core.NewChecker(core.Options{Cache: log, Workers: 1}).Check(gs, gd, ri)
		}
		zoo.verdicts = log.verdicts
	})
	if zoo.err != nil || len(zoo.verdicts) == 0 {
		tb.Fatalf("zoo verdicts: %d, %v", len(zoo.verdicts), zoo.err)
	}
	return zoo.verdicts
}

// rebuild seals what e reads back as, through the constructors, for k.
func rebuild(k fingerprint.Hash, e *vcache.Entry) *vcache.Entry {
	if e.Verdict() == vcache.VerdictDisproved {
		return vcache.Disproved(k, e.Escalations(), vcache.FullStats(e), e.FailOutput())
	}
	terms := make([][]string, e.Outputs())
	_ = e.EachTerm(func(out int, term string) error {
		terms[out] = append(terms[out], term)
		return nil
	})
	return vcache.Refined(k, e.Escalations(), vcache.FullStats(e), terms)
}

// FuzzDecodeEntry: on any bytes under any key — taken as a whole entry
// file, and as a payload under the header EncodeEntry would write for
// it, so the fuzzer reaches the payload grammar past the checksum —
// DecodeEntry returns an entry or an error, never panics, and an entry
// it accepts is exactly what the constructors build from what it reads
// back as. Seeded with every zoo verdict, whole and as a payload, and
// with each one damaged in every faultinject mode.
func FuzzDecodeEntry(f *testing.F) {
	for _, v := range zooVerdicts(f) {
		data := v.entry.Bytes()
		f.Add(v.key[:], data)
		f.Add(v.key[:], bytes.SplitN(data, []byte("\n"), 4)[3])
		for _, mode := range faultinject.CacheFaults() {
			f.Add(v.key[:], faultinject.Damage(data, mode))
		}
	}
	f.Fuzz(func(t *testing.T, keyBytes, data []byte) {
		var k fingerprint.Hash
		copy(k[:], keyBytes)
		header := fmt.Appendf(nil, "EVCACHE2\n%x\n%x\n", k, sha256.Sum256(data))
		for _, file := range [][]byte{data, append(header, data...)} {
			e, err := vcache.DecodeEntry(k, file)
			if err != nil {
				continue
			}
			if back, err := vcache.EncodeEntry(k, e); err != nil || !bytes.Equal(back, file) {
				t.Fatalf("DecodeEntry accepted %q, which encodes back as %q (%v)", file, back, err)
			}
			if built := rebuild(k, e).Bytes(); !bytes.Equal(built, file) {
				t.Fatalf("DecodeEntry accepted %q, but what it reads back as builds %q", file, built)
			}
		}
	})
}

// FuzzSegmentScan: any bytes as a segment file never panic a cache
// opened on it; the scan indexes only whole frames — what it walks reads
// back through the peer-wire FrameReader as exactly the records it
// found — and a Get returns only what DecodeEntry accepts under the
// key asked: the last record of that key, byte for byte. Seeded with a
// segment of every zoo verdict, whole, torn, and with every record
// damaged in each faultinject mode; the segment is the first eight
// verdicts, so a mutation is cheap.
func FuzzSegmentScan(f *testing.F) {
	var seg []byte
	for _, v := range zooVerdicts(f)[:8] {
		seg = vcache.AppendFrame(seg, v.key, v.entry.Bytes())
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-7])
	for _, mode := range faultinject.CacheFaults() {
		var damaged []byte
		vcache.ScanSegment(seg, func(k fingerprint.Hash, entry []byte) {
			damaged = vcache.AppendFrame(damaged, k, faultinject.Damage(entry, mode))
		})
		f.Add(damaged)
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, seg []byte) {
		var records []vcache.Frame
		last := map[fingerprint.Hash][]byte{}
		end := vcache.ScanSegment(seg, func(k fingerprint.Hash, entry []byte) {
			records = append(records, vcache.Frame{Key: k, Data: entry})
			last[k] = entry
		})
		fr, i := vcache.NewFrameReader(bytes.NewReader(seg[:end])), 0
		for {
			f, err := fr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("the scan walked %d bytes that do not read as frames: %v", end, err)
			}
			if f.Data == nil {
				continue
			}
			if i >= len(records) || f.Key != records[i].Key || !bytes.Equal(f.Data, records[i].Data) {
				t.Fatalf("frame %d of the walked bytes is not the scan's record", i)
			}
			i++
		}
		if i != len(records) {
			t.Fatalf("the scan found %d records in %d frames", len(records), i)
		}

		if err := os.WriteFile(filepath.Join(dir, vcache.SegmentName(1)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := vcache.Open(vcache.Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for k, entry := range last {
			e := c.Get(k)
			if e == nil {
				continue
			}
			if _, err := vcache.DecodeEntry(k, e.Bytes()); err != nil || !bytes.Equal(e.Bytes(), entry) {
				t.Fatalf("Get(%s) returned bytes the gate refuses (%v) or another record's", k.Hex(), err)
			}
		}
	})
}

// TestHeldEntryCost fills a default-size cache with zoo verdicts, each
// sealed under a key of its own and spread evenly over the shards, and
// bounds what the cache retains per held entry.
func TestHeldEntryCost(t *testing.T) {
	verdicts := zooVerdicts(t)
	keys := make([]fingerprint.Hash, vcache.DefaultMaxEntries)
	for i := range keys {
		keys[i] = sha256.Sum256(fmt.Appendf(nil, "held-%d", i))
		keys[i][0] = byte(i % vcache.DefaultShards) // the shard
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := vcache.Open(vcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if err := c.Put(k, rebuild(k, verdicts[i%len(verdicts)].entry)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if s := c.Stats().Snapshot(); s.Evictions != 0 {
		t.Fatalf("%d evictions filling the cache to its size", s.Evictions)
	}
	n := float64(len(keys))
	objects := float64(after.HeapObjects-before.HeapObjects) / n
	size := float64(after.HeapAlloc-before.HeapAlloc) / n
	t.Logf("%d held zoo verdicts: %.2f heap objects and %.0f bytes each", len(keys), objects, size)
	if objects > 2 {
		t.Errorf("%.2f heap objects retained per held entry, want at most 2", objects)
	}
	if size > 400 {
		t.Errorf("%.0f bytes retained per held entry, want at most 400", size)
	}
	runtime.KeepAlive(c)
}
