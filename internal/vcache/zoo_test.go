package vcache_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
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
		return vcache.Disproved(k, e.Escalations(), e.Stats(), e.FailOutput())
	}
	terms := make([][]string, e.Outputs())
	_ = e.EachTerm(func(out int, term string) error {
		terms[out] = append(terms[out], term)
		return nil
	})
	return vcache.Refined(k, e.Escalations(), e.Stats(), terms)
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
