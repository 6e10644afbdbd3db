package vcache

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"entangle/internal/egraph"
	"entangle/internal/fingerprint"
)

func key(i int) fingerprint.Hash {
	return sha256.Sum256([]byte(fmt.Sprintf("key-%d", i)))
}

// entry is verdict number i, sealed for k.
func entry(k fingerprint.Hash, i int) *Entry {
	return Refined(k, 0, egraph.Stats{Iterations: i, Saturated: true, Runs: 1},
		[][]string{{fmt.Sprintf("(concat||1|d0;d%d)", i)}})
}

func TestMemoryRoundTrip(t *testing.T) {
	c, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Get(key(1)) != nil {
		t.Fatal("hit on empty cache")
	}
	if err := c.Put(key(1), entry(key(1), 1)); err != nil {
		t.Fatal(err)
	}
	got := c.Get(key(1))
	if got == nil || got.Stats().Iterations != 1 {
		t.Fatalf("got %+v", got)
	}
	s := c.Stats().Snapshot()
	if s.Hits != 1 || s.MemHits != 1 || s.Misses != 1 || s.Stores != 1 {
		t.Fatalf("counters: %+v", s)
	}
}

func TestDiskRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(key(7), Disproved(key(7), 0, egraph.Stats{Iterations: 7}, 2)); err != nil {
		t.Fatal(err)
	}

	// A fresh cache over the same directory must serve the entry from
	// disk (cold memory), then from memory.
	c2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got := c2.Get(key(7))
	if got == nil || got.Verdict() != VerdictDisproved || got.FailOutput() != 2 || got.Stats().Iterations != 7 {
		t.Fatalf("disk entry: %+v", got)
	}
	if s := c2.Stats().Snapshot(); s.DiskHits != 1 {
		t.Fatalf("expected a disk hit: %+v", s)
	}
	c2.Get(key(7))
	if s := c2.Stats().Snapshot(); s.MemHits != 1 {
		t.Fatalf("expected a memory hit after promotion: %+v", s)
	}
}

// TestEntryRoundTripsEveryField sets every field of egraph.Stats (by
// reflection, so a field added there and forgotten by the codec fails
// here) and reads each one back, with the terms and the verdict's own
// fields, from both constructors.
func TestEntryRoundTripsEveryField(t *testing.T) {
	var st egraph.Stats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			f.SetInt(int64(-3 + 1000*i))
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Map:
			f.Set(reflect.ValueOf(map[string]int{"sum-flatten": 3, "add-is-sum": 1 << 40, "": -2}))
		default:
			t.Fatalf("egraph.Stats.%s is a %s: teach the entry codec about it", v.Type().Field(i).Name, f.Kind())
		}
	}
	terms := [][]string{{"(concat||1|d0;d1)", "s4"}, nil, {"", strings.Repeat("x", 300)}}
	k := key(1)
	refined := Refined(k, 5, st, terms)
	if refined.Verdict() != VerdictRefined || refined.Escalations() != 5 || refined.Outputs() != len(terms) ||
		refined.FailOutput() != 0 || !reflect.DeepEqual(refined.Stats(), st) {
		t.Fatalf("refined entry reads back as %s/%d/%d outputs/%+v", refined.Verdict(), refined.Escalations(), refined.Outputs(), refined.Stats())
	}
	back := make([][]string, refined.Outputs())
	err := refined.EachTerm(func(out int, term string) error {
		back[out] = append(back[out], term)
		return nil
	})
	if err != nil || !reflect.DeepEqual(back, terms) {
		t.Fatalf("terms read back as %q, want %q", back, terms)
	}
	disproved := Disproved(k, 1, egraph.Stats{}, -7)
	if disproved.Verdict() != VerdictDisproved || disproved.FailOutput() != -7 || disproved.Outputs() != 0 ||
		disproved.Escalations() != 1 || !reflect.DeepEqual(disproved.Stats(), egraph.Stats{}) {
		t.Fatalf("disproved entry reads back as %s/%d/%d", disproved.Verdict(), disproved.FailOutput(), disproved.Escalations())
	}
	for _, e := range []*Entry{refined, disproved} {
		if d, err := DecodeEntry(k, e.Bytes()); err != nil || d.data != e.data {
			t.Fatalf("a built entry fails its own gate: %v", err)
		}
	}
}

// TestNonCacheableVerdictRejected: only Refined and Disproved can be
// built, and the gate refuses any other verdict tag under a valid
// header. Nil, the zero Entry and an entry sealed for another key are
// refused by Put and EncodeEntry alike.
func TestNonCacheableVerdictRejected(t *testing.T) {
	inconclusive := "I\x00" + strings.Repeat("\x00", 7) + "\x01\x00" + "\x00"
	if _, err := DecodeEntry(key(1), sealed(key(1), inconclusive)); err == nil {
		t.Error("an inconclusive verdict passed the gate")
	}
	c, _ := Open(Config{})
	for name, e := range map[string]*Entry{"nil": nil, "zero": {}, "another key's": entry(key(2), 2)} {
		if err := c.Put(key(1), e); err == nil {
			t.Errorf("%s entry stored", name)
		}
		if _, err := EncodeEntry(key(1), e); err == nil {
			t.Errorf("%s entry encoded", name)
		}
	}
	if c.Get(key(1)) != nil {
		t.Fatal("rejected entry is visible")
	}
	var zero Entry
	if zero.Verdict() != "" || zero.Outputs() != 0 || zero.EachTerm(nil) != nil {
		t.Fatal("the zero Entry reads as a verdict")
	}
}

// sealed puts the header EncodeEntry writes for k in front of
// arbitrary payload bytes.
func sealed(k fingerprint.Hash, payload string) []byte {
	return fmt.Appendf(nil, "%s\n%x\n%x\n%s", magic, k, sha256.Sum256([]byte(payload)), payload)
}

// TestDecodeEntryAcceptsOneSpelling: under a valid header, a payload
// that parses but is not spelled as the constructors spell it is
// refused — an overlong number, rule names out of order or repeated, a
// flag other than 0 or 1, a count past the end, bytes after the end —
// as is any header that is not exactly three fixed-width lines.
func TestDecodeEntryAcceptsOneSpelling(t *testing.T) {
	k := key(1)
	// 'R', escalations 0, seven zero stats, saturated, no rules, one
	// output of one term "s0".
	good := "R\x00" + strings.Repeat("\x00", 7) + "\x01\x00" + "\x01\x01\x02s0"
	if _, err := DecodeEntry(k, sealed(k, good)); err != nil {
		t.Fatalf("the reference payload is refused: %v", err)
	}
	bad := map[string]string{
		"overlong varint":    "R\x80\x00" + strings.Repeat("\x00", 7) + "\x01\x00" + "\x00",
		"overflowing varint": "R" + strings.Repeat("\xff", 10) + "\x01" + strings.Repeat("\x00", 7) + "\x01\x00\x00",
		"flag 2":             "R\x00" + strings.Repeat("\x00", 7) + "\x02\x00" + "\x00",
		"names out of order": "R\x00" + strings.Repeat("\x00", 7) + "\x01\x02\x01b\x02\x01a\x02" + "\x00",
		"name repeated":      "R\x00" + strings.Repeat("\x00", 7) + "\x01\x02\x01a\x02\x01a\x02" + "\x00",
		"count past the end": "R\x00" + strings.Repeat("\x00", 7) + "\x01\x00" + "\x05\x00",
		"term past the end":  "R\x00" + strings.Repeat("\x00", 7) + "\x01\x00" + "\x01\x01\x09s0",
		"trailing byte":      good + "\x00",
		"cut short":          good[:len(good)-1],
		"unknown verdict":    "I" + good[1:],
		"disproved, no fail": "D\x00" + strings.Repeat("\x00", 7) + "\x01\x00",
		"empty payload":      "",
	}
	for name, payload := range bad {
		if _, err := DecodeEntry(k, sealed(k, payload)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	clean := sealed(k, good)
	for name, data := range map[string][]byte{
		"upper-case key":      []byte(strings.Replace(string(clean), k.Hex(), strings.ToUpper(k.Hex()), 1)),
		"previous magic":      append([]byte("EVCACHE1"), clean[len(magic):]...),
		"another key":         sealed(key(2), good),
		"header only":         clean[:headerLen],
		"missing newline":     append(append([]byte(nil), clean[:headerLen-1]...), clean[headerLen:]...),
		"no header":           []byte(good),
		"checksum of another": append(append([]byte(nil), clean[:headerLen]...), "D"+good[1:]...),
	} {
		if _, err := DecodeEntry(k, data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	// One shard, capacity 2: inserting 3 distinct keys evicts the
	// least recently used.
	c, err := openSized(Config{}, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := c.Put(key(i), entry(key(i), i)); err != nil {
			t.Fatal(err)
		}
	}
	c.Get(key(0)) // key 1 becomes LRU
	if err := c.Put(key(2), entry(key(2), 2)); err != nil {
		t.Fatal(err)
	}
	if c.Get(key(1)) != nil {
		t.Fatal("LRU entry survived eviction")
	}
	if c.Get(key(0)) == nil || c.Get(key(2)) == nil {
		t.Fatal("recently used entries evicted")
	}
	if s := c.Stats().Snapshot(); s.Evictions != 1 {
		t.Fatalf("evictions: %+v", s)
	}
}

// TestLRUOrderMatchesAList drives one shard through a seeded mix of
// puts, re-puts and gets and compares what it holds, after every step,
// with a plain most-recent-first list of the same capacity.
func TestLRUOrderMatchesAList(t *testing.T) {
	const capacity, keys, steps = 5, 12, 2000
	c, err := openSized(Config{}, capacity, 1)
	if err != nil {
		t.Fatal(err)
	}
	var want []int // most recent first
	touch := func(k int) {
		for i, w := range want {
			if w == k {
				want = append(want[:i], want[i+1:]...)
				break
			}
		}
		want = append([]int{k}, want...)
	}
	x := uint64(1)
	for step := 0; step < steps; step++ {
		x = x*6364136223846793005 + 1442695040888963407
		k := int(x>>33) % keys
		held := false
		for _, w := range want {
			held = held || w == k
		}
		if x>>62 == 0 {
			if got := c.Get(key(k)) != nil; got != held {
				t.Fatalf("step %d: Get(%d) hit = %v, the list holds it = %v", step, k, got, held)
			}
			if held {
				touch(k)
			}
		} else {
			if err := c.Put(key(k), entry(key(k), k)); err != nil {
				t.Fatal(err)
			}
			if touch(k); len(want) > capacity {
				want = want[:capacity]
			}
		}
		s := c.shards[0]
		var got []int
		for i := s.head; i >= 0; i = s.slots[i].next {
			for j := 0; j < keys; j++ {
				if s.slots[i].key == key(j) {
					got = append(got, j)
				}
			}
		}
		if !reflect.DeepEqual(got, want) || len(s.index) != len(want) {
			t.Fatalf("step %d: shard holds %v (index %d), the list %v", step, got, len(s.index), want)
		}
	}
}

// pointerField returns the path to the first field of t whose kind
// makes the collector scan the memory holding it, or "" when t is
// pointer-free.
func pointerField(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Ptr, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
		reflect.Chan, reflect.Func, reflect.Interface:
		return path + " (" + t.Kind().String() + ")"
	case reflect.Array:
		return pointerField(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p := pointerField(t.Field(i).Type, path+"."+t.Field(i).Name); p != "" {
				return p
			}
		}
	}
	return ""
}

// TestLRUHoldsNoPointerButTheBytes: the index maps a key to a slot
// number and a slot holds, besides its key and neighbours, only the
// entry's bytes — so a full cache is one string per entry for the
// collector to find, not a graph of them.
func TestLRUHoldsNoPointerButTheBytes(t *testing.T) {
	index, ok := reflect.TypeOf(shard{}).FieldByName("index")
	if !ok || index.Type.Kind() != reflect.Map {
		t.Fatal("shard has no index map")
	}
	for _, typ := range []reflect.Type{index.Type.Key(), index.Type.Elem()} {
		if p := pointerField(typ, typ.String()); p != "" {
			t.Errorf("the index holds a pointer: %s", p)
		}
	}
	st := reflect.TypeOf(slot{})
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if f.Name == "data" {
			if f.Type.Kind() != reflect.String {
				t.Errorf("slot.data is a %s, want the entry's bytes as a string", f.Type.Kind())
			}
			continue
		}
		if p := pointerField(f.Type, "slot."+f.Name); p != "" {
			t.Errorf("slot holds a pointer besides the bytes: %s", p)
		}
	}
	if st.Size() > 56 {
		t.Errorf("a slot is %d bytes, want at most 56", st.Size())
	}
	if p := pointerField(reflect.TypeOf(Entry{}), "Entry"); p != "Entry.data (string)" || reflect.TypeOf(Entry{}).NumField() != 1 {
		t.Errorf("an Entry is more than its bytes: %s", p)
	}
}

// rewriteRecords replaces the entry of every record in dir's segments
// with what damage makes of it, re-framed, and returns how many records
// it rewrote.
func rewriteRecords(t *testing.T, dir string, damage func(k fingerprint.Hash, entry []byte) []byte) int {
	t.Helper()
	paths, err := SegmentPaths(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		ScanSegment(data, func(k fingerprint.Hash, entry []byte) {
			out = AppendFrame(out, k, damage(k, append([]byte(nil), entry...)))
			n++
		})
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return n
}

func TestCorruptEntriesAreMisses(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"truncated":  func(b []byte) []byte { return b[:len(b)/2] },
		"bit-flip":   func(b []byte) []byte { b[len(b)-3] ^= 0x40; return b },
		"bad-magic":  func(b []byte) []byte { b[0] = 'X'; return b },
		"empty":      func(b []byte) []byte { return nil },
		"no-newline": func(b []byte) []byte { return []byte("EVCACHE2 garbage with no header lines") },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := Open(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Put(key(1), entry(key(1), 1)); err != nil {
				t.Fatal(err)
			}
			if n := rewriteRecords(t, dir, func(_ fingerprint.Hash, b []byte) []byte { return corrupt(b) }); n != 1 {
				t.Fatalf("%d records on disk, want 1", n)
			}
			// A fresh cache (cold memory) must classify the damaged
			// record as a miss, never return it.
			c2, err := Open(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if got := c2.Get(key(1)); got != nil {
				t.Fatalf("corrupt entry served: %+v", got)
			}
			s := c2.Stats().Snapshot()
			if s.Corrupt != 1 || s.Misses != 1 || s.Hits != 0 {
				t.Fatalf("counters after corruption: %+v", s)
			}
		})
	}
}

func TestKeyMismatchIsCorrupt(t *testing.T) {
	// A valid entry framed under another key (fingerprint mismatch)
	// must not be served.
	dir := t.TempDir()
	seg := AppendFrame(nil, key(2), entry(key(1), 1).Bytes())
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Get(key(2)); got != nil {
		t.Fatalf("mis-keyed entry served: %+v", got)
	}
	if s := c.Stats().Snapshot(); s.Corrupt != 1 {
		t.Fatalf("counters: %+v", s)
	}
}

// N goroutines hammer one cache with mixed reads, writes, evictions,
// and disk traffic; run under -race in CI.
func TestConcurrentHammer(t *testing.T) {
	dir := t.TempDir()
	c, err := openSized(Config{Dir: dir}, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := key((g*7 + i) % 64) // overlap across goroutines
				if e := c.Get(k); e != nil {
					if e.Verdict() != VerdictRefined {
						t.Errorf("unexpected verdict %q", e.Verdict())
						return
					}
					continue
				}
				if err := c.Put(k, entry(k, i)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s := c.Stats().Snapshot()
	if s.Hits == 0 || s.Stores == 0 {
		t.Fatalf("hammer produced no traffic: %+v", s)
	}
	if s.Corrupt != 0 || s.StoreErrors != 0 {
		t.Fatalf("hammer corrupted the store: %+v", s)
	}
	// Every key must be retrievable afterwards via disk.
	c2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if c2.Get(key(i)) == nil {
			t.Fatalf("key %d lost after hammer", i)
		}
	}
}

// Concurrent rewriters of the SAME key must never produce a torn
// record: whatever the interleaving, readers see a fully-formed entry.
func TestConcurrentRewriteSameKey(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := c.Put(key(0), entry(key(0), g*1000+i)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				// A cold cache forces the disk read path.
				c2, err := Open(Config{Dir: dir})
				if err != nil {
					t.Errorf("open: %v", err)
					return
				}
				e := c2.Get(key(0))
				c2.Close()
				if e == nil || e.Verdict() != VerdictRefined {
					t.Errorf("torn or missing entry: %+v (stats %+v)", e, c2.Stats().Snapshot())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s := c.Stats().Snapshot(); s.StoreErrors != 0 {
		t.Fatalf("store errors: %+v", s)
	}
}
