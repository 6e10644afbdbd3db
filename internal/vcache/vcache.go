// Package vcache is ENTANGLE's content-addressed verdict cache: a
// sharded in-memory LRU in front of an optional on-disk store, keyed
// by the fingerprints of internal/fingerprint. The checker consults it
// before saturating an operator and replays the stored result on a
// hit, so re-verifying an unchanged (or mostly unchanged) model pair
// skips the e-graph work entirely.
//
// Only schedule-independent verdicts are ever stored: Refined (with
// the clean output mappings the saturation extracted) and Disproved
// (with the failing output's index). Inconclusive verdicts depend on
// budgets and wall clocks, EngineFault on transient runtime state, and
// Skipped on sibling failures — none are facts about the graph, so
// none can be built: Refined and Disproved are the only constructors.
//
// A verdict has one form once it is computed: its EVCACHE2 bytes,
// sealed for its key (see EncodeEntry). The LRU holds them, a disk
// record and a peer frame carry them in the same frame (frame.go), and
// the checker replays straight out of them; nothing re-encodes a held
// entry.
//
// The disk layer is append-only segments, one per writing Cache
// (segment.go), and it is defensive by construction: entries carry a
// versioned header with the full key fingerprint and a payload
// checksum, and ANY defect on read — a torn record, bad magic, key
// mismatch, checksum mismatch, undecodable payload — is classified as a
// miss (with a Corrupt counter bump when the record is there to read),
// never as a wrong verdict. Concurrent stores of the same key from two
// caches are harmless: each appends a whole record for the same content
// address to its own segment.
package vcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"entangle/internal/egraph"
	"entangle/internal/fingerprint"
)

// Verdict is the cached verdict kind. Only the two reuse-safe points
// of the verdict lattice appear here.
type Verdict string

const (
	VerdictRefined   Verdict = "refined"
	VerdictDisproved Verdict = "disproved"
)

// Entry is one cached verdict: its EVCACHE2 bytes, exactly as
// EncodeEntry returns them, held as an immutable string so that a
// memory hit, a replayed term and a served frame all share them
// without a copy. An Entry is sealed for one key; the only ways to get
// one are Refined, Disproved, DecodeEntry and a cache hit. The zero
// Entry is no verdict: every store refuses it.
type Entry struct {
	data string
}

// Stats are the cache's monotone counters. All fields are read with
// atomic loads; Snapshot returns a plain copy.
type Stats struct {
	Hits        atomic.Int64 // total hits (memory + disk)
	MemHits     atomic.Int64
	DiskHits    atomic.Int64
	Misses      atomic.Int64 // includes corrupt entries
	Corrupt     atomic.Int64 // disk entries rejected by validation
	Evictions   atomic.Int64 // in-memory LRU evictions
	Stores      atomic.Int64
	StoreErrors atomic.Int64 // failed disk writes (entry stays in memory)
}

// StatsSnapshot is a point-in-time copy of Stats, JSON-encodable.
type StatsSnapshot struct {
	Hits        int64 `json:"hits"`
	MemHits     int64 `json:"mem_hits"`
	DiskHits    int64 `json:"disk_hits"`
	Misses      int64 `json:"misses"`
	Corrupt     int64 `json:"corrupt"`
	Evictions   int64 `json:"evictions"`
	Stores      int64 `json:"stores"`
	StoreErrors int64 `json:"store_errors"`
}

// Snapshot copies the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Hits:        s.Hits.Load(),
		MemHits:     s.MemHits.Load(),
		DiskHits:    s.DiskHits.Load(),
		Misses:      s.Misses.Load(),
		Corrupt:     s.Corrupt.Load(),
		Evictions:   s.Evictions.Load(),
		Stores:      s.Stores.Load(),
		StoreErrors: s.StoreErrors.Load(),
	}
}

// Config says where a cache keeps its verdicts.
type Config struct {
	// Dir is the directory holding the on-disk segments; empty keeps
	// the cache memory-only.
	Dir string
}

const (
	// DefaultMaxEntries bounds the in-memory entry count across all
	// shards. Disk entries are never evicted.
	DefaultMaxEntries = 4096
	// DefaultShards is the LRU's lock-striping factor.
	DefaultShards = 16

	// magic is the versioned header tag, and version prefixes the
	// names of the segments entries of this format live in; bump both
	// when the entry format changes incompatibly. Files of another
	// version, and the v1/ and v2/ trees of one file per entry that
	// earlier stores wrote, are never read, so they are inert (and may
	// be deleted).
	magic   = "EVCACHE2"
	version = "v2"
)

// shard is one lock stripe of the LRU. It holds no pointer but its
// entries' bytes: index maps a key to its slot, and the slots form the
// recency list through their prev/next indices.
type shard struct {
	mu         sync.Mutex
	index      map[fingerprint.Hash]int32
	slots      []slot // grows to max, then the least recent slot is reused
	head, tail int32  // most and least recently used slot; -1 when empty
	max        int
}

// slot is one held entry.
type slot struct {
	key        fingerprint.Hash
	prev, next int32
	data       string // the entry's bytes
}

// Cache is the verdict cache. Safe for concurrent use.
type Cache struct {
	dir    string
	shards []*shard
	stats  Stats
	log    *diskLog // nil for a memory-only cache
}

// Open builds a cache. With a non-empty Dir the directory is created
// and its segments scanned eagerly, so configuration errors surface at
// startup, not mid-check. A disk cache holds its segments open until
// Close.
func Open(cfg Config) (*Cache, error) {
	return openSized(cfg, DefaultMaxEntries, DefaultShards)
}

// openSized is Open with an LRU of maxEntries over the given number of
// shards, for the eviction tests.
func openSized(cfg Config, maxEntries, shards int) (*Cache, error) {
	perShard := (maxEntries + shards - 1) / shards
	c := &Cache{dir: cfg.Dir, shards: make([]*shard, shards)}
	for i := range c.shards {
		c.shards[i] = &shard{index: map[fingerprint.Hash]int32{}, head: -1, tail: -1, max: perShard}
	}
	if cfg.Dir != "" {
		l, err := openLog(cfg.Dir)
		if err != nil {
			return nil, fmt.Errorf("vcache: %v", err)
		}
		c.log = l
	}
	return c, nil
}

// Stats exposes the counters.
func (c *Cache) Stats() *Stats { return &c.stats }

// Dir returns the on-disk root ("" for memory-only).
func (c *Cache) Dir() string { return c.dir }

func (c *Cache) shard(key fingerprint.Hash) *shard {
	return c.shards[int(key[0])%len(c.shards)]
}

// Get returns the entry for key, or nil on a miss. A memory hit hands
// out the held bytes themselves: it copies and decodes nothing.
func (c *Cache) Get(key fingerprint.Hash) *Entry {
	s := c.shard(key)
	s.mu.Lock()
	if i, ok := s.index[key]; ok {
		s.touch(i)
		data := s.slots[i].data
		s.mu.Unlock()
		c.stats.Hits.Add(1)
		c.stats.MemHits.Add(1)
		return &Entry{data: data}
	}
	s.mu.Unlock()

	var e *Entry
	if c.log != nil {
		var corrupt bool
		if e, corrupt = c.log.get(key); corrupt {
			c.stats.Corrupt.Add(1)
		}
	}
	if e == nil {
		c.stats.Misses.Add(1)
		return nil
	}
	c.insertMem(key, e.data)
	c.stats.Hits.Add(1)
	c.stats.DiskHits.Add(1)
	return e
}

// Put stores a verdict under key. An entry sealed for another key, and
// the zero Entry, are rejected outright.
func (c *Cache) Put(key fingerprint.Hash, e *Entry) error {
	if err := e.check(key); err != nil {
		return err
	}
	c.insertMem(key, e.data)
	c.stats.Stores.Add(1)
	if c.log == nil {
		return nil
	}
	if err := c.log.put(key, e.data); err != nil {
		c.stats.StoreErrors.Add(1)
		return err
	}
	return nil
}

// Close releases the disk segments' file descriptors. The memory tier
// keeps serving; a closed cache reads nothing more from disk, and a Put
// keeps its entry in memory and returns an error.
func (c *Cache) Close() error {
	if c.log == nil {
		return nil
	}
	return c.log.close()
}

func (c *Cache) insertMem(key fingerprint.Hash, data string) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := s.index[key]; ok {
		s.slots[i].data = data
		s.touch(i)
		return
	}
	var i int32
	if len(s.slots) < s.max {
		i = int32(len(s.slots))
		s.slots = append(s.slots, slot{})
	} else {
		i = s.tail
		s.unlink(i)
		delete(s.index, s.slots[i].key)
		c.stats.Evictions.Add(1)
	}
	s.slots[i] = slot{key: key, data: data}
	s.index[key] = i
	s.pushFront(i)
}

// touch makes slot i the most recently used.
func (s *shard) touch(i int32) {
	if s.head != i {
		s.unlink(i)
		s.pushFront(i)
	}
}

func (s *shard) unlink(i int32) {
	sl := &s.slots[i]
	if sl.prev >= 0 {
		s.slots[sl.prev].next = sl.next
	} else {
		s.head = sl.next
	}
	if sl.next >= 0 {
		s.slots[sl.next].prev = sl.prev
	} else {
		s.tail = sl.prev
	}
}

func (s *shard) pushFront(i int32) {
	s.slots[i].prev, s.slots[i].next = -1, s.head
	if s.head >= 0 {
		s.slots[s.head].prev = i
	} else {
		s.tail = i
	}
	s.head = i
}

// The header is three text lines of fixed width — the magic tag, the
// key and the payload's SHA-256, both in lowercase hex — so every field
// sits at a known offset.
const (
	keyAt     = len(magic) + 1
	sumAt     = keyAt + 2*len(fingerprint.Hash{}) + 1
	headerLen = sumAt + 2*sha256.Size + 1
)

// The payload is binary. Integers are varints (encoding/binary's
// zig-zag form, so any int encodes), counts and lengths uvarints, and
// a string is its length then its bytes:
//
//	verdict      'R' | 'D'
//	escalations  varint
//	stats        iterations nodes matches runs cancelled budget_hit
//	             stop_reason (varints), saturated (one byte, 0 or 1),
//	             then a count and that many (rule name, varint) pairs,
//	             names strictly ascending
//	'R'          a count of outputs; per output a count of terms and
//	             the terms (internal/fingerprint's canonical encoding),
//	             in the order replay adds them to the relation
//	'D'          the failing output's index, varint
//
// Every number has exactly one spelling (no overlong varint), so the
// bytes DecodeEntry accepts are the bytes EncodeEntry writes.
const (
	tagRefined   = 'R'
	tagDisproved = 'D'
)

// Refined seals a Refined verdict for key. terms[i] lists output i's
// extracted terms in canonical encoding, in the order the checker added
// them to the relation; replay re-adds them in that order, so the
// relation's deterministic tie-breaking (insertion order) matches a
// live run.
func Refined(key fingerprint.Hash, escalations int, stats egraph.Stats, terms [][]string) *Entry {
	b := appendHead(make([]byte, 0, payloadCap), tagRefined, escalations, stats)
	b = binary.AppendUvarint(b, uint64(len(terms)))
	for _, out := range terms {
		b = binary.AppendUvarint(b, uint64(len(out)))
		for _, t := range out {
			b = appendString(b, t)
		}
	}
	return seal(key, b)
}

// Disproved seals a Disproved verdict for key: failOutput is the index
// of the output whose mapping could not be derived.
func Disproved(key fingerprint.Hash, escalations int, stats egraph.Stats, failOutput int) *Entry {
	b := appendHead(make([]byte, 0, payloadCap), tagDisproved, escalations, stats)
	return seal(key, binary.AppendVarint(b, int64(failOutput)))
}

// payloadCap is the buffer a payload starts in: most fit (the zoo's
// average 97 bytes), and seal copies it out.
const payloadCap = 256

func appendHead(b []byte, tag byte, escalations int, st egraph.Stats) []byte {
	b = append(b, tag)
	for _, v := range [...]int{escalations, st.Iterations, st.Nodes, st.Matches, st.Runs, st.Cancelled, st.BudgetHit, int(st.StopReason)} {
		b = binary.AppendVarint(b, int64(v))
	}
	if st.Saturated {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	names := make([]string, 0, len(st.Applications))
	for name := range st.Applications {
		names = append(names, name)
	}
	slices.Sort(names)
	b = binary.AppendUvarint(b, uint64(len(names)))
	for _, name := range names {
		b = binary.AppendVarint(appendString(b, name), int64(st.Applications[name]))
	}
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// seal puts the header for key in front of payload.
func seal(key fingerprint.Hash, payload []byte) *Entry {
	sum := sha256.Sum256(payload)
	var head [headerLen]byte
	h := append(head[:0], magic+"\n"...)
	h = append(hex.AppendEncode(h, key[:]), '\n')
	h = append(hex.AppendEncode(h, sum[:]), '\n')
	var sb strings.Builder
	sb.Grow(headerLen + len(payload))
	sb.Write(h)
	sb.Write(payload)
	return &Entry{data: sb.String()}
}

// check refuses what no store may hold under key: nil, the zero Entry,
// an entry sealed for another key.
func (e *Entry) check(key fingerprint.Hash) error {
	if e == nil || len(e.data) < headerLen {
		return fmt.Errorf("vcache: refusing to store an empty entry")
	}
	var hx [sumAt - 1 - keyAt]byte
	hex.Encode(hx[:], key[:])
	if e.data[keyAt:sumAt-1] != string(hx[:]) {
		return fmt.Errorf("vcache: entry sealed for key %s… used under key %s…", e.data[keyAt:keyAt+8], hx[:8])
	}
	return nil
}

// EncodeEntry returns an entry's exact on-disk and on-wire bytes: the
// versioned header (magic tag, key fingerprint, payload checksum, one
// per line) followed by the binary payload. The entry already is those
// bytes; this copies them out, after refusing an entry sealed for
// another key. The store's write path, its tests, and the internal/mc
// verdict-cache model all see byte-identical records — the model
// checker damages and decodes the same bytes the production store
// writes.
func EncodeEntry(key fingerprint.Hash, e *Entry) ([]byte, error) {
	if err := e.check(key); err != nil {
		return nil, err
	}
	return e.Bytes(), nil
}

// DecodeEntry parses and validates entry bytes for key. It is the
// single defensive gate for bytes from disk and from peers: ANY defect
// — truncation, bad magic, key mismatch, checksum mismatch, a payload
// that does not parse or is not spelled exactly as EncodeEntry spells
// it — returns an error, never a wrong entry. The store, the chaos
// tests, and the internal/mc model all call this exact function, so "a
// decode error is always a miss" is one piece of code checked three
// ways.
func DecodeEntry(key fingerprint.Hash, data []byte) (*Entry, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("vcache: truncated header")
	}
	if string(data[:keyAt]) != magic+"\n" {
		return nil, fmt.Errorf("vcache: bad magic")
	}
	var hx [sumAt - 1 - keyAt]byte // = the checksum line's width
	hex.Encode(hx[:], key[:])
	if !bytes.Equal(data[keyAt:sumAt-1], hx[:]) || data[sumAt-1] != '\n' {
		return nil, fmt.Errorf("vcache: key mismatch")
	}
	sum := sha256.Sum256(data[headerLen:])
	hex.Encode(hx[:], sum[:])
	if !bytes.Equal(data[sumAt:headerLen-1], hx[:]) || data[headerLen-1] != '\n' {
		return nil, fmt.Errorf("vcache: checksum mismatch")
	}
	e := &Entry{data: string(data)}
	if err := e.validate(); err != nil {
		return nil, err
	}
	return e, nil
}

// validate walks the whole payload.
func (e *Entry) validate() error {
	r := e.payload()
	tag := r.u8()
	r.int() // escalations
	r.stats(false)
	switch tag {
	case tagRefined:
		for range r.count() {
			for range r.count() {
				r.str()
			}
		}
	case tagDisproved:
		r.int()
	default:
		return fmt.Errorf("vcache: non-cacheable verdict tag %q", tag)
	}
	if r.bad {
		return fmt.Errorf("vcache: undecodable payload")
	}
	if len(r.s) > 0 {
		return fmt.Errorf("vcache: %d bytes after the payload", len(r.s))
	}
	return nil
}

// Bytes returns a copy of the entry's bytes (what EncodeEntry returns
// under the entry's own key).
func (e *Entry) Bytes() []byte { return []byte(e.data) }

// Verdict is the entry's verdict kind ("" for the zero Entry).
func (e *Entry) Verdict() Verdict {
	r := e.payload()
	switch r.u8() {
	case tagRefined:
		return VerdictRefined
	case tagDisproved:
		return VerdictDisproved
	}
	return ""
}

// Escalations is the number of budget escalations the verdict took.
func (e *Entry) Escalations() int {
	r := e.payload()
	r.u8()
	return r.int()
}

// Stats is the saturation work the verdict took: the operator's ledger
// line on replay. Rule names share the entry's bytes.
func (e *Entry) Stats() egraph.Stats {
	r := e.payload()
	r.u8()
	r.int()
	return r.stats(true)
}

// FailOutput is the index of a Disproved verdict's failing output (0
// for a Refined one).
func (e *Entry) FailOutput() int {
	tag, r := e.body()
	if tag != tagDisproved {
		return 0
	}
	return r.int()
}

// Outputs is the number of output mappings a Refined verdict carries
// (0 for a Disproved one).
func (e *Entry) Outputs() int {
	tag, r := e.body()
	if tag != tagRefined {
		return 0
	}
	return r.count()
}

// EachTerm calls f with each term of a Refined verdict and the index of
// the output it maps, outputs in order and each output's terms in
// stored order, until f returns an error, which EachTerm returns. The
// terms share the entry's bytes.
func (e *Entry) EachTerm(f func(out int, term string) error) error {
	tag, r := e.body()
	if tag != tagRefined {
		return nil
	}
	for out := range r.count() {
		for range r.count() {
			if err := f(out, r.str()); err != nil {
				return err
			}
		}
	}
	return nil
}

// payload reads from the start of the payload; body, after the verdict
// tag it returns, from just past the stats.
func (e *Entry) payload() reader {
	if len(e.data) < headerLen {
		return reader{bad: true}
	}
	return reader{s: e.data[headerLen:]}
}

func (e *Entry) body() (byte, reader) {
	r := e.payload()
	tag := r.u8()
	r.int()
	r.stats(false)
	return tag, r
}

// reader consumes a payload. A defect marks it bad and empties it, so
// every later read yields zero values; the caller looks once, at the end.
type reader struct {
	s   string
	bad bool
}

func (r *reader) fail() {
	r.s, r.bad = "", true
}

func (r *reader) u8() byte {
	if len(r.s) == 0 {
		r.fail()
		return 0
	}
	b := r.s[0]
	r.s = r.s[1:]
	return b
}

// uvarint reads encoding/binary's uvarint, refusing an overlong one (a
// final zero byte after the first) along with an overflowing one.
func (r *reader) uvarint() uint64 {
	var x uint64
	for i := 0; i < len(r.s) && i < binary.MaxVarintLen64; i++ {
		b := r.s[i]
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 || i > 0 && b == 0 {
				break
			}
			r.s = r.s[i+1:]
			return x | uint64(b)<<(7*i)
		}
		x |= uint64(b&0x7f) << (7 * i)
	}
	r.fail()
	return 0
}

// int reads a zig-zag varint that fits an int.
func (r *reader) int() int {
	ux := r.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	if int64(int(x)) != x {
		r.fail()
		return 0
	}
	return int(x)
}

// count reads a count or a length: at most the bytes left, since every
// element takes at least one.
func (r *reader) count() int {
	n := r.uvarint()
	if n > uint64(len(r.s)) {
		r.fail()
		return 0
	}
	return int(n)
}

func (r *reader) str() string {
	n := r.count()
	s := r.s[:n]
	r.s = r.s[n:]
	return s
}

// stats reads the stats block, building the Applications map only when
// apps is set.
func (r *reader) stats(apps bool) egraph.Stats {
	st := egraph.Stats{
		Iterations: r.int(), Nodes: r.int(), Matches: r.int(), Runs: r.int(),
		Cancelled: r.int(), BudgetHit: r.int(), StopReason: egraph.StopReason(r.int()),
	}
	switch r.u8() {
	case 0:
	case 1:
		st.Saturated = true
	default:
		r.fail()
	}
	n := r.count()
	if apps && n > 0 {
		st.Applications = make(map[string]int, n)
	}
	prev := ""
	for i := range n {
		name, count := r.str(), r.int()
		if i > 0 && name <= prev {
			r.fail()
		}
		if st.Applications != nil {
			st.Applications[name] = count
		}
		prev = name
	}
	return st
}
