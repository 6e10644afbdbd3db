package egraph

import (
	"fmt"
	"slices"
	"strconv"

	"entangle/internal/det"
	"entangle/internal/expr"
	"entangle/internal/sym"
)

// Interned node identity. An ENode's structural identity splits into a
// "head" — operator, Str attribute, symbolic Ints, and leaf TID,
// everything except the child classes — and its canonical child-class
// list. Heads are interned to small integer IDs once per e-graph, so
// the hash-cons memo keys on (headID, kids) and never builds a string
// on the hot path: the old ENode.key() + map[string]ClassID pair cost
// one fmt-heavy string construction per canonicalization and was,
// with its allocations, ~25% of cold-check CPU.
//
// The interner is itself a hash table over the heads' fields, compared
// field by field: a lemma looks up a freshly built node on almost every
// application, and rendering its head to a string key and probing a
// map with it was, after the rest of the path stopped allocating, the
// largest cost left on it.
//
// Head IDs are local to one life of one e-graph: Release clears the
// interner, and the next life hands the IDs out afresh. Nodes read back
// from a graph (through NodesOf, EachParent or Match.Node) carry that
// life's head ID in an unexported field, so a copy of one dies with the
// graph's Release — inserting it into a different graph, or into the
// same object after Release, is not supported, and under
// InvariantChecks AddNode and Lookup panic on it (checkHead). Fresh
// ENode literals, which every rule builds, are always safe: their zero
// head is interned on first insert.

// headID identifies an interned node head. 0 means "not yet interned";
// valid IDs start at 1 and index interner.heads at id-1.
type headID int32

// opID identifies an interned operator symbol: what the matcher files
// its root-operator buckets under (resolveOps) and what picks a consumer
// bit. 0 is unused; valid IDs start at 1 and index interner.ops at id-1.
type opID int32

type interner struct {
	heads []head    // by headID-1
	table []headID  // open addressing on the heads' hashes; 0 is an empty slot
	ops   []expr.Op // by opID-1
}

// head is the identity of one interned head: a leaf's TID, or an
// operator application's operator, Str and Ints (a copy the interner
// owns: the node it was first seen on may be lemma scratch).
type head struct {
	hash uint64
	op   opID
	tid  int
	str  string
	ints []sym.Expr
}

func newInterner() interner {
	return interner{table: make([]headID, 64)}
}

// reset forgets every head and operator, keeping the table's slots and
// up to keepMatchBytes of head records.
func (in *interner) reset() {
	clear(in.heads) // the records point at attribute lists
	in.heads = truncate(in.heads, keepOf[head]())
	if len(in.table) > 2*keepSlots {
		in.table = make([]headID, 64)
	} else {
		clear(in.table)
	}
	clear(in.ops)
	in.ops = in.ops[:0]
}

func (in *interner) opOf(op expr.Op) opID {
	if id := in.lookupOp(op); id != 0 {
		return id
	}
	in.ops = append(in.ops, op)
	return opID(len(in.ops))
}

// lookupOp returns the interned ID for op without creating one; 0
// means no node with this operator was ever interned here. A graph
// holds a few dozen operators at most, so a scan beats a map.
func (in *interner) lookupOp(op expr.Op) opID {
	for i, o := range in.ops {
		if o == op {
			return opID(i + 1)
		}
	}
	return 0
}

// headHash hashes n's head: what the interner's table is keyed on.
func headHash(n *ENode) uint64 {
	if n.isLeaf() {
		return det.Mix(uint64(n.TID))
	}
	x := det.String(det.FNVOffset, string(n.Op))
	x = det.String(x*det.FNVPrime, n.Str)
	for _, e := range n.Ints {
		x = (x ^ e.Hash()) * det.FNVPrime
	}
	return x
}

// is reports whether n has head h.
func (in *interner) is(h *head, n *ENode) bool {
	if n.isLeaf() {
		return in.ops[h.op-1] == n.Op && h.tid == n.TID
	}
	if in.ops[h.op-1] != n.Op || h.str != n.Str || len(h.ints) != len(n.Ints) {
		return false
	}
	for i := range h.ints {
		if !h.ints[i].Equal(n.Ints[i]) {
			return false
		}
	}
	return true
}

// find returns the slot of n's head in the table: holding its ID, or
// empty where it would go.
func (in *interner) find(n *ENode, hash uint64) *headID {
	mask := uint64(len(in.table) - 1)
	for i := hash & mask; ; i = (i + 1) & mask {
		id := &in.table[i]
		if *id == 0 {
			return id
		}
		if h := &in.heads[*id-1]; h.hash == hash && in.is(h, n) {
			return id
		}
	}
}

// intern returns n's head ID, handing out the next one if n's head is
// new.
func (in *interner) intern(n *ENode) headID {
	hash := headHash(n)
	slot := in.find(n, hash)
	if *slot != 0 {
		return *slot
	}
	h := head{hash: hash, op: in.opOf(n.Op), tid: n.TID}
	if !n.isLeaf() {
		h.str = n.Str
		if len(n.Ints) > 0 {
			h.ints = slices.Clone(n.Ints)
		}
	}
	in.heads = append(in.heads, h)
	*slot = headID(len(in.heads))
	if len(in.heads)*4 >= len(in.table)*3 {
		in.grow()
	}
	return headID(len(in.heads))
}

// grow doubles the table, re-placing every head.
func (in *interner) grow() {
	in.table = make([]headID, 2*len(in.table))
	mask := uint64(len(in.table) - 1)
	for k := range in.heads {
		i := in.heads[k].hash & mask
		for in.table[i] != 0 {
			i = (i + 1) & mask
		}
		in.table[i] = headID(k + 1)
	}
}

// appendHeadKey renders the kid-independent part of a node's identity
// into buf, for diagnostics (ENode.key and checkHead's message).
func appendHeadKey(buf []byte, n *ENode) []byte {
	if n.isLeaf() {
		buf = append(buf, 't')
		return strconv.AppendInt(buf, int64(n.TID), 10)
	}
	buf = append(buf, n.Op...)
	if n.Str != "" {
		buf = append(buf, '.')
		buf = append(buf, n.Str...)
	}
	buf = append(buf, '[')
	for i, e := range n.Ints {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = e.AppendKey(buf)
	}
	return append(buf, ']')
}

// headOf interns n's head, caching the ID in the node.
func (g *EGraph) headOf(n *ENode) headID {
	if n.head == 0 {
		n.head = g.intern.intern(n)
	}
	return n.head
}

// checkHead panics when n arrives carrying a cached head that this life
// of the graph did not hand out for n's head: the node was copied out
// of another graph, or out of this one before its last Release. (A
// stale ID that happens to re-derive to itself is, by definition, the
// right one.) It runs only under InvariantChecks, at the two doors
// outside nodes come in through.
func (g *EGraph) checkHead(n *ENode) {
	if n.head == 0 {
		return
	}
	if id := *g.intern.find(n, headHash(n)); id != n.head {
		panic(fmt.Sprintf("egraph: node %s carries head %d cached by another graph life (this one has %d for it): an ENode copied out of a graph dies with that graph's Release",
			appendHeadKey(nil, n), n.head, id))
	}
}

// opOfHead returns the interned operator of a head.
func (g *EGraph) opOfHead(h headID) opID { return g.intern.heads[h-1].op }

// nodesEquiv reports structural equality of two canonical, interned
// nodes.
func nodesEquiv(a, b *ENode) bool {
	if a.head != b.head || len(a.Kids) != len(b.Kids) {
		return false
	}
	for i := range a.Kids {
		if a.Kids[i] != b.Kids[i] {
			return false
		}
	}
	return true
}

// memoHash mixes a node identity FNV-1a style; memoHashHead and
// memoHashKid are its two steps, for a caller that canonicalizes the
// kids as it goes.
func memoHash(h headID, kids []ClassID) uint64 {
	x := memoHashHead(h)
	for _, k := range kids {
		x = memoHashKid(x, k)
	}
	return x
}

func memoHashHead(h headID) uint64 {
	return (det.FNVOffset ^ uint64(uint32(h))) * det.FNVPrime
}

func memoHashKid(x uint64, k ClassID) uint64 {
	return (x ^ uint64(uint32(k))) * det.FNVPrime
}

// memoTable is the hash-cons memo: an open-addressing table from
// (headID, canonical kids) to the class storing that node. An entry
// holds no kid list of its own: it names an arena node that has exactly
// the key's kids — the node that was inserted or re-canonicalized under
// the key — and compares through it, so every method takes the arena.
// That stays true because a node's kid list is replaced in one place
// (repair), which deletes the entry under the old key first. The
// entries are 24 pointer-free bytes: the collector never looks at the
// table, and reset need not wait for it. Deletion leaves a tombstone,
// cleared on the next growth rehash.
type memoTable struct {
	entries []memoEntry
	live    int // occupied entries
	used    int // occupied + tombstones, drives growth
}

type memoEntry struct {
	hash  uint64
	head  headID // 0 = empty, -1 = tombstone
	node  int32  // arena index of a node with the key's kids
	class int32
}

const memoTombstone headID = -1

func newMemoTable() memoTable {
	return memoTable{entries: make([]memoEntry, 64)}
}

// reset empties the table, keeping its slots unless it grew past
// keepSlots.
func (m *memoTable) reset() {
	if len(m.entries) > keepSlots {
		*m = newMemoTable()
		return
	}
	clear(m.entries)
	m.live, m.used = 0, 0
}

func (m *memoTable) mask() uint64 { return uint64(len(m.entries) - 1) }

// get returns the class recorded for (h, kids).
func (m *memoTable) get(arena []ENode, hash uint64, h headID, kids []ClassID) (ClassID, bool) {
	mask := m.mask()
	for i := hash & mask; ; i = (i + 1) & mask {
		e := &m.entries[i]
		if e.head == 0 {
			return 0, false
		}
		if e.head == h && e.hash == hash && kidsEqual(arena[e.node].Kids, kids) {
			return ClassID(e.class), true
		}
	}
}

// put inserts or updates the class for the key (h, arena[node].Kids).
func (m *memoTable) put(arena []ENode, hash uint64, h headID, node int32, class ClassID) {
	if (m.used+1)*4 >= len(m.entries)*3 {
		m.grow()
	}
	mask := m.mask()
	firstFree := -1
	for i := hash & mask; ; i = (i + 1) & mask {
		e := &m.entries[i]
		switch {
		case e.head == 0:
			if firstFree >= 0 {
				e = &m.entries[firstFree]
			} else {
				m.used++
			}
			*e = memoEntry{hash: hash, head: h, node: node, class: int32(class)}
			m.live++
			return
		case e.head == memoTombstone:
			if firstFree < 0 {
				firstFree = int(i)
			}
		case e.head == h && e.hash == hash && kidsEqual(arena[e.node].Kids, arena[node].Kids):
			e.class = int32(class)
			return
		}
	}
}

// del removes the entry for (h, kids), if present.
func (m *memoTable) del(arena []ENode, hash uint64, h headID, kids []ClassID) {
	mask := m.mask()
	for i := hash & mask; ; i = (i + 1) & mask {
		e := &m.entries[i]
		if e.head == 0 {
			return
		}
		if e.head == h && e.hash == hash && kidsEqual(arena[e.node].Kids, kids) {
			*e = memoEntry{head: memoTombstone}
			m.live--
			return
		}
	}
}

func (m *memoTable) grow() {
	old := m.entries
	size := len(old) * 2
	// Growth driven by tombstones alone rehashes in place instead.
	if m.live*4 < len(old) {
		size = len(old)
	}
	m.entries = make([]memoEntry, size)
	m.used = m.live
	mask := m.mask()
	for i := range old {
		e := &old[i]
		if e.head <= 0 {
			continue
		}
		for j := e.hash & mask; ; j = (j + 1) & mask {
			if m.entries[j].head == 0 {
				m.entries[j] = *e
				break
			}
		}
	}
}

// each calls fn for every live entry (diagnostics and invariants).
func (m *memoTable) each(fn func(e memoEntry) bool) {
	for i := range m.entries {
		if e := m.entries[i]; e.head > 0 && !fn(e) {
			return
		}
	}
}

func kidsEqual(a, b []ClassID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// memoLookup probes the memo for a canonical node, interning its head.
func (g *EGraph) memoLookup(n *ENode) (ClassID, bool) {
	h := g.headOf(n)
	return g.memo.get(g.arena, memoHash(h, n.Kids), h, n.Kids)
}
