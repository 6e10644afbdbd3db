// Package egraph implements the equality-saturation engine ENTANGLE
// uses for expression rewriting (§4.2.2). It is a from-scratch Go
// implementation of the e-graph data structure popularized by the egg
// library (Willsey et al., POPL'21): hash-consed ENodes grouped into
// equivalence classes by a union-find, congruence closure maintained by
// worklist rebuilding, rewrite rules applied by e-matching, and
// cost-based extraction of representative expressions.
package egraph

import (
	"fmt"
	"slices"
	"strconv"

	"entangle/internal/expr"
	"entangle/internal/shape"
	"entangle/internal/sym"
)

// ClassID identifies an equivalence class of expressions.
type ClassID int

// ENode is one operator application whose children are equivalence
// classes rather than concrete subterms.
type ENode struct {
	Op   expr.Op
	Str  string
	Ints []sym.Expr
	Kids []ClassID

	// Leaf identity (Op == expr.OpTensor).
	TID  int
	Name string

	// head caches the e-graph-local interned ID of this node's
	// kid-independent identity (see intern.go). Zero means not yet
	// interned; the owning e-graph fills it on first insert/lookup.
	// Struct copies carry it along, which is safe because heads are
	// immutable and IDs are only ever read by the graph life that set
	// them: a copy must not outlive that graph's Release.
	head headID
}

// Leaf builds a tensor-leaf ENode.
func Leaf(tid int, name string) ENode {
	return ENode{Op: expr.OpTensor, TID: tid, Name: name}
}

func (n *ENode) isLeaf() bool { return n.Op == expr.OpTensor }

// key renders a node's full structural identity as a string, for
// diagnostics and invariant messages. The hot path never calls it:
// hash-consing keys on the interned (head, kids) pair instead.
func (n ENode) key() string {
	b := append(appendHeadKey(nil, &n), '(')
	for i, k := range n.Kids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(k), 10)
	}
	return string(append(b, ')'))
}

// parentEntry records one consumer of a class: the consuming node, as
// its index in the graph's node arena (EGraph.arena), and the class that
// held it when the entry was written (Find it before use). Eight bytes,
// where an entry used to carry a 112-byte copy of the node — a node with
// k kids is registered k times.
type parentEntry struct {
	node  int32
	class int32
}

// Class is an equivalence class: the set of ENodes known equal. The
// record holds no node: a class's nodes are arena indices, chained in
// insertion order through EGraph.next from first to last (count of
// them; a live class has at least one). A node's index is the class
// slot it was born into, so a class starts as the one-element chain of
// its own ID, Union splices two chains in O(1) and repair unlinks the
// duplicates — none of which allocates.
type Class struct {
	id                 ClassID
	first, last, count int32
	// parents lists the class's consumers; the first two entries live in
	// the record (most classes never have a third), a longer list in the
	// graph's parent slab (appendParents).
	parents    []parentEntry
	parentsBuf [2]parentEntry

	// consumers has bit consumerBit(X) set if a node with operator X ever
	// listed this class — or a class merged into it — as a kid. Sticky: a
	// consumer deduplicated away leaves its bit behind, so a set bit means
	// "maybe" and a clear one "no X node consumes this class", which is
	// the half a rule needs to decline without walking the parent list.
	consumers uint64
}

// consumerBit maps an interned operator to its bit in Class.consumers;
// operators past the 62nd share the last bit (still a superset).
func consumerBit(op opID) uint64 { return 1 << min(uint(op), 63) }

// EGraph is the equality-saturation engine.
type EGraph struct {
	parent []ClassID
	rank   []int
	// classes is indexed by ClassID — IDs are dense, newClass hands them
	// out in order — with nil in the slot of a class a Union absorbed;
	// live counts the non-nil slots. The records come from classSlab.
	classes   []*Class
	live      int
	classSlab classSlab
	// arena holds the one copy of every node addNode ever inserted, in
	// insertion order: class node chains, parent entries, memo entries
	// and match bindings all name a node by its index here. Each node's
	// kid list is its own, cut from kidSlab when it was inserted, and
	// repair canonicalizes it in place; a node deduplicated out of its
	// class leaves its slot behind (nothing points at it once its parent
	// entries are dropped), so the arena is as long as the union-find.
	// next chains each class's nodes through it (Class): next[i] is the
	// arena index of the node after i in i's class, -1 at the end.
	arena   []ENode
	next    []int32
	kidSlab bump[ClassID]
	// parentSlab holds the parent lists that outgrew their class record's
	// two entries (appendParents): pointer-free, like the kid slab.
	parentSlab bump[parentEntry]
	memo       memoTable
	intern     interner
	// work is Rebuild's worklist and workDone the list it drained last
	// round, kept so the two swap instead of reallocating.
	work, workDone []ClassID

	// Ctx resolves symbolic-scalar comparisons in rule conditions.
	Ctx *sym.Context

	nodeCount int

	// Saturation node budget (rewrite.go). nodeLimit is non-zero only
	// while Saturate runs; InstantiateOp then declines inserts
	// that would push the live node count past it, setting budgetDenied
	// so Saturate reports the node-limit stop.
	nodeLimit    int
	budgetDenied bool

	// Reusable scratch, so the rebuild/match loops allocate nothing
	// steady-state.
	dedup        firstByHash // repair dedup: node hash → first survivor
	keptBuf      []int32     // repair dedup: the surviving nodes of the class in hand
	mark         []int32     // per class slot, stamped with markEpoch
	markEpoch    int32
	rulesByOp    [][]int      // per interned operator: the compiled rules rooted at it, resolved per iteration
	todoBuf      []ruleMatch  // match-list scratch (Saturate)
	substStack   []int32      // e-matching result stack (matchClassOnStack): indexes into substs
	substs       []Subst      // the match phase's substitutions: a pointer-free slab, overwritten by the next phase
	appsBuf      []int32      // effective applications per compiled rule (Saturate)
	canonBuf     []ClassID    // the canonical kid list(s) canonNode, canonHash or canonEquiv last built
	kidStack     []ClassID    // kid lists AddTerm builds, stack-wise
	cleanCostBuf []int        // extraction cost table (CleanCosts), indexed by ClassID
	cleanGen     uint32       // stamps the table cleanCostBuf currently holds
	scratch      lemmaScratch // what a rule's Apply draws its buffers from (scratch.go)

	// shape analysis (analysis.go)
	leafShape func(tid int) (shape.Shape, bool)
	shapeAt   []int32       // per class slot: 0 not derived, -1 being derived, k > 0 shapes[k-1]
	shapes    []shape.Shape // the shapes derived, in derivation order
	shapeArgs []shape.Shape // the kid shapes of the derivations in progress, stack-wise

	// leafTerm hands extraction the caller's leaf terms (SetLeafTermFn).
	leafTerm func(tid int) *expr.Term

	// released marks a graph between Release and the New that hands it
	// out again (lifetime.go).
	released bool
}

// NodeCount returns the number of live ENodes: distinct nodes
// currently stored across all classes, after rebuild dedup. This is
// the count SaturateOpts.MaxNodes budgets against. It is maintained
// incrementally (AddNode increments, repair decrements per deduped
// node) so it is O(1); CheckInvariants recounts it.
func (g *EGraph) NodeCount() int { return g.nodeCount }

// ClassCount returns the number of live equivalence classes.
func (g *EGraph) ClassCount() int { return g.live }

// Find returns the canonical representative of a class.
func (g *EGraph) Find(c ClassID) ClassID {
	for g.parent[c] != c {
		g.parent[c] = g.parent[g.parent[c]] // path halving
		c = g.parent[c]
	}
	return c
}

func (g *EGraph) newClass() ClassID {
	id := ClassID(len(g.parent))
	g.parent = append(g.parent, id)
	g.rank = append(g.rank, 0)
	cl := g.classSlab.alloc()
	cl.id, cl.first, cl.last = id, -1, -1
	g.classes = append(g.classes, cl)
	g.live++
	return id
}

// canonNode makes n's kid list canonical: its classes' representatives,
// sorted when the operator's kid order does not matter (expr.Unordered),
// so every kid order of one sum is one node. A list that already is
// stays as it is; otherwise n.Kids is pointed at the canonical list,
// built in the graph's scratch (canonBuf) and good until the next
// canonNode: the caller's slice is never written.
func (g *EGraph) canonNode(n *ENode) {
	unordered := expr.Unordered(n.Op)
	if g.canonical(n.Kids) && (!unordered || slices.IsSorted(n.Kids)) {
		return
	}
	kids := g.appendCanon(g.canonBuf[:0], n.Kids, unordered)
	g.canonBuf, n.Kids = kids, kids
}

// appendCanon appends the representatives of kids to buf, sorting what
// it appended when sorted is set.
func (g *EGraph) appendCanon(buf, kids []ClassID, sorted bool) []ClassID {
	at := len(buf)
	for _, k := range kids {
		buf = append(buf, g.Find(k))
	}
	if sorted {
		slices.Sort(buf[at:])
	}
	return buf
}

// canonical reports whether every class in kids is its own
// representative.
func (g *EGraph) canonical(kids []ClassID) bool {
	for _, k := range kids {
		if g.Find(k) != k {
			return false
		}
	}
	return true
}

// Lookup reports whether an ENode already exists, without inserting.
// Used by constrained lemmas (§4.3.2) that may only target existing
// ENodes. It interns n's head into n and may point n.Kids at the
// canonical kid list (canonNode): inserting n next costs neither again.
func (g *EGraph) Lookup(n *ENode) (ClassID, bool) {
	if InvariantChecks {
		g.checkHead(n)
	}
	g.canonNode(n)
	id, ok := g.memoLookup(n)
	if !ok {
		return 0, false
	}
	return g.Find(id), true
}

// AddNode inserts an ENode (hash-consed) and returns its class. It is
// never budget-limited: saturation's MaxNodes cap applies to rule
// instantiation (addNode with budget), not to direct graph building.
func (g *EGraph) AddNode(n ENode) ClassID {
	id, _ := g.addNode(&n, false)
	return id
}

// addNode is the hash-consing insert, by reference: n's head is interned
// into n and its kid list canonicalized (canonNode), and a new node gets
// a copy of that list from the kid slab — the caller's slice is never
// kept. With budget set (rule instantiation during saturation) it
// declines — returns ok == false — instead of creating a node beyond the
// live-node limit, recording the denial so Saturate reports a node-limit
// stop.
func (g *EGraph) addNode(n *ENode, budget bool) (ClassID, bool) {
	if InvariantChecks {
		g.checkHead(n)
	}
	g.canonNode(n)
	h := g.headOf(n)
	hash := memoHash(h, n.Kids)
	if id, ok := g.memo.get(g.arena, hash, h, n.Kids); ok {
		return g.Find(id), true
	}
	if budget && g.nodeLimit > 0 && g.nodeCount >= g.nodeLimit {
		g.budgetDenied = true
		return 0, false
	}
	id := g.newClass()
	cl := g.classes[id]
	var kids []ClassID
	if len(n.Kids) > 0 {
		kids = g.kidSlab.take(len(n.Kids))
		copy(kids, n.Kids)
	}
	at := int32(len(g.arena)) // == int32(id): one arena slot per class slot
	g.arena = append(g.arena, ENode{Op: n.Op, Str: n.Str, Ints: n.Ints, Kids: kids,
		TID: n.TID, Name: n.Name, head: h})
	g.next = append(g.next, -1)
	cl.first, cl.last, cl.count = at, at, 1
	g.memo.put(g.arena, hash, h, at, id)
	g.nodeCount++
	entry := parentEntry{node: at, class: int32(id)}
	bit := consumerBit(g.opOfHead(h))
	for _, kid := range kids {
		kc := g.classes[g.Find(kid)]
		g.appendParents(kc, entry)
		kc.consumers |= bit
	}
	return id, true
}

// appendParents appends entries to class cl's parent list. A list that
// outgrows its room moves to a region of the parent slab twice its
// length, so a growing list costs no allocation.
func (g *EGraph) appendParents(cl *Class, entries ...parentEntry) {
	ps := cl.parents
	if ps == nil {
		ps = cl.parentsBuf[:0]
	}
	if need := len(ps) + len(entries); need > cap(ps) {
		grown := g.parentSlab.take(max(2*cap(ps), need))
		copy(grown, ps)
		ps = grown[:len(ps)]
	}
	cl.parents = append(ps, entries...)
}

// AddTerm inserts a whole expression tree, returning its class.
func (g *EGraph) AddTerm(t *expr.Term) ClassID {
	if t.IsLeaf() {
		return g.AddNode(Leaf(t.TID, t.Name))
	}
	// The kid list is built on kidStack above whatever the callers up the
	// tree have there; the insert copies it, and the stack drops it.
	base := len(g.kidStack)
	for _, a := range t.Args {
		k := g.AddTerm(a)
		g.kidStack = append(g.kidStack, k)
	}
	id := g.AddNode(ENode{Op: t.Op, Str: t.Str, Ints: t.Ints, Kids: g.kidStack[base:]})
	g.kidStack = g.kidStack[:base]
	return id
}

// Union merges two classes; it returns true when they were distinct.
func (g *EGraph) Union(a, b ClassID) bool {
	a, b = g.Find(a), g.Find(b)
	if a == b {
		return false
	}
	if g.rank[a] < g.rank[b] {
		a, b = b, a
	}
	if g.rank[a] == g.rank[b] {
		g.rank[a]++
	}
	// b is absorbed into a.
	g.parent[b] = a
	ca, cb := g.classes[a], g.classes[b]
	g.next[ca.last] = cb.first
	ca.last, ca.count = cb.last, ca.count+cb.count
	g.appendParents(ca, cb.parents...)
	ca.consumers |= cb.consumers
	cb.parents = nil // the record stays in the slab until Release
	g.classes[b] = nil
	g.live--
	g.work = append(g.work, a)
	return true
}

// Rebuild restores the congruence invariant after unions: parents of
// merged classes are re-canonicalized and congruent nodes unioned.
// With InvariantChecks enabled (ENTANGLE_CHECK_INVARIANTS=1) every
// rebuild is followed by a full structural audit that panics on drift.
func (g *EGraph) Rebuild() {
	for len(g.work) > 0 {
		// repair queues the next round on g.work while this one drains.
		todo := g.work
		g.work = g.workDone[:0]
		epoch := g.nextEpoch()
		for _, c := range todo {
			c = g.Find(c)
			if g.mark[c] == epoch {
				continue
			}
			g.mark[c] = epoch
			g.repair(c)
		}
		g.workDone = todo
	}
	if InvariantChecks {
		if err := g.CheckInvariants(); err != nil {
			panic(fmt.Sprintf("egraph: invariant violated after Rebuild: %v", err))
		}
	}
}

// nextEpoch advances the scratch-mark epoch, growing the per-slot marks
// to cover every allocated class slot. A slot is "in the current set"
// iff mark[slot] == epoch, so set resets are O(1).
func (g *EGraph) nextEpoch() int32 {
	if grow := len(g.parent) - len(g.mark); grow > 0 {
		g.mark = append(g.mark, make([]int32, grow)...)
	}
	g.markEpoch++
	if g.markEpoch <= 0 { // epoch wrapped: stale marks could alias, wipe them
		clear(g.mark)
		g.markEpoch = 1
	}
	return g.markEpoch
}

// firstByHash answers, for a list being deduplicated in place, "which
// survivor was the first to carry this hash". A short list records its
// survivors' hashes in a slice and scans it; only a list longer than
// linearDedup pays for the Go map, whose clear costs what the widest
// list of the graph's life left behind in buckets, not what this list
// holds. Both forms give the same answer.
type firstByHash struct {
	hashes []uint64         // per survivor, in order (short lists)
	byHash map[uint64]int32 // hash → first survivor (long lists)
	long   bool
}

// linearDedup is the longest list deduplicated by scanning.
const linearDedup = 16

// start readies f for a list of n entries.
func (f *firstByHash) start(n int) {
	f.hashes = f.hashes[:0]
	if f.long = n > linearDedup; f.long {
		clear(f.byHash)
	}
}

// find returns the index of the first survivor recorded under hash.
func (f *firstByHash) find(hash uint64) (int32, bool) {
	if f.long {
		j, ok := f.byHash[hash]
		return j, ok
	}
	for j, h := range f.hashes {
		if h == hash {
			return int32(j), true
		}
	}
	return 0, false
}

// add records hash for the survivor at index j, the next one.
func (f *firstByHash) add(hash uint64, j int32) {
	if !f.long {
		f.hashes = append(f.hashes, hash)
	} else if _, ok := f.byHash[hash]; !ok {
		f.byHash[hash] = j
	}
}

// canonHash is memoHash of n's canonical form, built in canonBuf.
func (g *EGraph) canonHash(n *ENode) uint64 {
	g.canonBuf = g.appendCanon(g.canonBuf[:0], n.Kids, expr.Unordered(n.Op))
	return memoHash(n.head, g.canonBuf)
}

// canonEquiv reports whether two interned nodes canonicalize to the
// same identity, comparing their canonical kid lists built in canonBuf:
// neither node's kids may live there.
func (g *EGraph) canonEquiv(a, b *ENode) bool {
	if a.head != b.head || len(a.Kids) != len(b.Kids) {
		return false
	}
	sorted := expr.Unordered(a.Op) // one head, one operator
	g.canonBuf = g.appendCanon(g.appendCanon(g.canonBuf[:0], a.Kids, sorted), b.Kids, sorted)
	return kidsEqual(g.canonBuf[:len(a.Kids)], g.canonBuf[len(a.Kids):])
}

func (g *EGraph) repair(c ClassID) {
	cl := g.classes[c]
	if cl == nil {
		return
	}
	// Dedupe this class's own nodes by canonical identity, unlinking the
	// later copy of each from the chain (the arena is left alone: a node's
	// kid list is rewritten only through a parent entry, below, where its
	// memo key moves with it). Dropped duplicates shrink the live node
	// count NodeCount reports. Dedup is by 64-bit node hash with a
	// structural-equality verify; a genuine hash collision falls back to
	// a linear scan, so correctness never depends on hashes being unique.
	seen := &g.dedup
	if cl.count > 1 {
		seen.start(int(cl.count))
		kept := g.keptBuf[:0]
		prev := int32(-1)
		for ni := cl.first; ni >= 0; ni = g.next[ni] {
			n := &g.arena[ni]
			hash := g.canonHash(n)
			dup := false
			if j, ok := seen.find(hash); ok {
				if g.canonEquiv(&g.arena[kept[j]], n) {
					dup = true
				} else {
					for _, k := range kept {
						if g.canonEquiv(&g.arena[k], n) {
							dup = true
							break
						}
					}
				}
			}
			if dup {
				// Unlinked, the node keeps its own next link, which is what
				// carries this loop past it. prev >= 0: a chain's first node
				// is never the duplicate.
				g.nodeCount--
				g.next[prev] = g.next[ni]
				cl.count--
				continue
			}
			seen.add(hash, int32(len(kept)))
			kept = append(kept, ni)
			prev = ni
		}
		cl.last = prev
		g.keptBuf = kept[:0]
	}

	// Re-canonicalize parents, in place in the arena; detect newly
	// congruent parents. Same hash-plus-verify dedup, indexing the
	// rebuilt parents slice.
	seen.start(len(cl.parents))
	orig := len(cl.parents)
	parents := cl.parents[:0]
	findEquiv := func(cn *ENode, hash uint64) int {
		if j, ok := seen.find(hash); ok {
			if nodesEquiv(&g.arena[parents[j].node], cn) {
				return int(j)
			}
			for k := range parents {
				if nodesEquiv(&g.arena[parents[k].node], cn) {
					return k
				}
			}
		}
		return -1
	}
	for _, p := range cl.parents {
		// The arena node itself is canonicalized: its kid list is its own
		// (addNode cut it from the kid slab), so it is rewritten in place.
		cn := &g.arena[p.node]
		h := cn.head
		if !g.canonical(cn.Kids) {
			// The memo entry under the stale key reads its kids off an
			// arena node with exactly these kids — this one or a twin — so
			// it goes before the node's kid list is rewritten.
			g.memo.del(g.arena, memoHash(h, cn.Kids), h, cn.Kids)
			g.appendCanon(cn.Kids[:0], cn.Kids, expr.Unordered(cn.Op)) // in place
		}
		hash := memoHash(h, cn.Kids)
		pc := g.Find(ClassID(p.class))
		if j := findEquiv(cn, hash); j >= 0 {
			prev := g.Find(ClassID(parents[j].class))
			if prev != pc {
				g.Union(prev, pc)
				pc = g.Find(pc)
				parents[j].class = int32(pc)
			} else {
				// Two congruent parent copies live in the same class:
				// that class now holds duplicate nodes, so queue it for
				// its own repair — dropping the entry here without doing
				// so would leave the duplicates (and the node count)
				// drifting forever.
				g.work = append(g.work, pc)
			}
		} else {
			seen.add(hash, int32(len(parents)))
			parents = append(parents, parentEntry{node: p.node, class: int32(pc)})
		}
		if memoC, ok := g.memo.get(g.arena, hash, h, cn.Kids); ok {
			if g.Find(memoC) != pc {
				g.Union(memoC, pc)
			}
		}
		g.memo.put(g.arena, hash, h, p.node, g.Find(pc))
	}
	// A union above that merged another class into this one appended
	// that class's parents to cl.parents behind the loop's back; they
	// are kept for the repair the union queued.
	if g.classes[c] == cl {
		parents = append(parents, cl.parents[orig:]...)
	}
	cl.parents = parents
}

// Classes returns the live canonical class IDs in ascending order.
// Class IDs are assigned deterministically by insertion, so iterating
// in this order — the class table's own — makes e-matching, and
// therefore union order, extraction tie-breaking, and per-rule
// application counts, reproducible across runs. The wavefront scheduler
// relies on this to keep parallel and sequential reports byte-identical.
func (g *EGraph) Classes() []ClassID {
	out := make([]ClassID, 0, g.live)
	for id, cl := range g.classes {
		if cl != nil {
			out = append(out, ClassID(id))
		}
	}
	return out
}

// Class returns the class record for a (possibly stale) ID.
func (g *EGraph) Class(id ClassID) *Class { return g.classes[g.Find(id)] }
