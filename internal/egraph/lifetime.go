package egraph

import (
	"fmt"
	"sync"
	"unsafe"

	"entangle/internal/sym"
)

// Graph lifetime. The checker builds one e-graph per G_s operator
// (§4.3.1) — dozens per request, most of them a few hundred nodes — so
// an e-graph is a recycled object: New hands out a reset graph from a
// small free list when one is there, and Release resets a graph and
// puts it back. A reset graph is observably a fresh one — same class
// IDs, same match order, same statistics. What it keeps is the capacity
// of its scratch, each piece only up to a fixed size. Scratch comes in
// two kinds. What holds pointers — the node arena (nodes point at
// attribute and kid slices), the class table and the first chunk of the
// class slab (records point at parent lists), the interner's head
// records, the derived shapes, the lemma scratch's symbolic buffer — the
// collector scans, so reset clears it: nothing of the life that ended
// stays reachable. What holds none — the union-find and its per-slot
// annotations, the node chains, the shape table, the kid and parent
// slabs, the memo table, the interner's table, the rest of the lemma
// scratch, the match list, the substitution slab, the e-matching stack
// — is truncated and left as it is (the hash tables, which have to read
// as empty, are zeroed — no write barriers, no scan): stale bytes the
// next life overwrites, which cost nothing to keep but resident memory,
// hence bounds in bytes for the pieces whose entries differ in size.
// Parent lists are not kept per class slot: a slot that remembered the
// largest list it ever held cost more resident memory than the
// allocations it saved; the parent slab they grow into is kept whole.
//
// The list is package-level because graph lifetimes are shorter than
// anything that could own it: the daemon builds a Checker per request,
// and a check's operators come and go on its workers. What it can pin
// is bounded by construction — freeListCap graphs, each within the
// keep* sizes below — and there is nothing to tune: a piece the bounds
// do not fit is simply rebuilt, which is what every graph was before.

// The retention bounds, sized for the operators of a multi-layer,
// degree-8 zoo model (peak ≈ 480 live nodes), not for the budget
// ceiling: smaller bounds measured faster than larger ones, not only
// leaner. A piece that outgrew its bound during the life that ended
// goes back to the collector; the graph keeps the rest.
const (
	// keepSlots bounds everything that grows with the graph's classes
	// and nodes: the per-class-slot arrays (union-find parent and rank,
	// the class table, the node chain links, the marks, the clean-cost
	// table: 40 bytes a slot together; the
	// shape table: 4; the node arena: 112) with the tables a graph of that
	// many classes fills (interner, repair dedup) and the kid and parent
	// slabs; the hash-cons table (24-byte entries); the class worklists.
	keepSlots = 768
	// keepMatchBytes bounds, each on its own, the three pieces that grow
	// with the matches of one phase: the match list (16-byte entries), the
	// substitution slab (32-byte records) and the e-matching stack (4-byte
	// indexes). In bytes, because that is what a kept graph costs: none of
	// the three holds a pointer, so keeping them costs the collector
	// nothing and Release does not clear them — the only price is
	// resident memory, and an entry count would let the widest entry set
	// it. It bounds the kid and parent slabs, the interner's head records
	// and each lemma scratch buffer the same way.
	keepMatchBytes = 32 << 10
)

// keepOf is how many entries of type T fit in keepMatchBytes.
func keepOf[T any]() int {
	var z T
	return keepMatchBytes / int(unsafe.Sizeof(z))
}

// freeListCap bounds the free list. It is a variable only so this
// package's tests can switch recycling off (export_test.go); nothing
// else writes it.
var freeListCap = 4

// releaseHook, when a test installs one (export_test.go), sees every
// graph Release is handed, as its life left it.
var releaseHook func(*EGraph)

var freeList struct {
	sync.Mutex
	graphs []*EGraph
}

// New returns an empty e-graph using ctx for symbolic reasoning (nil
// means an empty context). Hand it back with Release when done.
func New(ctx *sym.Context) *EGraph {
	if ctx == nil {
		ctx = sym.NewContext()
	}
	freeList.Lock()
	var g *EGraph
	if n := len(freeList.graphs); n > 0 {
		g = freeList.graphs[n-1]
		freeList.graphs[n-1] = nil
		freeList.graphs = freeList.graphs[:n-1]
	}
	freeList.Unlock()
	if g == nil {
		g = build()
	}
	g.released = false
	g.Ctx = ctx
	return g
}

// build makes an e-graph from nothing.
func build() *EGraph {
	return &EGraph{
		memo:   newMemoTable(),
		intern: newInterner(),
		dedup:  firstByHash{byHash: map[uint64]int32{}},
	}
}

// Release ends the graph's life: it is reset to the state New returns
// and may be handed to any later New, so the caller must not touch it —
// or any ENode, Class or CleanCosts obtained from it — again. Releasing
// is optional (an unreleased graph is garbage like any other) and must
// be skipped for a graph a panic unwound through, whose state nothing
// vouches for.
func (g *EGraph) Release() {
	if g.released {
		panic("egraph: Release of a graph that was already released")
	}
	if releaseHook != nil {
		releaseHook(g)
	}
	g.reset()
	if InvariantChecks {
		if err := g.checkEmpty(); err != nil {
			panic(fmt.Sprintf("egraph: graph not empty after reset: %v", err))
		}
	}
	g.released = true
	freeList.Lock()
	if len(freeList.graphs) < freeListCap {
		freeList.graphs = append(freeList.graphs, g)
	}
	freeList.Unlock()
}

// reset returns every field to what New builds. Slices are truncated
// and maps emptied in place — capacity is what recycling is for — after
// clearing whatever in them points into the life that ended.
func (g *EGraph) reset() {
	if cap(g.parent) > keepSlots {
		g.parent, g.rank, g.classes, g.arena, g.next = nil, nil, nil, nil, nil
		g.mark, g.cleanCostBuf = nil, nil
		g.kidSlab, g.parentSlab, g.shapeAt, g.shapes = bump[ClassID]{}, bump[parentEntry]{}, nil, nil
		g.intern = newInterner()
		g.dedup = firstByHash{byHash: map[uint64]int32{}}
	} else {
		clear(g.classes) // pointers into the class slab
		clear(g.arena)   // the nodes point at attribute and kid slices
		clear(g.shapes)  // and the shapes at their extents
		g.parent, g.rank, g.classes, g.arena, g.next = g.parent[:0], g.rank[:0], g.classes[:0], g.arena[:0], g.next[:0]
		// nextEpoch re-extends the marks with zeroes, so the epoch
		// restarts with them; ShapeOf does the same for the shape table.
		g.mark = g.mark[:0]
		g.shapeAt, g.shapes = g.shapeAt[:0], g.shapes[:0]
		// Pointer-free: the next life overwrites them.
		g.kidSlab.release(keepMatchBytes)
		g.parentSlab.release(keepMatchBytes)
		g.intern.reset()
		// The dedup map is emptied by the long list that next uses it.
	}
	g.classSlab.release()
	g.scratch.release()
	clear(g.shapeArgs[:cap(g.shapeArgs)]) // a stack: what it popped is still there
	clear(g.rulesByOp[:cap(g.rulesByOp)]) // the buckets of a shared rule set
	g.shapeArgs, g.rulesByOp = truncate(g.shapeArgs, keepSlots), truncate(g.rulesByOp, keepSlots)
	g.canonBuf, g.kidStack = truncate(g.canonBuf, keepSlots), truncate(g.kidStack, keepSlots)
	g.keptBuf = truncate(g.keptBuf, keepSlots)
	g.markEpoch = 0
	g.live, g.nodeCount = 0, 0
	g.memo.reset()
	g.work, g.workDone = truncate(g.work, keepSlots), truncate(g.workDone, keepSlots)

	g.Ctx = nil
	g.nodeLimit, g.budgetDenied = 0, false
	g.leafShape, g.leafTerm = nil, nil

	// Pointer-free, all of it: kept as it is, stale entries and all.
	g.todoBuf = truncate(g.todoBuf, keepOf[ruleMatch]())
	g.substs = truncate(g.substs, keepOf[Subst]())
	g.substStack = truncate(g.substStack, keepOf[int32]())
	g.appsBuf = truncate(g.appsBuf, keepSlots)
	// cleanGen keeps counting: a CleanCosts table of the life that ended
	// then still fails its generation check instead of aliasing a new one.
}

// classSlab hands out Class records in chunks, so that a class costs a
// record in a shared array instead of a heap object of its own. Chunks
// are fixed-size and never reallocated: the class table's pointers stay
// valid as the slab grows.
type classSlab struct {
	chunks [][]Class
	ci, ni int
}

// classChunk is a chunk's record count; a graph keeps one chunk.
const classChunk = 128

// alloc returns a zero record.
func (a *classSlab) alloc() *Class {
	if a.ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]Class, classChunk))
	}
	cl := &a.chunks[a.ci][a.ni]
	if a.ni++; a.ni == classChunk {
		a.ci, a.ni = a.ci+1, 0
	}
	return cl
}

// release cuts the slab back to its first chunk and zeroes the records
// of it that the life used: they point at parent lists.
func (a *classSlab) release() {
	if len(a.chunks) > 0 {
		used := classChunk
		if a.ci == 0 {
			used = a.ni
		}
		clear(a.chunks[0][:used])
		clear(a.chunks[1:])
		a.chunks = a.chunks[:1]
	}
	a.ci, a.ni = 0, 0
}

// truncate empties s, or drops it when it grew past keep.
func truncate[T any](s []T, keep int) []T {
	if cap(s) > keep {
		return nil
	}
	return s[:0]
}

// checkEmpty reports the first way in which g differs observably from a
// graph New just built (InvariantChecks: Release asserts it).
func (g *EGraph) checkEmpty() error {
	switch {
	case len(g.parent) != 0 || len(g.rank) != 0 || len(g.classes) != 0 || g.live != 0 || g.nodeCount != 0:
		return fmt.Errorf("%d union-find slots, %d class slots, %d live classes, %d nodes", len(g.parent), len(g.classes), g.live, g.nodeCount)
	case len(g.arena) != 0 || len(g.next) != 0:
		return fmt.Errorf("node arena holds %d nodes, %d chain links", len(g.arena), len(g.next))
	case g.classSlab.ci != 0 || g.classSlab.ni != 0 || len(g.classSlab.chunks) > 1:
		return fmt.Errorf("class slab still in use")
	case g.memo.live != 0 || g.memo.used != 0:
		return fmt.Errorf("memo holds %d entries (%d slots used)", g.memo.live, g.memo.used)
	case len(g.intern.heads) != 0 || len(g.intern.ops) != 0:
		return fmt.Errorf("interner holds %d heads, %d operators", len(g.intern.heads), len(g.intern.ops))
	case len(g.work) != 0:
		return fmt.Errorf("%d queued repairs", len(g.work))
	case len(g.shapeAt) != 0 || len(g.shapes) != 0 || len(g.shapeArgs) != 0 || g.leafShape != nil:
		return fmt.Errorf("shape analysis state survives (a table of %d slots, %d shapes derived)", len(g.shapeAt), len(g.shapes))
	case g.leafTerm != nil:
		return fmt.Errorf("extraction's leaf term source survives")
	case g.kidSlab.at != 0 || len(g.kidStack) != 0 || g.parentSlab.at != 0:
		return fmt.Errorf("kid slab holds %d kids, %d stacked; parent slab %d entries", g.kidSlab.at, len(g.kidStack), g.parentSlab.at)
	case g.scratch.classes.at != 0 || g.scratch.exprs.at != 0 || g.scratch.tiles.at != 0 || g.scratch.pairs.at != 0:
		return fmt.Errorf("lemma scratch still handed out (%d classes, %d expressions, %d tiles, %d union pairs)",
			g.scratch.classes.at, g.scratch.exprs.at, g.scratch.tiles.at, g.scratch.pairs.at)
	case g.nodeLimit != 0 || g.budgetDenied:
		return fmt.Errorf("node limit still armed (%d, denied %t)", g.nodeLimit, g.budgetDenied)
	case len(g.substs) != 0 || len(g.substStack) != 0 || len(g.todoBuf) != 0:
		return fmt.Errorf("%d substitutions, %d stacked, %d matches listed", len(g.substs), len(g.substStack), len(g.todoBuf))
	case g.markEpoch != 0 || len(g.mark) != 0:
		return fmt.Errorf("mark epoch %d over %d slots", g.markEpoch, len(g.mark))
	case g.Ctx != nil:
		return fmt.Errorf("symbolic context still attached")
	}
	for i := range g.memo.entries {
		if g.memo.entries[i].head != 0 {
			return fmt.Errorf("memo slot %d not cleared", i)
		}
	}
	for i, id := range g.intern.table {
		if id != 0 {
			return fmt.Errorf("interner slot %d not cleared", i)
		}
	}
	for i, h := range g.intern.heads[:cap(g.intern.heads)] {
		if h.ints != nil || h.str != "" {
			return fmt.Errorf("interned head record %d not cleared", i)
		}
	}
	for _, ch := range g.classSlab.chunks {
		for i := range ch {
			if cl := &ch[i]; cl.parents != nil {
				return fmt.Errorf("class slab record %d not cleared", i)
			}
		}
	}
	for i, n := range g.arena[:cap(g.arena)] {
		if n.Kids != nil || n.Ints != nil || n.Str != "" || n.Name != "" {
			return fmt.Errorf("node arena slot %d not cleared", i)
		}
	}
	for i, s := range g.shapes[:cap(g.shapes)] {
		if s != nil {
			return fmt.Errorf("shape table entry %d not cleared", i)
		}
	}
	for i, s := range g.shapeArgs[:cap(g.shapeArgs)] {
		if s != nil {
			return fmt.Errorf("kid shape %d not cleared", i)
		}
	}
	for i, e := range g.scratch.exprs.buf {
		if !e.Zero() {
			return fmt.Errorf("lemma scratch expression %d not cleared", i)
		}
	}
	return nil
}
