package egraph

import (
	"unsafe"

	"entangle/internal/sym"
)

// Buffers the graph owns so that inserting nodes and applying rules
// allocates nothing in the steady state.
//
// Most rule applications change nothing: a lemma reads the classes its
// match binds, finds the condition fails or the node it would build
// already there, and returns. What such an application needs — the kid
// list of the node it looks up, the attribute list beside it, the
// extents of a concatenation's chunks, the slices tiling a class — it
// draws from the lemma scratch of the graph it runs on, not from the
// heap: ScratchClasses, ScratchExprs and ScratchTiles hand out zeroed
// slices that stay valid until the Apply returns. Saturate takes every
// one of them back before it calls the next Apply, and under
// InvariantChecks first overwrites them with garbage, so a rule that
// keeps a scratch slice past its Apply corrupts a later result instead
// of working by luck. InstantiateOp copies what an insert keeps — the
// kid list into the graph's kid slab, the attributes into a list of
// their own — so handing it scratch is safe.

// bump hands out slices of one buffer, front to back. A slice it handed
// out stays valid when the buffer is outgrown: the next one is a new
// array, big enough for the whole of what was asked since the last
// rewind and more, and the old one lives on for as long as the slices
// cut from it do.
type bump[T any] struct {
	buf []T
	at  int
}

// minBump is the smallest buffer a bump allocates.
const minBump = 64

// take returns the next n elements, with no spare capacity: appending to
// the slice copies it rather than writing over the next one handed out.
func (b *bump[T]) take(n int) []T {
	if b.at+n > len(b.buf) {
		b.buf = make([]T, max(2*len(b.buf)+n, minBump))
		b.at = 0
	}
	s := b.buf[b.at : b.at+n : b.at+n]
	b.at += n
	return s
}

// release takes every slice back, keeping the buffer unless it outgrew
// keepBytes. The contents are left as they are.
func (b *bump[T]) release(keepBytes int) {
	var z T
	if len(b.buf)*int(unsafe.Sizeof(z)) > keepBytes {
		b.buf = nil
	}
	b.at = 0
}

// fill overwrites what the buffer handed out since the last rewind
// with v.
func (b *bump[T]) fill(v T) {
	for i := range b.buf[:b.at] {
		b.buf[i] = v
	}
}

// Tile is one slice of a class: the span [Begin, End) along dimension
// Dim, held by Class. It is the record the slice-tiling lemma collects,
// sorts and chains, in ScratchTiles.
type Tile struct {
	Dim        int
	Begin, End int64
	Class      ClassID
}

// lemmaScratch is the buffer space of one rule application.
type lemmaScratch struct {
	classes bump[ClassID]
	exprs   bump[sym.Expr]
	tiles   bump[Tile]
	pairs   bump[UnionPair] // what Match.With returns
}

// rewind takes every slice back for the next Apply.
func (s *lemmaScratch) rewind() {
	s.classes.at, s.exprs.at, s.tiles.at, s.pairs.at = 0, 0, 0, 0
}

// Garbage an Apply that kept a scratch slice would read (InvariantChecks):
// a class ID no graph has, which Find rejects, and an extent no tensor has.
var (
	poisonClass = ClassID(-1)
	poisonExpr  = sym.Const(-1 << 40)
)

// poison overwrites with garbage what the scratch handed out since the
// last rewind, then rewinds it. A slice cut from a buffer the scratch
// has since outgrown is left as it is.
func (s *lemmaScratch) poison() {
	s.classes.fill(poisonClass)
	s.exprs.fill(poisonExpr)
	s.tiles.fill(Tile{Dim: -1, Begin: -1 << 40, End: -1 << 40, Class: poisonClass})
	s.pairs.fill(UnionPair{poisonClass, poisonClass})
	s.rewind()
}

// release empties the scratch for the graph's next life, keeping each
// buffer up to keepMatchBytes. Only the symbolic one is cleared: its
// expressions point at coefficient maps.
func (s *lemmaScratch) release() {
	clear(s.exprs.buf)
	s.classes.release(keepMatchBytes)
	s.exprs.release(keepMatchBytes)
	s.tiles.release(keepMatchBytes)
	s.pairs.release(keepMatchBytes)
}

// ScratchClasses returns n zeroed class slots of lemma scratch, valid
// until the calling Apply returns.
func (g *EGraph) ScratchClasses(n int) []ClassID {
	s := g.scratch.classes.take(n)
	clear(s)
	return s
}

// ScratchExprs returns n zeroed symbolic slots of lemma scratch, valid
// until the calling Apply returns.
func (g *EGraph) ScratchExprs(n int) []sym.Expr {
	s := g.scratch.exprs.take(n)
	clear(s)
	return s
}

// ScratchTiles returns n zeroed tiles of lemma scratch, valid until the
// calling Apply returns.
func (g *EGraph) ScratchTiles(n int) []Tile {
	s := g.scratch.tiles.take(n)
	clear(s)
	return s
}
