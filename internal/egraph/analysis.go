package egraph

import (
	"entangle/internal/expr"
	"entangle/internal/shape"
)

// Shape analysis: every equivalence class denotes one tensor value, so
// all its members share a shape. Lemma side conditions (e.g. "the
// concatenated chunks tile the sliced range exactly") consult it via
// ShapeOf. Leaf shapes come from the LeafShape callback, which the
// refinement checker wires to the graphs' tensor tables; interior
// shapes are inferred with shape.Infer.

// SetLeafShapeFn installs the tensor-leaf shape oracle.
func (g *EGraph) SetLeafShapeFn(fn func(tid int) (shape.Shape, bool)) {
	g.leafShape = fn
	clear(g.shapes)
	g.shapeAt, g.shapes = g.shapeAt[:0], g.shapes[:0]
}

// ShapeOf returns the shape of the tensor denoted by class c, if
// derivable from leaf shapes. Results are memoized per canonical class
// in a dense table (shapeAt, indexed by class slot); an entry stays
// valid across unions because members of a class always denote the
// same tensor value.
func (g *EGraph) ShapeOf(c ClassID) (shape.Shape, bool) {
	if g.leafShape == nil {
		return nil, false
	}
	if grow := len(g.parent) - len(g.shapeAt); grow > 0 {
		g.shapeAt = append(g.shapeAt, make([]int32, grow)...)
	}
	return g.shapeOf(c)
}

func (g *EGraph) shapeOf(c ClassID) (shape.Shape, bool) {
	c = g.Find(c)
	switch at := g.shapeAt[c]; {
	case at > 0:
		return g.shapes[at-1], true
	case at < 0:
		return nil, false // cycle: try other derivations
	}
	cl := g.classes[c]
	if cl == nil {
		return nil, false
	}
	g.shapeAt[c] = -1
	for ni := cl.first; ni >= 0; ni = g.next[ni] {
		n := &g.arena[ni]
		if n.isLeaf() {
			if s, ok := g.leafShape(n.TID); ok {
				return g.derived(c, s), true
			}
			continue
		}
		// The kid shapes go on shapeArgs above those of the derivations
		// this one is nested in.
		base := len(g.shapeArgs)
		ok := true
		for _, k := range n.Kids {
			s, got := g.shapeOf(k)
			if !got {
				ok = false
				break
			}
			g.shapeArgs = append(g.shapeArgs, s)
		}
		var outs []shape.Shape
		var err error
		if ok {
			outs, err = shape.Infer(n.Op, n.Str, n.Ints, g.shapeArgs[base:], g.Ctx)
		}
		g.shapeArgs = g.shapeArgs[:base]
		if ok && err == nil && len(outs) == 1 {
			return g.derived(c, outs[0]), true
		}
	}
	g.shapeAt[c] = 0
	return nil, false
}

// derived records s as the shape of class c and returns it.
func (g *EGraph) derived(c ClassID, s shape.Shape) shape.Shape {
	g.shapes = append(g.shapes, s)
	g.shapeAt[c] = int32(len(g.shapes))
	return s
}

// EachParent visits the consumers of class c — what generative lemmas
// (slice tiling) enumerate to find existing sibling ENodes. The node
// pointer aliases the e-graph's node arena
// and is valid only for the duration of the call, which must not insert
// nodes; its Kids are not canonicalized (pass them through Find before
// comparing).
func (g *EGraph) EachParent(c ClassID, fn func(n *ENode, owner ClassID) bool) {
	cl := g.classes[g.Find(c)]
	if cl == nil {
		return
	}
	for _, p := range cl.parents {
		if !fn(&g.arena[p.node], g.Find(ClassID(p.class))) {
			return
		}
	}
}

// NodeIter walks the nodes of one class, in the class's own order:
//
//	for it := g.NodesOf(c); it.Valid(); it.Next() {
//		n := it.Node()
//		…
//	}
//
// Like EachParent's, the node pointer aliases the e-graph's node arena:
// it is valid until the walk's caller returns or inserts a node,
// whichever comes first, must not be written through, and its Kids are
// canonical only as far as the last Rebuild made them (pass them
// through Find before comparing).
type NodeIter struct {
	g  *EGraph
	at int32
}

// NodesOf starts a walk over the nodes of class c.
func (g *EGraph) NodesOf(c ClassID) NodeIter {
	if cl := g.classes[g.Find(c)]; cl != nil {
		return NodeIter{g: g, at: cl.first}
	}
	return NodeIter{g: g, at: -1}
}

// Valid reports whether the walk is at a node.
func (it NodeIter) Valid() bool { return it.at >= 0 }

// Next moves to the class's next node.
func (it *NodeIter) Next() { it.at = it.g.next[it.at] }

// Node returns the node the walk is at.
func (it NodeIter) Node() *ENode { return &it.g.arena[it.at] }

// ConsumedBy reports whether a node with operator op may list class c
// among its kids. False is exact — no such node does — and O(1): a rule
// that only acts on op consumers (slice tiling) declines on it without
// enumerating EachParent. True is a superset: the bits behind it are
// sticky (Class.consumers), set when the consumer is inserted and kept
// through merges and deduplication.
func (g *EGraph) ConsumedBy(c ClassID, op expr.Op) bool {
	id := g.intern.lookupOp(op)
	if id == 0 {
		return false // no node of this graph has the operator
	}
	cl := g.classes[g.Find(c)]
	return cl != nil && cl.consumers&consumerBit(id) != 0
}

// RankOf returns the rank of the tensor denoted by class c, if shape
// analysis can derive it.
func (g *EGraph) RankOf(c ClassID) (int, bool) {
	s, ok := g.ShapeOf(c)
	if !ok {
		return 0, false
	}
	return len(s), true
}
