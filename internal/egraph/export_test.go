package egraph

import "slices"

// The free list's test seams (lifetime.go).

// SetFreeListCap empties the free list and sets how many graphs it
// keeps from now on; 0 switches recycling off — every New then builds
// from scratch, as if Release were never called. It returns the
// previous bound.
func SetFreeListCap(n int) (old int) {
	freeList.Lock()
	defer freeList.Unlock()
	old, freeListCap = freeListCap, n
	clear(freeList.graphs)
	freeList.graphs = freeList.graphs[:0]
	return old
}

// FreeListLen reports how many graphs are waiting for a New.
func FreeListLen() int {
	freeList.Lock()
	defer freeList.Unlock()
	return len(freeList.graphs)
}

// OnFreeList reports whether g is waiting for a New.
func OnFreeList(g *EGraph) bool {
	freeList.Lock()
	defer freeList.Unlock()
	for _, f := range freeList.graphs {
		if f == g {
			return true
		}
	}
	return false
}

// SetReleaseHook installs fn to see every graph as Release receives it,
// before the reset (nil uninstalls).
func SetReleaseHook(fn func(*EGraph)) { releaseHook = fn }

// Shapeless reports whether some live class of g has no derivable
// shape.
func Shapeless(g *EGraph) bool {
	for _, c := range g.Classes() {
		if _, ok := g.ShapeOf(c); !ok {
			return true
		}
	}
	return false
}

// ParentRef is one consumer of a class: the consuming ENode,
// canonicalized, and the class that node belongs to.
type ParentRef struct {
	Node  ENode
	Class ClassID
}

// ParentsOf materializes what EachParent visits: the nodes that consume
// class c as a child, with their owning classes.
func (g *EGraph) ParentsOf(c ClassID) []ParentRef {
	var out []ParentRef
	g.EachParent(c, func(n *ENode, owner ClassID) bool {
		out = append(out, ParentRef{Node: g.canonCopy(n), Class: owner})
		return true
	})
	return out
}

// Nodes copies out the nodes of class c, in the class's order, each
// with a kid list of its own (repair rewrites the arena's in place).
func (g *EGraph) Nodes(c ClassID) []ENode {
	var out []ENode
	for it := g.NodesOf(c); it.Valid(); it.Next() {
		n := *it.Node()
		n.Kids = slices.Clone(n.Kids)
		out = append(out, n)
	}
	return out
}

// canonCopy returns a copy of n, canonicalized, with a kid list of its
// own.
func (g *EGraph) canonCopy(n *ENode) ENode {
	cn := *n
	g.canonNode(&cn)
	cn.Kids = slices.Clone(cn.Kids)
	return cn
}

// nodeTotal recounts the live nodes class by class, the O(classes)
// cross-check of NodeCount.
func nodeTotal(g *EGraph) int {
	n := 0
	for _, c := range g.classes {
		if c != nil {
			n += int(c.count)
		}
	}
	return n
}
