// Package relation implements ENTANGLE's relations (§3.2): sets of
// tensor-expression pairs mapping tensors of a sequential model G_s to
// clean expressions over tensors of a distributed implementation G_d.
// The user-provided input relation R_i, the per-operator relations R_v,
// and the final output relation R_o are all values of this type.
package relation

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"entangle/internal/expr"
	"entangle/internal/graph"
)

// GdOffset separates the two graphs' tensor-leaf ID spaces inside
// expressions: a leaf with TID ≥ GdOffset refers to G_d tensor
// (TID - GdOffset); smaller TIDs refer to G_s tensors.
const GdOffset = 1 << 20

// GdLeaf builds an expression leaf referencing a G_d tensor.
func GdLeaf(t *graph.Tensor) *expr.Term {
	return expr.Tensor(int(t.ID)+GdOffset, t.Name)
}

// GsLeaf builds an expression leaf referencing a G_s tensor.
func GsLeaf(t *graph.Tensor) *expr.Term {
	return expr.Tensor(int(t.ID), t.Name)
}

// IsGd reports whether a leaf TID refers to the G_d space.
func IsGd(tid int) bool { return tid >= GdOffset }

// GdTensorID converts a G_d-space leaf TID back to a graph.TensorID.
func GdTensorID(tid int) graph.TensorID { return graph.TensorID(tid - GdOffset) }

// Relation maps G_s tensor IDs to one or more clean expressions over
// G_d tensors. A tensor may have several mappings (replication, or the
// multiple reconstructions of §4.1's running example); they are kept
// sorted simplest-first, mirroring the paper's pruning rule (§4.3.2).
//
// A Relation is safe for concurrent use: the wavefront scheduler
// (internal/core) has many operator checks reading input mappings and
// recording output mappings against one shared store. Reads return
// copies (copy-on-read), so a slice obtained from Get is never
// re-sorted or appended to by a concurrent Add. Terms themselves are
// immutable and shared freely.
type Relation struct {
	mu sync.RWMutex
	m  map[graph.TensorID][]*expr.Term
}

// New returns an empty relation.
func New() *Relation {
	return &Relation{m: map[graph.TensorID][]*expr.Term{}}
}

// Add records a mapping for tensor id; duplicates (structurally Equal
// terms) are ignored. It reports whether the mapping was new.
func (r *Relation) Add(id graph.TensorID, t *expr.Term) bool {
	if t == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.addLocked(id, t, 1)
}

// AddAll records several mappings.
func (r *Relation) AddAll(id graph.TensorID, ts []*expr.Term) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, t := range ts {
		if t != nil {
			r.addLocked(id, t, len(ts)-i)
		}
	}
}

// addLocked is Add under r.mu, with room made for up to more terms
// (t and those after it) when the list has to grow. The mapping list
// stays sorted simplest-first with insertion order breaking ties: the
// new term goes after the last one no larger than itself, which keeps
// list order deterministic however callers interleave. A list holds a
// handful of terms, so a scan finds a duplicate.
func (r *Relation) addLocked(id graph.TensorID, t *expr.Term, more int) bool {
	lst := r.m[id]
	if slices.ContainsFunc(lst, t.Equal) {
		return false
	}
	size := t.Size()
	at := len(lst)
	for at > 0 && lst[at-1].Size() > size {
		at--
	}
	if len(lst) == cap(lst) {
		lst = slices.Grow(lst, more)
	}
	r.m[id] = slices.Insert(lst, at, t)
	return true
}

// Get returns the mappings for tensor id, simplest first. The
// returned slice is a copy owned by the caller.
func (r *Relation) Get(id graph.TensorID) []*expr.Term {
	r.mu.RLock()
	defer r.mu.RUnlock()
	lst := r.m[id]
	if len(lst) == 0 {
		return nil
	}
	out := make([]*expr.Term, len(lst))
	copy(out, lst)
	return out
}

// Has reports whether tensor id has at least one mapping.
func (r *Relation) Has(id graph.TensorID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.m[id]) > 0
}

// Len returns the number of mapped tensors.
func (r *Relation) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.m)
}

// Tensors returns the mapped tensor IDs in ascending order.
func (r *Relation) Tensors() []graph.TensorID {
	r.mu.RLock()
	out := make([]graph.TensorID, 0, len(r.m))
	for id := range r.m {
		out = append(out, id)
	}
	r.mu.RUnlock()
	slices.Sort(out)
	return out
}

// Complete reports whether every one of the given tensors is mapped —
// the paper's completeness condition on R_o (§3.2).
func (r *Relation) Complete(outputs []graph.TensorID) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, o := range outputs {
		if len(r.m[o]) == 0 {
			return false
		}
	}
	return true
}

// Clone returns a deep-enough copy (terms are immutable and shared).
func (r *Relation) Clone() *Relation { return r.CloneSized(0) }

// CloneSized is Clone with room for the mappings of n tensors in all —
// a run that will map every tensor of its graph never regrows the map.
// The lists are already deduplicated and in order, so they are copied
// as they stand.
func (r *Relation) CloneSized(n int) *Relation {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c := &Relation{m: make(map[graph.TensorID][]*expr.Term, max(n, len(r.m)))}
	for id, lst := range r.m {
		c.m[id] = slices.Clone(lst)
	}
	return c
}

// Render formats the relation for humans, resolving G_s tensor names
// through the graph.
func (r *Relation) Render(gs *graph.Graph) string {
	var b strings.Builder
	for _, id := range r.Tensors() {
		name := fmt.Sprintf("t%d", id)
		if int(id) < len(gs.Tensors) {
			name = gs.Tensor(id).Name
		}
		r.mu.RLock()
		ts := append([]*expr.Term(nil), r.m[id]...)
		r.mu.RUnlock()
		for _, t := range ts {
			fmt.Fprintf(&b, "  %s = %s\n", name, t)
		}
	}
	return b.String()
}
