package core

// Spellings: the relation keeps every mapping a tensor has gained, and
// the residual stream gains one per layer — an old spelling such as
// sum(concat(L2/res1), L2/fc2, …) stays beside the newest,
// concat(L4/res2). A consumer's first search reads only the newest
// spellings, the related-tensor frontier of §4.3.1 applied to mappings
// as well as to G_d nodes, and checkOp widens a failed search (DESIGN
// §5.7):
//
//   - rungNewest reads each input's undominated mappings under the
//     frontier. A mapping is dominated when one of its G_d leaves is a
//     strict G_d ancestor of a leaf of another mapping of the same
//     tensor: the other mapping is spelt over later tensors. When every
//     mapping of a tensor is dominated (two mappings' leaves cross), all
//     are read.
//   - rungAll reads every mapping under the frontier.
//   - rungWhole reads every mapping with T_rel covering all of G_d:
//     the frontier seeds T_rel only from the leaves the spellings name,
//     so a fixpoint under it says nothing about a G_d consumer of a
//     tensor no spelling names. Only this rung's failure at fixpoint is
//     a disproof.

import (
	"math/bits"
	"sync"

	"entangle/internal/expr"
	"entangle/internal/graph"
	"entangle/internal/relation"
)

// rung is how widely one search reads: which input mappings, and
// whether under the frontier or over all of G_d.
type rung uint8

const (
	rungNewest rung = iota
	rungAll
	rungWhole
)

// firstRung is where v's ladder starts: over all of G_d with the
// frontier off, and at rungAll when no input has a dominated mapping,
// since rungNewest would read the same.
func (r *runState) firstRung(v *graph.Node) rung {
	if r.opts.DisableFrontier {
		return rungWhole
	}
	for _, in := range v.Inputs {
		if s := r.spellingsOf(in); len(s.newest) < len(s.all) {
			return rungNewest
		}
	}
	return rungAll
}

// inputMappings is what a search at rung rg reads of G_s tensor in.
func (r *runState) inputMappings(in graph.TensorID, rg rung) []*expr.Term {
	s := r.spellingsOf(in)
	if rg == rungNewest {
		return s.newest
	}
	return s.all
}

// spellings is one G_s tensor's mappings as its consumers read them:
// all of them, in relation order, and the undominated ones among them
// (all itself when none is dominated). A tensor's mappings are complete
// once its producer is done, before any consumer reads them.
type spellings struct {
	once        sync.Once
	all, newest []*expr.Term
}

// spellingsOf returns in's spellings, derived by the first consumer that
// asks; a run that replays every verdict never does.
func (r *runState) spellingsOf(in graph.TensorID) *spellings {
	r.spellOnce.Do(func() { r.spell = make([]spellings, len(r.gs.Tensors)) })
	s := &r.spell[in]
	s.once.Do(func() {
		s.all = r.rel.Get(in)
		s.newest = r.undominated(s.all)
	})
	return s
}

// gdPositions returns each G_d tensor's producer's position in gdOrder
// (-1 for a graph input), made once per run by the first tensor with
// two mappings: a strict ancestor of a tensor sits at a lower position.
func (r *runState) gdPositions() []int32 {
	r.gdPosOnce.Do(func() {
		r.gdPos = make([]int32, len(r.gd.Tensors))
		for i := range r.gdPos {
			r.gdPos[i] = -1
		}
		for p, n := range r.gdOrder {
			for _, out := range n.Outputs {
				r.gdPos[out] = int32(p)
			}
		}
	})
	return r.gdPos
}

// dominance is undominated's scratch, one mask per G_d tensor over the
// mappings of the tensor being decided: own, the mappings it is a leaf
// of; below, the mappings one of its strict descendants is a leaf of.
type dominance struct{ own, below []uint64 }

var dominances = sync.Pool{New: func() any { return new(dominance) }}

// undominated returns the mappings in all that no other mapping of the
// same tensor dominates: all itself when none is, or every one is, and
// for a list too long for the masks.
func (r *runState) undominated(all []*expr.Term) []*expr.Term {
	if len(all) < 2 || len(all) > 64 {
		return all
	}
	pos := r.gdPositions()
	d := dominances.Get().(*dominance)
	if len(d.own) < len(pos) {
		d.own, d.below = make([]uint64, len(pos)), make([]uint64, len(pos))
	}
	// eachLeaf visits m's leaves that are G_d tensors of the table; any
	// other leaf is nobody's ancestor.
	eachLeaf := func(m *expr.Term, visit func(id graph.TensorID)) {
		m.EachLeaf(func(tid int) {
			if relation.IsGd(tid) && int(relation.GdTensorID(tid)) < len(pos) {
				visit(relation.GdTensorID(tid))
			}
		})
	}
	lo, hi := int32(len(r.gdOrder)), int32(-1)
	for j, m := range all {
		eachLeaf(m, func(id graph.TensorID) {
			d.own[id] |= 1 << j
			lo, hi = min(lo, pos[id]), max(hi, pos[id])
		})
	}
	// Walk the nodes between the lowest and the highest leaf backwards:
	// a node whose outputs reach a leaf of some mappings passes them to
	// its inputs, whose strict descendants those leaves are.
	for p := hi; p > lo; p-- {
		n := r.gdOrder[p]
		var reach uint64
		for _, out := range n.Outputs {
			reach |= d.own[out] | d.below[out]
		}
		for _, in := range n.Inputs {
			d.below[in] |= reach
		}
	}
	var dominated uint64
	for j, m := range all {
		eachLeaf(m, func(id graph.TensorID) {
			if d.below[id]&^(1<<j) != 0 {
				dominated |= 1 << j
			}
		})
	}
	// Clear what the walk marked, and hand the scratch back.
	for _, m := range all {
		eachLeaf(m, func(id graph.TensorID) { d.own[id], d.below[id] = 0, 0 })
	}
	for p := hi; p > lo; p-- {
		n := r.gdOrder[p]
		for _, in := range n.Inputs {
			d.below[in] = 0
		}
		for _, out := range n.Outputs {
			d.below[out] = 0
		}
	}
	dominances.Put(d)

	if dominated == 0 || bits.OnesCount64(dominated) == len(all) {
		return all
	}
	newest := make([]*expr.Term, 0, len(all)-bits.OnesCount64(dominated))
	for j, m := range all {
		if dominated&(1<<j) == 0 {
			newest = append(newest, m)
		}
	}
	return newest
}
