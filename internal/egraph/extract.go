package egraph

import (
	"cmp"
	"slices"

	"entangle/internal/expr"
)

// Extraction answers the checker's central question (§4.1 step iv):
// does an equivalence class contain a *clean* expression — built only
// from clean operators over an allowed set of leaf tensors — and if
// so, what is the simplest one (the paper prunes to "the expression
// with the smallest number of nested expressions", §4.3.2)?

const inf = int(^uint(0) >> 2)

// CleanCosts is the clean-cost table of the graph as it stood when
// CleanCosts() built it: for every class, the minimal size of a clean
// expression over the allowed leaves representing it (inf when none
// exists). One table answers any number of ExtractAll questions — the
// checker asks one per output of the G_s operator, once its frontier
// walk is over, all about the same unchanged graph. The walk needs no
// table: a folded G_d node's outputs join T_rel by rule, since every
// G_d leaf is clean and no lemma makes a leaf. The table lives in the
// e-graph's reusable scratch: it describes the graph only until the
// graph next changes, and building the next table overwrites it (using
// it after that panics).
type CleanCosts struct {
	g       *EGraph
	cost    []int
	allowed func(tid int) bool
	gen     uint32
}

// CleanCosts computes the table by fixpoint iteration, which handles
// the cycles unions introduce; the fixpoint is order-independent, so
// costs can live in a dense slice indexed by canonical ClassID. A
// per-call map here was once the lemma path's largest steady-state
// allocation, hence the scratch.
func (g *EGraph) CleanCosts(allowed func(tid int) bool) CleanCosts {
	n := len(g.parent)
	if cap(g.cleanCostBuf) < n {
		g.cleanCostBuf = make([]int, n)
	}
	g.cleanGen++
	v := CleanCosts{g: g, cost: g.cleanCostBuf[:n], allowed: allowed, gen: g.cleanGen}
	for i := range v.cost {
		v.cost[i] = inf
	}
	for {
		changed := false
		for id, cl := range g.classes {
			if cl == nil {
				continue
			}
			best := v.cost[id]
			for ni := cl.first; ni >= 0; ni = g.next[ni] {
				if c := v.nodeCost(&g.arena[ni]); c < best {
					best = c
					changed = true
				}
			}
			v.cost[id] = best
		}
		if !changed {
			return v
		}
	}
}

// of returns the cost of class c, refusing a table that a later
// CleanCosts call has overwritten.
func (v CleanCosts) of(c ClassID) int {
	if v.gen != v.g.cleanGen {
		panic("egraph: CleanCosts table used after a later one was built")
	}
	return v.cost[v.g.Find(c)]
}

func (v *CleanCosts) nodeCost(n *ENode) int {
	if n.isLeaf() {
		if v.allowed(n.TID) {
			return 0
		}
		return inf
	}
	if !expr.CleanOp(n.Op) {
		return inf
	}
	total := 1
	for _, k := range n.Kids {
		kc := v.cost[v.g.Find(k)]
		if kc >= inf {
			return inf
		}
		total += kc
		if total >= inf {
			return inf
		}
	}
	return total
}

// SetLeafTermFn installs where extracted leaves come from: fn(tid) is the
// term extraction returns for a leaf naming tid, or nil to have one made.
// A caller that owns one term per tensor shares it with every extracted
// expression instead of paying a leaf per extraction.
func (g *EGraph) SetLeafTermFn(fn func(tid int) *expr.Term) { g.leafTerm = fn }

// leafTermOf is the term extraction returns for leaf n.
func (g *EGraph) leafTermOf(n *ENode) *expr.Term {
	if g.leafTerm != nil {
		if t := g.leafTerm(n.TID); t != nil {
			return t
		}
	}
	return expr.Tensor(n.TID, n.Name)
}

func (v CleanCosts) buildMin(c ClassID) *expr.Term {
	g := v.g
	cl := g.classes[g.Find(c)]
	var best *ENode
	bestCost := inf
	for ni := cl.first; ni >= 0; ni = g.next[ni] {
		n := &g.arena[ni]
		nc := v.nodeCost(n)
		if nc < bestCost {
			bestCost = nc
			best = n
		}
	}
	if best == nil {
		return nil
	}
	if best.isLeaf() {
		return g.leafTermOf(best)
	}
	args := make([]*expr.Term, len(best.Kids))
	for i, k := range best.Kids {
		args[i] = v.buildMin(k)
	}
	return &expr.Term{Op: best.Op, Str: best.Str, Ints: best.Ints, Args: args}
}

// ExtractAll enumerates distinct clean expressions for class c:
// one per clean top-level ENode, each completed with minimal clean
// subterms (so the count stays bounded by the class width). The paper
// collects *all* clean mappings for a tensor — e.g. both
// sum(C1, C2) and concat(D1, D2) in the running example — because a
// later operator may need any of them. Results are sorted smallest
// first, capped at limit (0 = no cap).
func (v CleanCosts) ExtractAll(c ClassID, limit int) []*expr.Term {
	if v.of(c) >= inf {
		return nil
	}
	g := v.g
	cl := g.classes[g.Find(c)]
	var out []*expr.Term
	for ni := cl.first; ni >= 0; ni = g.next[ni] {
		n := &g.arena[ni]
		if v.nodeCost(n) >= inf {
			continue
		}
		var t *expr.Term
		if n.isLeaf() {
			t = g.leafTermOf(n)
		} else {
			args := make([]*expr.Term, len(n.Kids))
			ok := true
			for j, k := range n.Kids {
				args[j] = v.buildMin(k)
				if args[j] == nil {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			t = &expr.Term{Op: n.Op, Str: n.Str, Ints: n.Ints, Args: args}
		}
		if !slices.ContainsFunc(out, t.Equal) {
			out = append(out, t)
		}
	}
	slices.SortStableFunc(out, func(a, b *expr.Term) int { return cmp.Compare(a.Size(), b.Size()) })
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}
