package lemmas

import (
	"entangle/internal/egraph"
	"entangle/internal/expr"
	"entangle/internal/sym"
)

// maxNaryWidth caps the arity that flattening lemmas may create. The
// evaluation's largest parallelism degree is 8; classes that contain a
// sum/concat of themselves would otherwise flatten without bound.
const maxNaryWidth = 12

// Shared helpers for dynamic lemmas. All of them fail soft: when the
// shape analysis cannot derive what a side condition needs, the lemma
// simply does not fire (costing completeness, never soundness — §4.3.1
// makes the same trade).

// dimConst extracts a constant, non-negative dimension index.
func dimConst(e sym.Expr) (int, bool) {
	v, ok := e.IsConst()
	if !ok || v < 0 {
		return 0, false
	}
	return int(v), true
}

// The lists below come from the graph's lemma scratch
// (egraph.EGraph.ScratchExprs and ScratchClasses): a lemma's Apply uses
// them and hands them to addAll, and never keeps one past its return.

// exprs returns es as an attribute list for addAll, in lemma scratch.
func exprs(g *egraph.EGraph, es ...sym.Expr) []sym.Expr {
	out := g.ScratchExprs(len(es))
	copy(out, es)
	return out
}

// classes returns ks as a kid list for addAll, in lemma scratch.
func classes(g *egraph.EGraph, ks ...egraph.ClassID) []egraph.ClassID {
	out := g.ScratchClasses(len(ks))
	copy(out, ks)
	return out
}

// splice returns kids with the one at i replaced by the list ins, in
// lemma scratch: one level of a flattening.
func splice(g *egraph.EGraph, kids []egraph.ClassID, i int, ins []egraph.ClassID) []egraph.ClassID {
	out := g.ScratchClasses(len(kids) + len(ins) - 1)
	at := copy(out, kids[:i])
	at += copy(out[at:], ins)
	copy(out[at:], kids[i+1:])
	return out
}

// kidExtents returns each class's extent along dimension d, in lemma
// scratch, plus the common rank. All kids must have derivable shapes of
// the same rank with d in range.
func kidExtents(g *egraph.EGraph, kids []egraph.ClassID, d int) (exts []sym.Expr, rank int, ok bool) {
	exts = g.ScratchExprs(len(kids))
	for i, k := range kids {
		s, got := g.ShapeOf(k)
		if !got || d >= len(s) {
			return nil, 0, false
		}
		if i == 0 {
			rank = len(s)
		} else if len(s) != rank {
			return nil, 0, false
		}
		exts[i] = s[d]
	}
	return exts, rank, true
}

// prefixOffsets returns the running start offsets of chunks with the
// given extents, in lemma scratch: [0, e0, e0+e1, …, Σe].
func prefixOffsets(g *egraph.EGraph, exts []sym.Expr) []sym.Expr {
	out := g.ScratchExprs(len(exts) + 1)
	out[0] = sym.Const(0)
	for i, e := range exts {
		out[i+1] = out[i].Add(e)
	}
	return out
}

// pairwiseAligned reports whether two chunk lists have provably equal
// extents position by position.
func pairwiseAligned(ctx *sym.Context, a, b []sym.Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !ctx.ProveEQ(a[i], b[i]) {
			return false
		}
	}
	return true
}

// allEqual reports whether every extent is provably equal to the first.
func allEqual(ctx *sym.Context, exts []sym.Expr) bool {
	for _, e := range exts[1:] {
		if !ctx.ProveEQ(exts[0], e) {
			return false
		}
	}
	return true
}

// addAll inserts an n-ary node over concrete kid classes through
// InstantiateOp, the one way a lemma adds to the graph. ints and kids
// may be lemma scratch: an insert copies what it keeps. It ignores
// InstantiateOp's ok: a budget-declined insert returns class 0, and
// Saturate, which sees the denial, drops the whole application — none
// of its unions happen — so no lemma needs to check.
func addAll(g *egraph.EGraph, op expr.Op, ints []sym.Expr, str string, kids []egraph.ClassID) egraph.ClassID {
	n := egraph.ENode{Op: op, Str: str, Ints: ints, Kids: kids}
	c, _ := g.InstantiateOp(&n)
	return c
}

// mapKids applies f to each kid class and inserts op over the results.
func mapKids(g *egraph.EGraph, op expr.Op, ints []sym.Expr, str string,
	kids []egraph.ClassID, f func(i int, k egraph.ClassID) egraph.ClassID) egraph.ClassID {
	mapped := g.ScratchClasses(len(kids))
	for i, k := range kids {
		mapped[i] = f(i, k)
	}
	if len(mapped) == 1 {
		return mapped[0]
	}
	return addAll(g, op, ints, str, mapped)
}
