package lemmas

import (
	"entangle/internal/egraph"
	"entangle/internal/expr"
	"entangle/internal/sym"
)

// Most of the library says one thing about one operator after another:
// op distributes over an operand that arrives in k parts,
//
//	op(attrs; …, join(x_1 … x_k), …) = combine_i op(attrs; …, x_i, …)
//
// where join is concat along some dim or sum, the other operands are
// either shared by every part or split the same way, and combine puts
// the k results back together. A dist is one such lemma written as
// data; dist.rule is the one interpreter that turns it into an e-graph
// rule. Lemmas declare their rows in Lemma.dists, and Register builds
// the rules.
type dist struct {
	variant string           // rule-name suffix, for lemmas with several rows
	op      expr.Op          // the distributing operator
	attrs   []egraph.AttrPat // its attributes; every part's op carries them
	args    []arg            // its operands, in order
	when    cond             // side conditions, all of which must hold
	out     combiner         // how the k results recombine

	// prep, when set, runs once the dim, attribute and operand conditions
	// hold, before any extent is read or node built. It may decline, move
	// the dim the parts are concatenated along (site.dim) or change the
	// attributes the parts carry (site.attrs).
	prep func(g *egraph.EGraph, s site) (site, bool)
	// part, when set, builds part i in place of op(attrs; kids). offs are
	// the parts' k+1 boundaries along the split dim (the row needs an
	// extent condition); kids may be overwritten; auxiliary nodes go in
	// before the part's own.
	part func(g *egraph.EGraph, offs []sym.Expr, i int, kids []egraph.ClassID) egraph.ClassID
}

// arg is one operand's role in a dist.
type arg struct {
	split split
	dim   egraph.AttrPat // chunks: the concat dim, a variable or a literal
	rank  int            // when non-zero, the rank the operand (or each chunk) must have
	unit  bool           // shared: extent 1 along the split dim — a broadcast operand
}

type split byte

const (
	shared  split = iota // one class, handed to every part
	chunks               // concat(x_1 … x_k, dim): part i gets x_i
	addends              // sum(x_1 … x_k): part i gets x_i
)

var (
	whole     = arg{}
	broadcast = arg{unit: true}
	summed    = arg{split: addends}
	alongD    = chunked(egraph.AVar("d")) // chunks along whatever dim the match binds
	along0    = chunked(egraph.AInt(0))
	along1    = chunked(egraph.AInt(1))
)

func chunked(dim egraph.AttrPat) arg { return arg{split: chunks, dim: dim} }
func (a arg) ofRank(n int) arg       { a.rank = n; return a }

// vars are attribute variables, in attribute order.
func vars(names ...string) []egraph.AttrPat {
	out := make([]egraph.AttrPat, len(names))
	for i, n := range names {
		out[i] = egraph.AVar(n)
	}
	return out
}

// cond is a set of side conditions. The split dim is the dim of the
// first partitioned operand (the lead); the dim conditions need it
// constant and the lead's first chunk to have a derivable rank, the
// extent conditions need every chunk's shape.
type cond uint8

const (
	dimLast       cond = 1 << iota // the split dim is the lead's last dim
	dimNotLast                     // the split dim is not the lead's last dim
	dimBeforeLast                  // the split dim lies below the lead's last dim
	attrIsDim                      // attrs[0] is provably the split dim
	attrNotDim                     // attrs[0] is provably not the split dim
	aligned                        // part i's chunks have one extent, each along its own dim
	equalChunks                    // aligned, and the lead's chunks all have the same extent
	evenChunks                     // aligned, and the lead's chunk extents are even constants
)

type combiner byte

const (
	concat combiner = iota // concat(part_i, dim)
	sum                    // sum(part_i)
	mean                   // scale(sum(part_i), 1, k): the mean over k equal chunks is the mean of their means
)

// site is what a prep hook sees of one application. It is all values,
// so a match that declines has cost no allocation.
type site struct {
	attrs [3]sym.Expr       // op's attributes as matched
	dim   sym.Expr          // the split dim as matched
	k     int               // number of parts
	first [3]egraph.ClassID // part 0's operands, in op's order
}

// argVars names the pattern variable operand i binds.
var argVars = [...]string{"a0", "a1", "a2"}

// rule builds the row's e-graph rule: the left-hand pattern its fields
// describe, and the interpreter closed over them.
func (d *dist) rule(name string) *egraph.Rule {
	kids := make([]*egraph.Pattern, len(d.args))
	for i, a := range d.args {
		switch a.split {
		case shared:
			kids[i] = egraph.PVar(argVars[i])
		case chunks:
			kids[i] = egraph.POpN(expr.OpConcat, []egraph.AttrPat{a.dim}, argVars[i])
		case addends:
			kids[i] = egraph.POpN(expr.OpSum, nil, argVars[i])
		}
	}
	return &egraph.Rule{
		Name:  name + d.variant,
		LHS:   egraph.POp(d.op, d.attrs, kids...),
		Apply: d.apply,
	}
}

func attrOf(s egraph.Bindings, a egraph.AttrPat) sym.Expr {
	if a.Var == "" {
		return a.Lit
	}
	return s.AttrOf(a.Var)
}

// apply is the interpreter. Conditions run cheapest first — a declined
// match is still an application, and most matches of the broadcast and
// attrIsDim/attrNotDim rows decline. Nodes go in part by part, in part
// order, then the combiner: class IDs, and with them extraction
// tie-breaks, depend on that order.
func (d *dist) apply(g *egraph.EGraph, m egraph.Match) []egraph.UnionPair {
	var one [len(argVars)]egraph.ClassID
	var many [len(argVars)][]egraph.ClassID
	var s site
	lead := -1
	for i, a := range d.args {
		if a.split == shared {
			one[i] = m.Subst.ClassOf(argVars[i])
			s.first[i] = one[i]
			continue
		}
		many[i] = m.Subst.KidsOf(argVars[i])
		s.first[i] = many[i][0]
		if lead < 0 {
			lead = i
		} else if len(many[i]) != len(many[lead]) {
			return nil
		}
	}
	s.dim, s.k = attrOf(m.Subst, d.args[lead].dim), len(many[lead])
	for i, a := range d.attrs {
		s.attrs[i] = attrOf(m.Subst, a)
	}

	di, constDim := dimConst(s.dim)
	if d.when&(dimLast|dimNotLast|dimBeforeLast) != 0 {
		rank, got := g.RankOf(s.first[lead])
		if !constDim || !got ||
			d.when&dimLast != 0 && di != rank-1 ||
			d.when&dimNotLast != 0 && di == rank-1 ||
			d.when&dimBeforeLast != 0 && di >= rank-1 {
			return nil
		}
	}
	if d.when&attrIsDim != 0 && !g.Ctx.ProveEQ(s.attrs[0], s.dim) ||
		d.when&attrNotDim != 0 && !g.Ctx.ProveNE(s.attrs[0], s.dim) {
		return nil
	}
	for i, a := range d.args {
		if a.split != shared {
			continue // a chunk's rank is checked with its extents
		}
		if a.rank != 0 {
			if rank, got := g.RankOf(one[i]); !got || rank != a.rank {
				return nil
			}
		}
		if a.unit {
			sh, got := g.ShapeOf(one[i])
			if !constDim || !got || di >= len(sh) || !g.Ctx.ProveEQ(sh[di], sym.Const(1)) {
				return nil
			}
		}
	}
	if d.prep != nil {
		var ok bool
		if s, ok = d.prep(g, s); !ok {
			return nil
		}
	}
	var offs []sym.Expr
	if d.when&(aligned|equalChunks|evenChunks) != 0 {
		var exts []sym.Expr // the lead's chunk extents
		for i, a := range d.args {
			if a.split != chunks {
				continue
			}
			di, ok := dimConst(attrOf(m.Subst, a.dim))
			if !ok {
				return nil
			}
			e, rank, ok := kidExtents(g, many[i], di)
			if !ok || a.rank != 0 && rank != a.rank {
				return nil
			}
			if i != lead {
				if !pairwiseAligned(g.Ctx, exts, e) {
					return nil
				}
				continue
			}
			exts = e
			if d.when&equalChunks != 0 && !allEqual(g.Ctx, e) {
				return nil
			}
			if d.when&evenChunks != 0 {
				for _, x := range e {
					if v, isC := x.IsConst(); !isC || v%2 != 0 {
						return nil
					}
				}
			}
		}
		if d.part != nil {
			offs = prefixOffsets(g, exts)
		}
	}

	attrs := exprs(g, s.attrs[:len(d.attrs)]...)
	joinOp, joinAttrs := expr.OpSum, []sym.Expr(nil)
	if d.out == concat {
		joinOp, joinAttrs = expr.OpConcat, exprs(g, s.dim)
	}
	str := m.Node.Str // a unary's activation name; empty for every other op
	// Part i's operands, rewritten part by part: an insert copies them.
	kids := g.ScratchClasses(len(d.args))
	c := mapKids(g, joinOp, joinAttrs, "", many[lead], func(i int, _ egraph.ClassID) egraph.ClassID {
		for j := range kids {
			if kids[j] = one[j]; many[j] != nil {
				kids[j] = many[j][i]
			}
		}
		if d.part != nil {
			return d.part(g, offs, i, kids)
		}
		return addAll(g, d.op, attrs, str, kids)
	})
	if d.out == mean {
		c = addAll(g, expr.OpScale, exprs(g, sym.Const(1), sym.Const(int64(s.k))), "", classes(g, c))
	}
	return m.With(c)
}

// The hooks of the few rows that need one.

// matmulOutDim: column chunks of w land on the product's last dim, whose
// index depends on which operand is batched.
func matmulOutDim(g *egraph.EGraph, s site) (site, bool) {
	xRank, ok := g.RankOf(s.first[0])
	wRank, _ := g.RankOf(s.first[1]) // derivable: dimLast held
	out := xRank - 1
	if wRank > 2 {
		out = max(xRank, wRank) - 1
	}
	s.dim = sym.Const(int64(out))
	return s, ok
}

// afterIDs: a lookup's hidden dim comes after all of the ids' dims.
func afterIDs(g *egraph.EGraph, s site) (site, bool) {
	idsRank, ok := g.RankOf(s.first[1])
	s.dim = sym.Const(int64(idsRank))
	return s, ok
}

// swappedDim: transpose(a, b) moves a split along a to b and back.
func swappedDim(_ *egraph.EGraph, s site) (site, bool) {
	switch a, b := s.attrs[0], s.attrs[1]; {
	case s.dim.Equal(a):
		s.dim = b
	case s.dim.Equal(b):
		s.dim = a
	}
	return s, true
}

// headsPerGroup: attention over one of k equal head groups has h/k heads.
func headsPerGroup(_ *egraph.EGraph, s site) (site, bool) {
	h, ok := s.attrs[0].IsConst()
	if !ok || h%int64(s.k) != 0 {
		return s, false
	}
	s.attrs[0] = sym.Const(h / int64(s.k))
	return s, true
}

// vocabShard: table shard i answers for the ids from its first row on;
// ids outside the shard yield 0.
func vocabShard(g *egraph.EGraph, offs []sym.Expr, i int, kids []egraph.ClassID) egraph.ClassID {
	return addAll(g, expr.OpEmbeddingShard, exprs(g, offs[i]), "", kids)
}

// ropeSpan: sequence shard i rotates by its own rows of the cos/sin
// tables.
func ropeSpan(g *egraph.EGraph, offs []sym.Expr, i int, kids []egraph.ClassID) egraph.ClassID {
	span := exprs(g, sym.Const(0), offs[i], offs[i+1])
	kids[1] = addAll(g, expr.OpSlice, span, "", kids[1:2])
	kids[2] = addAll(g, expr.OpSlice, span, "", kids[2:3])
	return addAll(g, expr.OpRoPE, nil, "", kids)
}
