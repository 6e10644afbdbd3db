package lemmas

import (
	"entangle/internal/egraph"
	"entangle/internal/expr"
	"entangle/internal/sym"
)

// registerClean registers the structural lemmas over clean operators
// (Figure 6's "c"-marked lemmas): slice, concat, transpose, pad, sum.
// These dominate application counts in the paper's heatmap because
// every distribution strategy manipulates shards.
func registerClean(r *Registry) {
	registerSumBasics(r)
	registerSumOfConcats(r)
	registerConcatOfSlices(r)
	registerSliceJoin(r)
	registerSliceOfConcat(r)
	registerSliceOfSum(r)
	registerSliceOfPad(r)
	registerTranspose(r)
}

func registerSumBasics(r *Registry) {
	// add(x,y) and sum(x,y) denote the same value; normalizing them
	// into one class lets every sum lemma cover both spellings.
	r.MustRegister(&Lemma{
		Name: "add-is-sum", Kind: KindClean, Complexity: 2, LOC: 6,
		Rules: []*egraph.Rule{{
			Name: "add-is-sum",
			LHS:  egraph.POp(expr.OpAdd, nil, egraph.PVar("x"), egraph.PVar("y")),
			Apply: func(g *egraph.EGraph, m egraph.Match) []egraph.UnionPair {
				x, y := m.Subst.ClassOf("x"), m.Subst.ClassOf("y")
				return m.With(addAll(g, expr.OpSum, nil, "", classes(g, x, y)))
			},
		}},
	})

	// sum(… sum(ys) …) flattens one level. Width-capped: a class can
	// contain a sum of itself (x = sum(x/2, x/2) after other lemmas),
	// and uncapped flattening would then grow sums without bound.
	r.MustRegister(&Lemma{
		Name: "sum-flatten", Kind: KindClean, Complexity: 2, LOC: 22,
		Rules: []*egraph.Rule{{
			Name: "sum-flatten",
			LHS:  egraph.POpN(expr.OpSum, nil, "xs"),
			Apply: func(g *egraph.EGraph, m egraph.Match) []egraph.UnionPair {
				kids := m.Subst.KidsOf("xs")
				for i, k := range kids {
					for it := g.NodesOf(k); it.Valid(); it.Next() {
						n := it.Node()
						if n.Op != expr.OpSum || len(kids)+len(n.Kids)-1 > maxNaryWidth {
							continue
						}
						return m.With(addAll(g, expr.OpSum, nil, "", splice(g, kids, i, n.Kids)))
					}
				}
				return nil
			},
		}},
	})
}

func registerSumOfConcats(r *Registry) {
	// sum(concat(x00,x01,d), concat(x10,x11,d), …) =
	// concat(sum(x00,x10,…), sum(x01,x11,…), d) when the chunk extents
	// align pairwise. This is how per-rank partial shards combine.
	r.MustRegister(&Lemma{
		Name: "sum-of-concats", Kind: KindClean, Complexity: 4, LOC: 38,
		Rules: []*egraph.Rule{{
			Name: "sum-of-concats",
			LHS:  egraph.POpN(expr.OpSum, nil, "xs"),
			Apply: func(g *egraph.EGraph, m egraph.Match) []egraph.UnionPair {
				kids := m.Subst.KidsOf("xs")
				// Row i of chunks is kid i's concat: width chunks along dim,
				// the first kid's concat setting both.
				var dim sym.Expr
				var chunks []egraph.ClassID
				width := 0
				for i, k := range kids {
					found := false
					for it := g.NodesOf(k); it.Valid(); it.Next() {
						n := it.Node()
						if n.Op != expr.OpConcat {
							continue
						}
						if i == 0 {
							dim, width = n.Ints[0], len(n.Kids)
							chunks = g.ScratchClasses(len(kids) * width)
						} else if !n.Ints[0].Equal(dim) || len(n.Kids) != width {
							continue
						}
						copy(chunks[i*width:], n.Kids)
						found = true
						break
					}
					if !found {
						return nil
					}
				}
				d, ok := dimConst(dim)
				if !ok {
					return nil
				}
				ext0, _, ok := kidExtents(g, chunks[:width], d)
				if !ok {
					return nil
				}
				for i := 1; i < len(kids); i++ {
					exts, _, ok := kidExtents(g, chunks[i*width:(i+1)*width], d)
					if !ok || !pairwiseAligned(g.Ctx, ext0, exts) {
						return nil
					}
				}
				cols := g.ScratchClasses(width)
				col := g.ScratchClasses(len(kids))
				for j := range cols {
					for i := range col {
						col[i] = chunks[i*width+j]
					}
					cols[j] = addAll(g, expr.OpSum, nil, "", col)
				}
				return m.With(addAll(g, expr.OpConcat, exprs(g, dim), "", cols))
			},
		}},
	})
}

func registerConcatOfSlices(r *Registry) {
	// concat(x[b0:e0 @d], x[e0:e1 @d], …, d) collapses to a single
	// slice of x — and to x itself when the tiles cover it exactly.
	r.MustRegister(&Lemma{
		Name: "concat-of-slices", Kind: KindClean, Complexity: 3, LOC: 44,
		Rules: []*egraph.Rule{{
			Name: "concat-of-slices",
			LHS:  egraph.POpN(expr.OpConcat, []egraph.AttrPat{egraph.AVar("d")}, "xs"),
			Apply: func(g *egraph.EGraph, m egraph.Match) []egraph.UnionPair {
				d := m.Subst.AttrOf("d")
				kids := m.Subst.KidsOf("xs")
				var base egraph.ClassID
				var begin, end sym.Expr
				for i, k := range kids {
					matched := false
					for it := g.NodesOf(k); it.Valid(); it.Next() {
						n := it.Node()
						if n.Op != expr.OpSlice || !n.Ints[0].Equal(d) {
							continue
						}
						if i == 0 {
							base, begin, end = g.Find(n.Kids[0]), n.Ints[1], n.Ints[2]
							matched = true
							break
						}
						if g.Find(n.Kids[0]) == base && g.Ctx.ProveEQ(n.Ints[1], end) {
							end = n.Ints[2]
							matched = true
							break
						}
					}
					if !matched {
						return nil
					}
				}
				di, ok := dimConst(d)
				if !ok {
					return nil
				}
				pairs := m.With(addAll(g, expr.OpSlice, exprs(g, d, begin, end), "", classes(g, base)))
				if s, got := g.ShapeOf(base); got && di < len(s) &&
					g.Ctx.ProveEQ(begin, sym.Const(0)) && g.Ctx.ProveEQ(end, s[di]) {
					pairs = append(pairs, egraph.UnionPair{A: m.Class, B: base})
				}
				return pairs
			},
		}},
	})
}

func registerSliceJoin(r *Registry) {
	// The generative tiling lemma, in the paper's constrained form
	// (§4.3.2): when slice ENodes of x tile a target span exactly, the
	// concatenation of the tiles equals the target — where a target is
	// either x itself (span = full extent) or another slice ENode of x
	// that already exists. Restricting targets to existing ENodes
	// keeps the interval lattice linear in the number of real slices
	// instead of quadratic in all spans.
	r.MustRegister(&Lemma{
		Name: "slice-tiling", Kind: KindClean, Complexity: 3, LOC: 58,
		Rules: []*egraph.Rule{{
			Name: "slice-tiling",
			LHS:  egraph.PVar("x"),
			Apply: func(g *egraph.EGraph, m egraph.Match) []egraph.UnionPair {
				// Most classes this rule is offered have no slice consumer
				// at all, which the class's consumer bits answer without a
				// look at the parent list. (Asked here, not of the matcher:
				// slice-of-sum mints slices of a class earlier in this same
				// apply phase, and they count.) Of the rest most have no
				// constant-span slice parents: they are counted before any
				// scratch is taken.
				xc := g.Find(m.Class)
				if !g.ConsumedBy(xc, expr.OpSlice) {
					return nil
				}
				n := 0
				g.EachParent(xc, func(p *egraph.ENode, _ egraph.ClassID) bool {
					if _, ok := sliceTile(g, xc, p); ok {
						n++
					}
					return true
				})
				if n == 0 {
					return nil
				}
				tiles := g.ScratchTiles(n)[:0]
				g.EachParent(xc, func(p *egraph.ENode, owner egraph.ClassID) bool {
					if t, ok := sliceTile(g, xc, p); ok {
						t.Class = owner
						tiles = append(tiles, t)
					}
					return true
				})
				// Dimensions in ascending order, each one's slices by span:
				// which addAll runs first decides the class IDs minted.
				sortTiles(tiles)
				var out []egraph.UnionPair
				join := func(d int, path []egraph.ClassID, target egraph.ClassID) {
					if len(path) >= 2 {
						joined := addAll(g, expr.OpConcat, exprs(g, sym.Const(int64(d))), "", path)
						out = append(out, egraph.UnionPair{A: joined, B: target})
					}
				}
				for lo, hi := 0, 0; lo < len(tiles); lo = hi {
					d := tiles[lo].Dim
					for hi = lo + 1; hi < len(tiles) && tiles[hi].Dim == d; hi++ {
					}
					dim := tiles[lo:hi]
					// Targets: the base tensor's full extent, plus every
					// existing slice span.
					if s, got := g.ShapeOf(xc); got && d < len(s) {
						if ext, isC := s[d].IsConst(); isC {
							join(d, tilePath(g, dim, 0, ext, xc), xc)
						}
					}
					for _, t := range dim {
						join(d, tilePath(g, dim, t.Begin, t.End, t.Class), t.Class)
					}
				}
				return out
			},
		}},
	})
}

// sliceTile reads node p as a slice of class x with a constant span
// along a constant dimension, if it is one; the tile's Class is left
// for the caller.
func sliceTile(g *egraph.EGraph, x egraph.ClassID, p *egraph.ENode) (egraph.Tile, bool) {
	if p.Op != expr.OpSlice || len(p.Kids) != 1 || g.Find(p.Kids[0]) != x {
		return egraph.Tile{}, false
	}
	d, ok := dimConst(p.Ints[0])
	b, okB := p.Ints[1].IsConst()
	e, okE := p.Ints[2].IsConst()
	return egraph.Tile{Dim: d, Begin: b, End: e}, ok && okB && okE
}

// sortTiles orders tiles by (dim, begin, end) ascending, stably. A
// hand-rolled insertion sort: the lists are short and sort.Slice's
// reflection-based swapper was a measurable share of saturation
// allocations.
func sortTiles(s []egraph.Tile) {
	less := func(a, b egraph.Tile) bool {
		if a.Dim != b.Dim {
			return a.Dim < b.Dim
		}
		return a.Begin < b.Begin || a.Begin == b.Begin && a.End < b.End
	}
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// maxTilePath bounds the length of a tiling chain: the search gives up
// on a longer one.
const maxTilePath = 65

// tilePath finds tiles of one dimension that tile [b, e) exactly — a
// depth-first search over chains, each step taking the first tile (in
// sorted order) that starts where the chain ends and fits, backtracking
// over ties — and returns their classes in lemma scratch, or nil. The
// target's own class is excluded so a span never "tiles" itself.
func tilePath(g *egraph.EGraph, tiles []egraph.Tile, b, e int64, exclude egraph.ClassID) []egraph.ClassID {
	var chain [maxTilePath]int // chain[i]: the tile at step i of the chain being tried
	depth, cur, from := 0, b, 0
	for cur != e {
		i := len(tiles)
		if cur < e && depth < maxTilePath {
			for i = from; i < len(tiles); i++ {
				t := &tiles[i]
				if t.Begin == cur && t.End <= e &&
					!(t.Begin == b && t.End == e && g.Find(t.Class) == g.Find(exclude)) {
					break
				}
			}
		}
		if i < len(tiles) { // extend the chain
			chain[depth], depth, cur, from = i, depth+1, tiles[i].End, 0
			continue
		}
		if depth == 0 {
			return nil
		}
		depth-- // backtrack: try the step's next tile
		cur, from = tiles[chain[depth]].Begin, chain[depth]+1
	}
	path := g.ScratchClasses(depth)
	for i := range path {
		path[i] = tiles[chain[i]].Class
	}
	return path
}

func registerSliceOfConcat(r *Registry) {
	// The paper's Listing 4 conditioned lemma: slicing a concatenation
	// commutes — trivially on a different dimension, and by locating
	// the covered chunks on the same dimension.
	r.MustRegister(&Lemma{
		Name: "slice-concat-commutative", Kind: KindClean, Complexity: 4, LOC: 60,
		Rules: []*egraph.Rule{{
			Name: "slice-concat-commutative",
			LHS: egraph.POp(expr.OpSlice,
				[]egraph.AttrPat{egraph.AVar("d2"), egraph.AVar("b"), egraph.AVar("e")},
				egraph.POpN(expr.OpConcat, []egraph.AttrPat{egraph.AVar("d1")}, "xs")),
			Apply: func(g *egraph.EGraph, m egraph.Match) []egraph.UnionPair {
				d1 := m.Subst.AttrOf("d1")
				d2 := m.Subst.AttrOf("d2")
				b := m.Subst.AttrOf("b")
				e := m.Subst.AttrOf("e")
				kids := m.Subst.KidsOf("xs")
				if g.Ctx.ProveNE(d1, d2) {
					c := mapKids(g, expr.OpConcat, exprs(g, d1), "", kids,
						func(_ int, k egraph.ClassID) egraph.ClassID {
							return addAll(g, expr.OpSlice, exprs(g, d2, b, e), "", classes(g, k))
						})
					return m.With(c)
				}
				if !g.Ctx.ProveEQ(d1, d2) {
					return nil
				}
				di, ok := dimConst(d1)
				if !ok {
					return nil
				}
				exts, _, ok := kidExtents(g, kids, di)
				if !ok {
					return nil
				}
				offs := prefixOffsets(g, exts)
				// Single-chunk containment: off[i] ≤ b ∧ e ≤ off[i+1].
				for i := range kids {
					if g.Ctx.ProveLE(offs[i], b) && g.Ctx.ProveLE(e, offs[i+1]) {
						if g.Ctx.ProveEQ(b, offs[i]) && g.Ctx.ProveEQ(e, offs[i+1]) {
							return m.With(kids[i])
						}
						c := addAll(g, expr.OpSlice,
							exprs(g, d1, b.Sub(offs[i]), e.Sub(offs[i])), "", kids[i:i+1])
						return m.With(c)
					}
				}
				// Exact multi-chunk span: b = off[i], e = off[j].
				for i := 0; i < len(kids); i++ {
					if !g.Ctx.ProveEQ(b, offs[i]) {
						continue
					}
					for j := i + 2; j <= len(kids); j++ {
						if g.Ctx.ProveEQ(e, offs[j]) {
							return m.With(addAll(g, expr.OpConcat, exprs(g, d1), "", kids[i:j]))
						}
					}
				}
				return nil
			},
		}},
	})
}

func registerSliceOfSum(r *Registry) {
	// slice(sum(xs), d, b, e) = sum(slice(x_i, d, b, e)).
	r.MustRegister(&Lemma{
		Name: "slice-of-sum", Kind: KindClean, Complexity: 3, LOC: 18,
		dists: []dist{{op: expr.OpSlice, attrs: vars("d", "b", "e"), args: []arg{summed}, out: sum}},
	})
}

func registerSliceOfPad(r *Registry) {
	// Slicing back into the un-padded region inverts zero padding:
	// pad(x, d, bf, af)[b:e @d] = x[b-bf : e-bf @d] when bf ≤ b ∧
	// e ≤ bf+extent(x, d); equal to x when the range is exact. The
	// lemma behind §6.2's bug 3 (mismatched padding and slicing).
	r.MustRegister(&Lemma{
		Name: "pad-slice-inverse", Kind: KindClean, Complexity: 3, LOC: 34,
		Rules: []*egraph.Rule{{
			Name: "pad-slice-inverse",
			LHS: egraph.POp(expr.OpSlice,
				[]egraph.AttrPat{egraph.AVar("ds"), egraph.AVar("b"), egraph.AVar("e")},
				egraph.POp(expr.OpPad,
					[]egraph.AttrPat{egraph.AVar("dp"), egraph.AVar("bf"), egraph.AVar("af")},
					egraph.PVar("x"))),
			Apply: func(g *egraph.EGraph, m egraph.Match) []egraph.UnionPair {
				ds, dp := m.Subst.AttrOf("ds"), m.Subst.AttrOf("dp")
				if !g.Ctx.ProveEQ(ds, dp) {
					return nil
				}
				di, ok := dimConst(dp)
				if !ok {
					return nil
				}
				b, e, bf := m.Subst.AttrOf("b"), m.Subst.AttrOf("e"), m.Subst.AttrOf("bf")
				xc := m.Subst.ClassOf("x")
				s, got := g.ShapeOf(xc)
				if !got || di >= len(s) {
					return nil
				}
				hi := bf.Add(s[di])
				if !g.Ctx.ProveLE(bf, b) || !g.Ctx.ProveLE(e, hi) {
					return nil
				}
				if g.Ctx.ProveEQ(b, bf) && g.Ctx.ProveEQ(e, hi) {
					return m.With(xc)
				}
				c := addAll(g, expr.OpSlice, exprs(g, ds, b.Sub(bf), e.Sub(bf)), "", classes(g, xc))
				return m.With(c)
			},
		}},
	})
}

func registerTranspose(r *Registry) {
	r.MustRegister(&Lemma{
		Name: "transpose-dim-symmetry", Kind: KindClean, Complexity: 2, LOC: 12,
		Rules: []*egraph.Rule{{
			Name: "transpose-dim-symmetry",
			LHS:  egraph.POp(expr.OpTranspose, []egraph.AttrPat{egraph.AVar("a"), egraph.AVar("b")}, egraph.PVar("x")),
			Apply: func(g *egraph.EGraph, m egraph.Match) []egraph.UnionPair {
				a, b := m.Subst.AttrOf("a"), m.Subst.AttrOf("b")
				if a.Equal(b) {
					return m.With(m.Subst.ClassOf("x"))
				}
				c := addAll(g, expr.OpTranspose, exprs(g, b, a), "", classes(g, m.Subst.ClassOf("x")))
				return m.With(c)
			},
		}},
	})

	// transpose(concat(xs, d), a, b) = concat(transpose(x_i, a, b), σ(d))
	// where σ swaps a and b.
	r.MustRegister(&Lemma{
		Name: "transpose-concat-commutative", Kind: KindClean, Complexity: 4, LOC: 28,
		dists: []dist{{op: expr.OpTranspose, attrs: vars("a", "b"), args: []arg{alongD}, prep: swappedDim}},
	})
}
