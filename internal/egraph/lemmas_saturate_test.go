package egraph_test

import (
	"fmt"
	"strings"
	"testing"

	"entangle/internal/egraph"
	"entangle/internal/expr"
	"entangle/internal/lemmas"
	"entangle/internal/shape"
	"entangle/internal/sym"
)

// The lemma registry's rules on hand-built graphs, where what a rule
// needs to fire arrives at a moment the test chooses.

// tileExtent is the extent of every tensor below: [8, 8].
const tileExtent = 8

func tileLeaf(id int) *expr.Term { return expr.Tensor(id, fmt.Sprintf("t%d", id)) }

// tileGraph returns a graph on which every leaf but the listed ones has
// shape [8, 8].
func tileGraph(shapeless ...int) *egraph.EGraph {
	g := egraph.New(nil)
	g.SetLeafShapeFn(func(tid int) (shape.Shape, bool) {
		for _, id := range shapeless {
			if tid == id {
				return nil, false
			}
		}
		return shape.Shape{sym.Const(tileExtent), sym.Const(tileExtent)}, true
	})
	return g
}

// dumpClasses renders the class partition — class IDs, canonical nodes,
// consumers and consumer bits — for comparing two graphs' lives.
func dumpClasses(g *egraph.EGraph) string {
	var b strings.Builder
	for _, id := range g.Classes() {
		fmt.Fprintf(&b, "%d:", id)
		for _, n := range g.Nodes(id) {
			fmt.Fprintf(&b, " %s%v(", n.Op, n.Ints)
			if n.Op == expr.OpTensor {
				fmt.Fprintf(&b, "t%d", n.TID)
			}
			for _, k := range n.Kids {
				fmt.Fprintf(&b, "%d,", g.Find(k))
			}
			b.WriteByte(')')
		}
		// The consumers, through the node arena, and the consumer bits.
		b.WriteString(" <-")
		for _, p := range g.ParentsOf(id) {
			fmt.Fprintf(&b, " %s@%d", p.Node.Op, p.Class)
		}
		for _, op := range []expr.Op{expr.OpSlice, expr.OpConcat, expr.OpSum, expr.OpScale, expr.OpAdd, expr.OpUnary, expr.OpMatMul} {
			if g.ConsumedBy(id, op) {
				fmt.Fprintf(&b, " +%s", op)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestSliceTilingFiresWhenShapeArrives: f(t4) is cut into two tiles and
// concatenated back while t4 — and so f(t4) — has no shape; the tiles
// cover f(t4) exactly, but nothing can know that. Then t4 is unioned
// with t0, which has a shape: a class two levels below the tiles and
// three below the concat, and the next Saturate call must join the
// tiles back into f(t4).
func TestSliceTilingFiresWhenShapeArrives(t *testing.T) {
	rules := lemmas.Default().Rules()
	opts := egraph.SaturateOpts{MaxIters: 10, MaxNodes: 600}
	g := tileGraph(4)
	t0, t4 := g.AddTerm(tileLeaf(0)), g.AddTerm(tileLeaf(4))
	u := expr.Unary("f", tileLeaf(4))
	g.AddTerm(expr.ConcatI(0, expr.SliceI(u, 0, 0, 4), expr.SliceI(u, 0, 4, tileExtent)))
	if st := g.Saturate(rules, opts); st.Applications["slice-tiling"] != 0 {
		t.Fatalf("slice-tiling fired while f(t4) has no shape: %v", st.Applications)
	}
	g.Union(t4, t0)
	g.Rebuild()
	if st := g.Saturate(rules, opts); st.Applications["slice-tiling"] != 1 {
		t.Fatalf("slice-tiling must fire once f(t4) has its shape: %v", st.Applications)
	}
	g.Release()
}

// TestSliceTilingSeesSlicesMintedThisPhase is the reason slice-tiling
// asks the consumer bits in its Apply. Class x has no slice consumer
// when the match phase collects slice-tiling on it; slice-of-sum,
// applied to the lower-numbered classes earlier in the same apply
// phase, mints the two slices of x that tile it, and slice-tiling's
// application — in its turn, later in that phase — fires.
func TestSliceTilingSeesSlicesMintedThisPhase(t *testing.T) {
	g := tileGraph()
	sum := expr.Sum(tileLeaf(0), tileLeaf(1))
	g.AddTerm(expr.ConcatI(0, expr.SliceI(sum, 0, 0, 4), expr.SliceI(sum, 0, 4, tileExtent)))
	// x = t0 = t9: the merged class takes t9's ID, above the slices'.
	x := g.AddTerm(tileLeaf(9))
	g.Union(x, g.AddTerm(tileLeaf(0)))
	g.Rebuild()
	if g.Find(x) != x || g.ConsumedBy(x, expr.OpSlice) {
		t.Fatalf("setup: x is class %d (want %d), slice consumer %t (want none yet)", g.Find(x), x, g.ConsumedBy(x, expr.OpSlice))
	}
	st := g.Saturate(lemmas.Default().Rules(), egraph.SaturateOpts{MaxIters: 1})
	if st.Applications["slice-of-sum"] == 0 || st.Applications["slice-tiling"] == 0 {
		t.Errorf("slice-of-sum and slice-tiling must both fire in the first iteration: %v", st.Applications)
	}
	if !g.ConsumedBy(x, expr.OpSlice) {
		t.Error("x has slice consumers now, but its consumer bit is clear")
	}
	g.Release()
}
