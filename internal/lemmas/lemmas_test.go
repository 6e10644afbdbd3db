package lemmas

import (
	"sync"
	"testing"

	"entangle/internal/egraph"
	"entangle/internal/expr"
	"entangle/internal/shape"
	"entangle/internal/sym"
)

// testGraph builds an e-graph with leaf shapes: tensor IDs map to
// shapes via the provided table.
func testGraph(shapes map[int]shape.Shape) *egraph.EGraph {
	g := egraph.New(nil)
	g.SetLeafShapeFn(func(tid int) (shape.Shape, bool) {
		s, ok := shapes[tid]
		return s, ok
	})
	return g
}

func saturate(g *egraph.EGraph, r *Registry) egraph.Stats {
	return g.Saturate(r.Rules(), egraph.SaturateOpts{})
}

func leafE(id int, name string) *expr.Term { return expr.Tensor(id, name) }

func TestRegistrySanity(t *testing.T) {
	r := Default()
	if r.Len() != 36 || len(r.Rules()) != 37 {
		t.Fatalf("the library registers %d lemmas and %d rules, want 36 and 37", r.Len(), len(r.Rules()))
	}
	kinds := map[Kind]int{}
	for i, l := range r.All() {
		if l.ID != i {
			t.Fatalf("lemma %q has ID %d at position %d", l.Name, l.ID, i)
		}
		if l.Complexity <= 0 || l.LOC <= 0 {
			t.Fatalf("lemma %q missing metadata", l.Name)
		}
		if len(l.Rules) == 0 {
			t.Fatalf("lemma %q has no rules", l.Name)
		}
		kinds[l.Kind]++
	}
	for _, k := range []Kind{KindClean, KindGeneral, KindVLLM} {
		if kinds[k] == 0 {
			t.Fatalf("no lemmas of kind %c", k)
		}
	}
	if _, ok := r.ByName("matmul-row-parallel"); !ok {
		t.Fatal("lookup by name failed")
	}
}

func TestLemmaCountsFold(t *testing.T) {
	r := Default()
	l, _ := r.ByName("mul-broadcast-concat")
	apps := map[string]int{
		"mul-broadcast-concat/lhs": 2,
		"mul-broadcast-concat/rhs": 3,
		"not-a-rule":               7,
	}
	counts := r.LemmaCounts(apps)
	if counts[l.ID] != 5 {
		t.Fatalf("rule variants should fold into one lemma: %v", counts)
	}
	used := r.UsedLemmas(apps)
	if len(used) != 1 || used[0].ID != l.ID {
		t.Fatalf("used lemmas %v", used)
	}
}

// equalClasses asserts two expressions landed in one class after
// saturation.
func wantEqual(t *testing.T, g *egraph.EGraph, a, b *expr.Term, msg string) {
	t.Helper()
	ca := g.AddTerm(a)
	cb := g.AddTerm(b)
	if g.Find(ca) != g.Find(cb) {
		t.Fatalf("%s: %s and %s are not equal after saturation", msg, a, b)
	}
}

func wantNotEqual(t *testing.T, g *egraph.EGraph, a, b *expr.Term, msg string) {
	t.Helper()
	ca := g.AddTerm(a)
	cb := g.AddTerm(b)
	if g.Find(ca) == g.Find(cb) {
		t.Fatalf("%s: %s and %s must stay distinct", msg, a, b)
	}
}

func TestMatMulColParallel(t *testing.T) {
	r := Default()
	g := testGraph(map[int]shape.Shape{
		1: shape.Of(4, 8), // X
		2: shape.Of(8, 3), // W1
		3: shape.Of(8, 5), // W2
	})
	x, w1, w2 := leafE(1, "X"), leafE(2, "W1"), leafE(3, "W2")
	lhs := expr.MatMul(x, expr.ConcatI(1, w1, w2))
	g.AddTerm(lhs)
	saturate(g, r)
	wantEqual(t, g, lhs, expr.ConcatI(1, expr.MatMul(x, w1), expr.MatMul(x, w2)), "mm-col")
}

func TestMatMulRowParallel(t *testing.T) {
	r := Default()
	g := testGraph(map[int]shape.Shape{
		1: shape.Of(4, 8), 2: shape.Of(4, 8), // X1, X2
		3: shape.Of(8, 5), 4: shape.Of(8, 5), // W1, W2
	})
	x1, x2, w1, w2 := leafE(1, "X1"), leafE(2, "X2"), leafE(3, "W1"), leafE(4, "W2")
	lhs := expr.MatMul(expr.ConcatI(1, x1, x2), expr.ConcatI(0, w1, w2))
	g.AddTerm(lhs)
	saturate(g, r)
	wantEqual(t, g, lhs, expr.Sum(expr.MatMul(x1, w1), expr.MatMul(x2, w2)), "mm-row")
}

func TestMatMulRowParallelRejectsMisalignment(t *testing.T) {
	// Bug-4 flavour: inner extents 8+8 vs 10+6 — the blocks do not
	// align, so the lemma must not fire.
	r := Default()
	g := testGraph(map[int]shape.Shape{
		1: shape.Of(4, 8), 2: shape.Of(4, 8),
		3: shape.Of(10, 5), 4: shape.Of(6, 5),
	})
	x1, x2, w1, w2 := leafE(1, "X1"), leafE(2, "X2"), leafE(3, "W1"), leafE(4, "W2")
	lhs := expr.MatMul(expr.ConcatI(1, x1, x2), expr.ConcatI(0, w1, w2))
	g.AddTerm(lhs)
	saturate(g, r)
	wantNotEqual(t, g, lhs, expr.Sum(expr.MatMul(x1, w1), expr.MatMul(x2, w2)), "mm-row misaligned")
}

func TestMatMulSeqSplitLHS(t *testing.T) {
	r := Default()
	g := testGraph(map[int]shape.Shape{
		1: shape.Of(2, 8), 2: shape.Of(2, 8), // X1, X2 seq shards
		3: shape.Of(8, 5), // W
	})
	x1, x2, w := leafE(1, "X1"), leafE(2, "X2"), leafE(3, "W")
	lhs := expr.MatMul(expr.ConcatI(0, x1, x2), w)
	g.AddTerm(lhs)
	saturate(g, r)
	wantEqual(t, g, lhs, expr.ConcatI(0, expr.MatMul(x1, w), expr.MatMul(x2, w)), "mm-seq")
}

func TestElementwiseConcatAligned(t *testing.T) {
	r := Default()
	g := testGraph(map[int]shape.Shape{
		1: shape.Of(2, 4), 2: shape.Of(3, 4),
		3: shape.Of(2, 4), 4: shape.Of(3, 4),
	})
	a1, a2, b1, b2 := leafE(1, "A1"), leafE(2, "A2"), leafE(3, "B1"), leafE(4, "B2")
	lhs := expr.Mul(expr.ConcatI(0, a1, a2), expr.ConcatI(0, b1, b2))
	g.AddTerm(lhs)
	saturate(g, r)
	wantEqual(t, g, lhs, expr.ConcatI(0, expr.Mul(a1, b1), expr.Mul(a2, b2)), "mul-concat")
}

func TestElementwiseConcatMisaligned(t *testing.T) {
	r := Default()
	g := testGraph(map[int]shape.Shape{
		1: shape.Of(2, 4), 2: shape.Of(3, 4),
		3: shape.Of(3, 4), 4: shape.Of(2, 4), // swapped chunk sizes
	})
	a1, a2, b1, b2 := leafE(1, "A1"), leafE(2, "A2"), leafE(3, "B1"), leafE(4, "B2")
	lhs := expr.Mul(expr.ConcatI(0, a1, a2), expr.ConcatI(0, b1, b2))
	g.AddTerm(lhs)
	saturate(g, r)
	wantNotEqual(t, g, lhs, expr.ConcatI(0, expr.Mul(a1, b1), expr.Mul(a2, b2)), "mul-concat misaligned")
}

func TestSoftmaxConcat(t *testing.T) {
	r := Default()
	g := testGraph(map[int]shape.Shape{1: shape.Of(2, 4), 2: shape.Of(3, 4)})
	x1, x2 := leafE(1, "X1"), leafE(2, "X2")
	good := expr.Softmax(expr.ConcatI(0, x1, x2), sym.Const(1))
	bad := expr.Softmax(expr.ConcatI(0, x1, x2), sym.Const(0))
	g.AddTerm(good)
	g.AddTerm(bad)
	saturate(g, r)
	wantEqual(t, g, good,
		expr.ConcatI(0, expr.Softmax(x1, sym.Const(1)), expr.Softmax(x2, sym.Const(1))), "softmax-concat")
	wantNotEqual(t, g, bad,
		expr.ConcatI(0, expr.Softmax(x1, sym.Const(0)), expr.Softmax(x2, sym.Const(0))), "softmax same-dim")
}

func TestRMSNormConcat(t *testing.T) {
	r := Default()
	g := testGraph(map[int]shape.Shape{
		1: shape.Of(2, 8), 2: shape.Of(2, 8), 3: shape.Of(8),
	})
	x1, x2, w := leafE(1, "X1"), leafE(2, "X2"), leafE(3, "W")
	lhs := expr.RMSNorm(expr.ConcatI(0, x1, x2), w)
	g.AddTerm(lhs)
	saturate(g, r)
	wantEqual(t, g, lhs, expr.ConcatI(0, expr.RMSNorm(x1, w), expr.RMSNorm(x2, w)), "rmsnorm-concat")
}

func TestRMSNormHiddenSplitRejected(t *testing.T) {
	// Normalizing over the last dim: splitting that dim is NOT valid.
	r := Default()
	g := testGraph(map[int]shape.Shape{
		1: shape.Of(2, 4), 2: shape.Of(2, 4), 3: shape.Of(8),
	})
	x1, x2, w := leafE(1, "X1"), leafE(2, "X2"), leafE(3, "W")
	lhs := expr.RMSNorm(expr.ConcatI(1, x1, x2), w)
	g.AddTerm(lhs)
	saturate(g, r)
	w1 := expr.SliceI(w, 0, 0, 4)
	w2 := expr.SliceI(w, 0, 4, 8)
	wantNotEqual(t, g, lhs, expr.ConcatI(1, expr.RMSNorm(x1, w1), expr.RMSNorm(x2, w2)), "rmsnorm hidden split")
}

func TestSliceTilingRoundTrip(t *testing.T) {
	// concat(x[0:2], x[2:5]) collapses to x; and when the two slices
	// exist, slice-join derives x = concat of them generatively.
	r := Default()
	g := testGraph(map[int]shape.Shape{1: shape.Of(5, 3)})
	x := leafE(1, "X")
	s1 := expr.SliceI(x, 0, 0, 2)
	s2 := expr.SliceI(x, 0, 2, 5)
	g.AddTerm(s1)
	g.AddTerm(s2)
	saturate(g, r)
	wantEqual(t, g, expr.ConcatI(0, s1, s2), x, "slice tiling")
}

func TestSliceTilingPartialNotFull(t *testing.T) {
	// Partial covers only collapse onto slice ENodes that already
	// exist — the constrained-lemma discipline of §4.3.2 ("we require
	// that the target expression … already appear as ENodes").
	r := Default()
	g := testGraph(map[int]shape.Shape{1: shape.Of(5, 3)})
	x := leafE(1, "X")
	s1 := expr.SliceI(x, 0, 0, 2)
	s2 := expr.SliceI(x, 0, 2, 4) // stops short of 5
	wide := expr.SliceI(x, 0, 0, 4)
	g.AddTerm(s1)
	g.AddTerm(s2)
	g.AddTerm(wide) // the target exists → the lemma may fire
	saturate(g, r)
	wantEqual(t, g, expr.ConcatI(0, s1, s2), wide, "partial join onto existing target")
	wantNotEqual(t, g, expr.ConcatI(0, s1, s2), x, "partial must not equal x")
}

func TestSliceTilingNoInventedSpans(t *testing.T) {
	// Without an existing [0:4) slice node, the constrained lemma must
	// NOT invent one.
	r := Default()
	g := testGraph(map[int]shape.Shape{1: shape.Of(5, 3)})
	x := leafE(1, "X")
	g.AddTerm(expr.SliceI(x, 0, 0, 2))
	g.AddTerm(expr.SliceI(x, 0, 2, 4))
	saturate(g, r)
	// Adding the [0:4) slice must grow the graph: it was not there.
	nodes := g.NodeCount()
	g.AddTerm(expr.SliceI(x, 0, 0, 4))
	if g.NodeCount() == nodes {
		t.Fatal("constrained tiling must not mint absent slice spans")
	}
}

func TestSliceOfConcatSameDim(t *testing.T) {
	r := Default()
	g := testGraph(map[int]shape.Shape{1: shape.Of(2, 3), 2: shape.Of(4, 3)})
	x1, x2 := leafE(1, "X1"), leafE(2, "X2")
	cc := expr.ConcatI(0, x1, x2)
	// exactly the second chunk
	lhs := expr.SliceI(cc, 0, 2, 6)
	g.AddTerm(lhs)
	// inside the second chunk
	lhs2 := expr.SliceI(cc, 0, 3, 5)
	g.AddTerm(lhs2)
	saturate(g, r)
	wantEqual(t, g, lhs, x2, "slice=chunk")
	wantEqual(t, g, lhs2, expr.SliceI(x2, 0, 1, 3), "slice inside chunk")
}

func TestPadSliceInverse(t *testing.T) {
	r := Default()
	g := testGraph(map[int]shape.Shape{1: shape.Of(5, 3)})
	x := leafE(1, "X")
	padded := expr.Pad(x, sym.Const(0), sym.Const(2), sym.Const(1)) // [2+5+1, 3]
	exact := expr.SliceI(padded, 0, 2, 7)
	inner := expr.SliceI(padded, 0, 3, 6)
	wrong := expr.SliceI(padded, 0, 1, 6) // includes padding
	g.AddTerm(exact)
	g.AddTerm(inner)
	g.AddTerm(wrong)
	saturate(g, r)
	wantEqual(t, g, exact, x, "pad-slice exact")
	wantEqual(t, g, inner, expr.SliceI(x, 0, 1, 4), "pad-slice inner")
	wantNotEqual(t, g, wrong, expr.SliceI(x, 0, 0, 4), "pad-slice overlapping padding")
}

func TestSumOfEqualScales(t *testing.T) {
	r := Default()
	g := testGraph(map[int]shape.Shape{1: shape.Of(4), 2: shape.Of(4)})
	x, y := leafE(1, "X"), leafE(2, "Y")
	// a common factor floats out of a sum
	lhs := expr.Sum(expr.Scale(x, 1, 2), expr.Scale(y, 1, 2))
	g.AddTerm(lhs)
	saturate(g, r)
	wantEqual(t, g, lhs, expr.Scale(expr.Sum(x, y), 1, 2), "sum of equal scales")
	wantNotEqual(t, g, lhs, expr.Sum(x, y), "the factor must not vanish")
	// unequal factors do not
	mixed := expr.Sum(expr.Scale(x, 1, 2), expr.Scale(y, 1, 4))
	g.AddTerm(mixed)
	saturate(g, r)
	wantNotEqual(t, g, mixed, expr.Scale(expr.Sum(x, y), 1, 2), "unequal factors")
	// a sum of raw replicas is not x
	raw := expr.Sum(x, x)
	g.AddTerm(raw)
	saturate(g, r)
	wantNotEqual(t, g, raw, x, "unscaled replica sum must differ from x")
}

func TestSumOfConcats(t *testing.T) {
	r := Default()
	g := testGraph(map[int]shape.Shape{
		1: shape.Of(2, 3), 2: shape.Of(4, 3),
		3: shape.Of(2, 3), 4: shape.Of(4, 3),
	})
	a1, a2, b1, b2 := leafE(1, "A1"), leafE(2, "A2"), leafE(3, "B1"), leafE(4, "B2")
	lhs := expr.Sum(expr.ConcatI(0, a1, a2), expr.ConcatI(0, b1, b2))
	g.AddTerm(lhs)
	saturate(g, r)
	wantEqual(t, g, lhs, expr.ConcatI(0, expr.Sum(a1, b1), expr.Sum(a2, b2)), "sum-of-concats")
}

func TestEmbeddingLemmas(t *testing.T) {
	r := Default()
	g := testGraph(map[int]shape.Shape{
		1: shape.Of(10, 8), 2: shape.Of(10, 8), // vocab shards
		3: shape.Of(4), // ids
	})
	w1, w2, ids := leafE(1, "W1"), leafE(2, "W2"), leafE(3, "ids")
	vp := expr.New(expr.OpEmbedding, nil, "", expr.ConcatI(0, w1, w2), ids)
	g.AddTerm(vp)
	saturate(g, r)
	want := expr.Sum(
		expr.New(expr.OpEmbeddingShard, []sym.Expr{sym.Const(0)}, "", w1, ids),
		expr.New(expr.OpEmbeddingShard, []sym.Expr{sym.Const(10)}, "", w2, ids))
	wantEqual(t, g, vp, want, "embedding vocab-parallel")
}

func TestRoPESeqSplit(t *testing.T) {
	r := Default()
	g := testGraph(map[int]shape.Shape{
		1: shape.Of(2, 8), 2: shape.Of(2, 8), // x shards
		3: shape.Of(4, 8), 4: shape.Of(4, 8), // cos, sin (full)
	})
	x1, x2, cos, sin := leafE(1, "X1"), leafE(2, "X2"), leafE(3, "cos"), leafE(4, "sin")
	lhs := expr.RoPE(expr.ConcatI(0, x1, x2), cos, sin)
	g.AddTerm(lhs)
	saturate(g, r)
	want := expr.ConcatI(0,
		expr.RoPE(x1, expr.SliceI(cos, 0, 0, 2), expr.SliceI(sin, 0, 0, 2)),
		expr.RoPE(x2, expr.SliceI(cos, 0, 2, 4), expr.SliceI(sin, 0, 2, 4)))
	wantEqual(t, g, lhs, want, "rope seq split")
	// Wrong offsets (bug 1): slices [0:2] for the second shard.
	wrong := expr.ConcatI(0,
		expr.RoPE(x1, expr.SliceI(cos, 0, 0, 2), expr.SliceI(sin, 0, 0, 2)),
		expr.RoPE(x2, expr.SliceI(cos, 0, 0, 2), expr.SliceI(sin, 0, 0, 2)))
	wantNotEqual(t, g, lhs, wrong, "rope wrong offsets")
}

func TestAttentionHeadParallel(t *testing.T) {
	r := Default()
	g := testGraph(map[int]shape.Shape{
		1: shape.Of(4, 8), 2: shape.Of(4, 8), // q shards
		3: shape.Of(4, 8), 4: shape.Of(4, 8), // k shards
		5: shape.Of(4, 8), 6: shape.Of(4, 8), // v shards
	})
	q1, q2 := leafE(1, "Q1"), leafE(2, "Q2")
	k1, k2 := leafE(3, "K1"), leafE(4, "K2")
	v1, v2 := leafE(5, "V1"), leafE(6, "V2")
	h4 := []sym.Expr{sym.Const(4)}
	h2 := []sym.Expr{sym.Const(2)}
	lhs := expr.New(expr.OpAttention, h4, "",
		expr.ConcatI(1, q1, q2), expr.ConcatI(1, k1, k2), expr.ConcatI(1, v1, v2))
	g.AddTerm(lhs)
	saturate(g, r)
	want := expr.ConcatI(1,
		expr.New(expr.OpAttention, h2, "", q1, k1, v1),
		expr.New(expr.OpAttention, h2, "", q2, k2, v2))
	wantEqual(t, g, lhs, want, "attention head parallel")
}

func TestFusedLemmas(t *testing.T) {
	r := Default()
	g := testGraph(map[int]shape.Shape{
		1: shape.Of(4, 2), 2: shape.Of(4, 6), 3: shape.Of(4, 2), 4: shape.Of(4, 6),
	})
	g1, g2, u1, u2 := leafE(1, "G1"), leafE(2, "G2"), leafE(3, "U1"), leafE(4, "U2")
	fsm := func(gate, up *expr.Term) *expr.Term { return expr.New(expr.OpFusedSiluMul, nil, "", gate, up) }
	lhs := fsm(expr.ConcatI(1, g1, g2), expr.ConcatI(1, u1, u2))
	g.AddTerm(lhs)
	saturate(g, r)
	wantEqual(t, g, lhs, expr.ConcatI(1, fsm(g1, u1), fsm(g2, u2)), "fused silu-mul over hidden shards")
}

func TestMSELemmas(t *testing.T) {
	r := Default()
	g := testGraph(map[int]shape.Shape{
		1: shape.Of(2, 3), 2: shape.Of(2, 3),
		3: shape.Of(2, 3), 4: shape.Of(2, 3),
	})
	x1, x2, t1, t2 := leafE(1, "X1"), leafE(2, "X2"), leafE(3, "T1"), leafE(4, "T2")
	full := expr.New(expr.OpMSELoss, nil, "", expr.ConcatI(0, x1, x2), expr.ConcatI(0, t1, t2))
	g.AddTerm(full)
	saturate(g, r)
	scaled := expr.Scale(expr.Sum(
		expr.New(expr.OpMSELoss, nil, "", x1, t1),
		expr.New(expr.OpMSELoss, nil, "", x2, t2)), 1, 2)
	wantEqual(t, g, full, scaled, "mse batch split")
	// unscaled accumulation is NOT the full loss
	unscaled := expr.Sum(
		expr.New(expr.OpMSELoss, nil, "", x1, t1),
		expr.New(expr.OpMSELoss, nil, "", x2, t2))
	wantNotEqual(t, g, full, unscaled, "unscaled grad accumulation")
}

func TestAuxLossTokenSplit(t *testing.T) {
	r := Default()
	g := testGraph(map[int]shape.Shape{1: shape.Of(2, 4), 2: shape.Of(2, 4)})
	p1, p2 := leafE(1, "P1"), leafE(2, "P2")
	lhs := expr.New(expr.OpAuxLoss, nil, "", expr.ConcatI(0, p1, p2))
	g.AddTerm(lhs)
	saturate(g, r)
	want := expr.Scale(expr.Sum(
		expr.New(expr.OpAuxLoss, nil, "", p1),
		expr.New(expr.OpAuxLoss, nil, "", p2)), 1, 2)
	wantEqual(t, g, lhs, want, "auxloss token split")
}

func TestLayerNormConcat(t *testing.T) {
	r := Default()
	g := testGraph(map[int]shape.Shape{
		1: shape.Of(2, 8), 2: shape.Of(2, 8), 3: shape.Of(8), 4: shape.Of(8),
	})
	x1, x2, w, b := leafE(1, "X1"), leafE(2, "X2"), leafE(3, "W"), leafE(4, "B")
	lhs := expr.LayerNorm(expr.ConcatI(0, x1, x2), w, b)
	g.AddTerm(lhs)
	saturate(g, r)
	wantEqual(t, g, lhs, expr.ConcatI(0, expr.LayerNorm(x1, w, b), expr.LayerNorm(x2, w, b)), "layernorm concat")
}

func TestTransposeLemmas(t *testing.T) {
	r := Default()
	g := testGraph(map[int]shape.Shape{1: shape.Of(2, 3), 2: shape.Of(4, 3)})
	x1, x2 := leafE(1, "X1"), leafE(2, "X2")
	z, o := sym.Const(0), sym.Const(1)
	lhs := expr.Transpose(expr.ConcatI(0, x1, x2), z, o)
	g.AddTerm(lhs)
	saturate(g, r)
	wantEqual(t, g, lhs, expr.ConcatI(1, expr.Transpose(x1, z, o), expr.Transpose(x2, z, o)), "transpose concat")
}

func TestThreeWayParallelism(t *testing.T) {
	// The n-ary machinery must handle degree 3, not just 2.
	r := Default()
	g := testGraph(map[int]shape.Shape{
		1: shape.Of(4, 8), 2: shape.Of(4, 8), 3: shape.Of(4, 8),
		4: shape.Of(8, 5), 5: shape.Of(8, 5), 6: shape.Of(8, 5),
	})
	xs := []*expr.Term{leafE(1, "X1"), leafE(2, "X2"), leafE(3, "X3")}
	ws := []*expr.Term{leafE(4, "W1"), leafE(5, "W2"), leafE(6, "W3")}
	lhs := expr.MatMul(expr.ConcatI(1, xs...), expr.ConcatI(0, ws...))
	g.AddTerm(lhs)
	saturate(g, r)
	want := expr.Sum(expr.MatMul(xs[0], ws[0]), expr.MatMul(xs[1], ws[1]), expr.MatMul(xs[2], ws[2]))
	wantEqual(t, g, lhs, want, "3-way row parallel")
}

// TestRulesCached checks the flattened-rule cache: repeated calls
// share one slice, concurrent calls are race-free, and Register
// invalidates.
func TestRulesCached(t *testing.T) {
	r := Default()
	first := r.Rules()
	if len(first) == 0 {
		t.Fatal("no rules")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs := r.Rules()
			if &rs[0] != &first[0] || len(rs) != len(first) {
				t.Error("Rules() did not return the cached slice")
			}
		}()
	}
	wg.Wait()

	r.MustRegister(&Lemma{Name: "test/extra", Kind: KindGeneral, Complexity: 1, LOC: 1,
		Rules: []*egraph.Rule{{Name: "test/extra/rule", LHS: egraph.PVar("x"),
			Apply: func(g *egraph.EGraph, m egraph.Match) []egraph.UnionPair { return nil }}}})
	after := r.Rules()
	if len(after) != len(first)+1 {
		t.Fatalf("Register did not invalidate the cache: %d vs %d rules", len(after), len(first))
	}
}
