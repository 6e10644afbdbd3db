package egraph

import (
	"testing"

	"entangle/internal/expr"
	"entangle/internal/shape"
	"entangle/internal/sym"
)

func shapedGraph(shapes map[int]shape.Shape) *EGraph {
	g := New(nil)
	g.SetLeafShapeFn(func(tid int) (shape.Shape, bool) {
		s, ok := shapes[tid]
		return s, ok
	})
	return g
}

func TestShapeOfLeafAndDerived(t *testing.T) {
	g := shapedGraph(map[int]shape.Shape{1: shape.Of(4, 8), 2: shape.Of(8, 3)})
	mm := g.AddTerm(expr.MatMul(leafT(1, "A"), leafT(2, "B")))
	s, ok := g.ShapeOf(mm)
	if !ok || !s.Equal(shape.Of(4, 3), sym.NewContext()) {
		t.Fatalf("matmul shape %v ok=%v", s, ok)
	}
	cc := g.AddTerm(expr.ConcatI(0, leafT(1, "A"), leafT(1, "A")))
	s, ok = g.ShapeOf(cc)
	if !ok || !s.Equal(shape.Of(8, 8), sym.NewContext()) {
		t.Fatalf("concat shape %v ok=%v", s, ok)
	}
}

func TestShapeOfUnknownLeaf(t *testing.T) {
	g := shapedGraph(map[int]shape.Shape{})
	c := g.AddTerm(expr.Unary("f", leafT(9, "X")))
	if _, ok := g.ShapeOf(c); ok {
		t.Fatal("unknown leaf must yield unknown shape")
	}
}

func TestShapeOfThroughUnionAndCycle(t *testing.T) {
	// After union(x, identity(x)) the class contains a self-loop; the
	// analysis must still derive the shape from the leaf member.
	g := shapedGraph(map[int]shape.Shape{1: shape.Of(5)})
	x := g.AddTerm(leafT(1, "X"))
	idx := g.AddTerm(expr.New(expr.OpIdentity, nil, "", leafT(1, "X")))
	g.Union(x, idx)
	g.Rebuild()
	s, ok := g.ShapeOf(x)
	if !ok || !s.Equal(shape.Of(5), sym.NewContext()) {
		t.Fatalf("shape via self-loop %v ok=%v", s, ok)
	}
}

func TestShapeMemoSurvivesUnions(t *testing.T) {
	g := shapedGraph(map[int]shape.Shape{1: shape.Of(4), 2: shape.Of(4)})
	a := g.AddTerm(leafT(1, "A"))
	if _, ok := g.ShapeOf(a); !ok {
		t.Fatal("shape of A")
	}
	b := g.AddTerm(leafT(2, "B"))
	g.Union(a, b)
	g.Rebuild()
	s, ok := g.ShapeOf(b)
	if !ok || !s.Equal(shape.Of(4), sym.NewContext()) {
		t.Fatalf("post-union shape %v ok=%v", s, ok)
	}
}

func TestRankOf(t *testing.T) {
	g := shapedGraph(map[int]shape.Shape{1: shape.Of(2, 3, 4)})
	c := g.AddTerm(leafT(1, "X"))
	if r, ok := g.RankOf(c); !ok || r != 3 {
		t.Fatalf("rank %d ok=%v", r, ok)
	}
}

func TestParentsOf(t *testing.T) {
	g := New(nil)
	x := g.AddTerm(leafT(1, "X"))
	s1 := g.AddTerm(expr.SliceI(leafT(1, "X"), 0, 0, 2))
	s2 := g.AddTerm(expr.SliceI(leafT(1, "X"), 0, 2, 4))
	parents := g.ParentsOf(x)
	if len(parents) != 2 {
		t.Fatalf("want 2 parents, got %d", len(parents))
	}
	seen := map[ClassID]bool{}
	for _, p := range parents {
		if p.Node.Op != expr.OpSlice {
			t.Fatalf("parent op %s", p.Node.Op)
		}
		seen[g.Find(p.Class)] = true
	}
	if !seen[g.Find(s1)] || !seen[g.Find(s2)] {
		t.Fatal("parent classes wrong")
	}
}

func TestExtractAllCleanLimit(t *testing.T) {
	g := New(nil)
	c := g.AddTerm(leafT(100, "A"))
	for i := 101; i < 110; i++ {
		g.Union(c, g.AddTerm(leafT(i, "")))
	}
	g.Rebuild()
	all := g.CleanCosts(func(int) bool { return true }).ExtractAll(c, 3)
	if len(all) != 3 {
		t.Fatalf("limit not honored: %d", len(all))
	}
}

// simplestClean is the first, and so the simplest, of class c's clean
// expressions over the allowed leaves.
func simplestClean(g *EGraph, c ClassID, allowed func(tid int) bool) (*expr.Term, bool) {
	all := g.CleanCosts(allowed).ExtractAll(c, 1)
	if len(all) == 0 {
		return nil, false
	}
	return all[0], true
}

func TestExtractCleanRejectsForbiddenLeaf(t *testing.T) {
	g := New(nil)
	c := g.AddTerm(expr.Sum(leafT(1, "A"), leafT(2, "B")))
	got, ok := simplestClean(g, c, func(tid int) bool { return tid == 1 })
	if ok {
		t.Fatalf("sum needs both leaves; got %v", got)
	}
}

func TestExtractCleanThroughNestedStructure(t *testing.T) {
	g := New(nil)
	// class = concat(slice(A), sum(B, C)) — all clean.
	term := expr.ConcatI(0,
		expr.SliceI(leafT(1, "A"), 0, 0, 2),
		expr.Sum(leafT(2, "B"), leafT(3, "C")))
	c := g.AddTerm(term)
	got, ok := simplestClean(g, c, func(int) bool { return true })
	if !ok || !got.Equal(term) {
		t.Fatalf("extract %v ok=%v", got, ok)
	}
	if got.Size() != 3 {
		t.Fatalf("size %d", got.Size())
	}
}

func TestLookupAfterUnions(t *testing.T) {
	g := New(nil)
	a := g.AddTerm(leafT(1, "A"))
	b := g.AddTerm(leafT(2, "B"))
	fa := g.AddTerm(expr.Unary("f", leafT(1, "A")))
	g.Union(a, b)
	g.Rebuild()
	// f(B) should now be found via congruence with f(A).
	cls, ok := g.Lookup(&ENode{Op: expr.OpUnary, Str: "f", Kids: []ClassID{b}})
	if !ok || g.Find(cls) != g.Find(fa) {
		t.Fatal("lookup through union failed")
	}
}
