package egraph

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"entangle/internal/expr"
	"entangle/internal/sym"
)

func leafT(id int, name string) *expr.Term { return expr.Tensor(id, name) }

func TestHashConsing(t *testing.T) {
	g := New(nil)
	a1 := g.AddTerm(leafT(1, "A"))
	a2 := g.AddTerm(leafT(1, "A"))
	if a1 != a2 {
		t.Fatal("identical leaves must share a class")
	}
	m1 := g.AddTerm(expr.MatMul(leafT(1, "A"), leafT(2, "B")))
	m2 := g.AddTerm(expr.MatMul(leafT(1, "A"), leafT(2, "B")))
	if m1 != m2 {
		t.Fatal("identical terms must share a class")
	}
	m3 := g.AddTerm(expr.MatMul(leafT(2, "B"), leafT(1, "A")))
	if g.Find(m1) == g.Find(m3) {
		t.Fatal("matmul(A,B) and matmul(B,A) must differ")
	}
}

func TestUnionFind(t *testing.T) {
	g := New(nil)
	a := g.AddTerm(leafT(1, "A"))
	b := g.AddTerm(leafT(2, "B"))
	c := g.AddTerm(leafT(3, "C"))
	if !g.Union(a, b) {
		t.Fatal("first union should change")
	}
	if g.Union(a, b) {
		t.Fatal("repeated union should be a no-op")
	}
	g.Union(b, c)
	g.Rebuild()
	if g.Find(a) != g.Find(c) {
		t.Fatal("transitivity broken")
	}
}

func TestCongruenceClosure(t *testing.T) {
	g := New(nil)
	a := g.AddTerm(leafT(1, "A"))
	b := g.AddTerm(leafT(2, "B"))
	fa := g.AddTerm(expr.Unary("gelu", leafT(1, "A")))
	fb := g.AddTerm(expr.Unary("gelu", leafT(2, "B")))
	if g.Find(fa) == g.Find(fb) {
		t.Fatal("f(A) and f(B) must start distinct")
	}
	g.Union(a, b)
	g.Rebuild()
	if g.Find(fa) != g.Find(fb) {
		t.Fatal("congruence: A=B must imply f(A)=f(B)")
	}
}

func TestCongruenceClosureDeep(t *testing.T) {
	g := New(nil)
	a := g.AddTerm(leafT(1, "A"))
	b := g.AddTerm(leafT(2, "B"))
	ffa := g.AddTerm(expr.Unary("g", expr.Unary("f", leafT(1, "A"))))
	ffb := g.AddTerm(expr.Unary("g", expr.Unary("f", leafT(2, "B"))))
	g.Union(a, b)
	g.Rebuild()
	if g.Find(ffa) != g.Find(ffb) {
		t.Fatal("congruence must propagate through nesting")
	}
}

func TestLookupDoesNotInsert(t *testing.T) {
	g := New(nil)
	a := g.AddTerm(leafT(1, "A"))
	before := g.NodeCount()
	if _, ok := g.Lookup(&ENode{Op: expr.OpUnary, Str: "f", Kids: []ClassID{a}}); ok {
		t.Fatal("lookup of absent node must fail")
	}
	if g.NodeCount() != before {
		t.Fatal("lookup must not insert")
	}
	fa := g.AddTerm(expr.Unary("f", leafT(1, "A")))
	if got, ok := g.Lookup(&ENode{Op: expr.OpUnary, Str: "f", Kids: []ClassID{a}}); !ok || got != fa {
		t.Fatalf("lookup of present node = %d, %v; want class %d", got, ok, fa)
	}
}

func TestMatchSimple(t *testing.T) {
	g := New(nil)
	g.AddTerm(expr.MatMul(expr.ConcatI(1, leafT(1, "A1"), leafT(2, "A2")), leafT(3, "B")))
	p := POp(expr.OpMatMul, nil,
		POp(expr.OpConcat, []AttrPat{AVar("d")}, PVar("x"), PVar("y")),
		PVar("b"))
	ms := g.MatchAll(p)
	if len(ms) != 1 {
		t.Fatalf("want 1 match, got %d", len(ms))
	}
	s := ms[0].Subst
	if d := s.AttrOf("d"); !d.Equal(sym.Const(1)) {
		t.Fatalf("attr d = %s", d)
	}
	if s.ClassOf("x") == s.ClassOf("y") {
		t.Fatal("x and y should bind different classes")
	}
}

func TestMatchAttrLiteral(t *testing.T) {
	g := New(nil)
	g.AddTerm(expr.ConcatI(0, leafT(1, "A"), leafT(2, "B")))
	g.AddTerm(expr.ConcatI(1, leafT(1, "A"), leafT(2, "B")))
	p0 := POp(expr.OpConcat, []AttrPat{AInt(0)}, PVar("x"), PVar("y"))
	if n := len(g.MatchAll(p0)); n != 1 {
		t.Fatalf("dim=0 literal should match once, got %d", n)
	}
}

func TestMatchNonlinearVar(t *testing.T) {
	g := New(nil)
	g.AddTerm(expr.Add(leafT(1, "A"), leafT(1, "A")))
	g.AddTerm(expr.Add(leafT(1, "A"), leafT(2, "B")))
	p := POp(expr.OpAdd, nil, PVar("x"), PVar("x")) // same var twice
	ms := g.MatchAll(p)
	if len(ms) != 1 {
		t.Fatalf("nonlinear pattern should match only add(A,A): %d", len(ms))
	}
}

func TestMatchAcrossUnions(t *testing.T) {
	g := New(nil)
	// After union(A, concat(A1,A2)), a pattern for matmul(concat ...)
	// must match matmul(A, B).
	mm := g.AddTerm(expr.MatMul(leafT(1, "A"), leafT(3, "B")))
	a := g.AddTerm(leafT(1, "A"))
	cc := g.AddTerm(expr.ConcatI(1, leafT(11, "A1"), leafT(12, "A2")))
	g.Union(a, cc)
	g.Rebuild()
	p := POp(expr.OpMatMul, nil,
		POp(expr.OpConcat, []AttrPat{AVar("d")}, PVar("x"), PVar("y")),
		PVar("b"))
	ms := g.MatchAll(p)
	if len(ms) != 1 {
		t.Fatalf("match through union failed: %d", len(ms))
	}
	if g.Find(ms[0].Class) != g.Find(mm) {
		t.Fatal("match must be rooted at the matmul class")
	}
}

// insert adds op(kids…) the way a rule's Apply does, through
// InstantiateOp. A budget-declined insert is Saturate's to notice, so
// the class it returns then is never unioned.
func insert(g *EGraph, op expr.Op, ints []sym.Expr, kids ...ClassID) ClassID {
	c, _ := g.InstantiateOp(&ENode{Op: op, Ints: ints, Kids: kids})
	return c
}

func TestSimpleRuleSaturation(t *testing.T) {
	g := New(nil)
	root := g.AddTerm(expr.MatMul(
		expr.ConcatI(1, leafT(11, "A1"), leafT(12, "A2")),
		expr.ConcatI(0, leafT(21, "B1"), leafT(22, "B2"))))
	// Block-matmul lemma: matmul(concat(a0,a1,1), concat(b0,b1,0)) = add(matmul(a0,b0), matmul(a1,b1))
	rule := &Rule{
		Name: "mm-block",
		LHS: POp(expr.OpMatMul, nil,
			POp(expr.OpConcat, []AttrPat{AInt(1)}, PVar("a0"), PVar("a1")),
			POp(expr.OpConcat, []AttrPat{AInt(0)}, PVar("b0"), PVar("b1"))),
		Apply: func(g *EGraph, m Match) []UnionPair {
			s := m.Subst
			return m.With(insert(g, expr.OpAdd, nil,
				insert(g, expr.OpMatMul, nil, s.ClassOf("a0"), s.ClassOf("b0")),
				insert(g, expr.OpMatMul, nil, s.ClassOf("a1"), s.ClassOf("b1"))))
		},
	}
	stats := g.Saturate([]*Rule{rule}, SaturateOpts{})
	if !stats.Saturated {
		t.Fatal("tiny system must saturate")
	}
	if stats.Applications["mm-block"] != 1 {
		t.Fatalf("application count %v", stats.Applications)
	}
	want := g.AddTerm(expr.Add(
		expr.MatMul(leafT(11, "A1"), leafT(21, "B1")),
		expr.MatMul(leafT(12, "A2"), leafT(22, "B2"))))
	if g.Find(root) != g.Find(want) {
		t.Fatal("rule did not union LHS with RHS")
	}
}

func TestConstrainedRuleOnlyTargetsExisting(t *testing.T) {
	// x → identity(x) unconstrained would always fire; constrained it
	// must fire only when identity(x) already exists.
	g := New(nil)
	a := g.AddTerm(leafT(1, "A"))
	b := g.AddTerm(leafT(2, "B"))
	idb := g.AddTerm(expr.New(expr.OpIdentity, nil, "", leafT(2, "B")))
	rule := &Rule{
		Name: "id-intro",
		LHS:  PVar("x"),
		Apply: func(g *EGraph, m Match) []UnionPair {
			c, ok := g.Lookup(&ENode{Op: expr.OpIdentity, Kids: []ClassID{m.Subst.ClassOf("x")}})
			if !ok {
				return nil
			}
			return m.With(c)
		},
	}
	g.Saturate([]*Rule{rule}, SaturateOpts{MaxIters: 2})
	if g.Find(b) != g.Find(idb) {
		t.Fatal("constrained rule should fire where target exists")
	}
	// No identity(A) node must have been created.
	if _, ok := g.Lookup(&ENode{Op: expr.OpIdentity, Kids: []ClassID{a}}); ok {
		t.Fatal("constrained rule must not create identity(A)")
	}
}

func TestConditionedRule(t *testing.T) {
	// slice(concat(x,y,d1), d2, …) commutes only when d1 ≠ d2.
	ctx := sym.NewContext()
	g := New(ctx)
	good := g.AddTerm(expr.Slice(expr.ConcatI(0, leafT(1, "X"), leafT(2, "Y")), sym.Const(1), sym.Const(0), sym.Const(4)))
	bad := g.AddTerm(expr.Slice(expr.ConcatI(1, leafT(1, "X"), leafT(2, "Y")), sym.Const(1), sym.Const(0), sym.Const(4)))
	rule := &Rule{
		Name: "slice-concat-commute",
		LHS: POp(expr.OpSlice, []AttrPat{AVar("d2"), AVar("b"), AVar("e")},
			POp(expr.OpConcat, []AttrPat{AVar("d1")}, PVar("x"), PVar("y"))),
		Apply: func(g *EGraph, m Match) []UnionPair {
			d1, d2 := m.Subst.AttrOf("d1"), m.Subst.AttrOf("d2")
			if !g.Ctx.ProveNE(d1, d2) {
				return nil
			}
			b, e := m.Subst.AttrOf("b"), m.Subst.AttrOf("e")
			return m.With(insert(g, expr.OpConcat, []sym.Expr{d1},
				insert(g, expr.OpSlice, []sym.Expr{d2, b, e}, m.Subst.ClassOf("x")),
				insert(g, expr.OpSlice, []sym.Expr{d2, b, e}, m.Subst.ClassOf("y"))))
		},
	}
	g.Saturate([]*Rule{rule}, SaturateOpts{})
	wantGood := g.AddTerm(expr.ConcatI(0,
		expr.Slice(leafT(1, "X"), sym.Const(1), sym.Const(0), sym.Const(4)),
		expr.Slice(leafT(2, "Y"), sym.Const(1), sym.Const(0), sym.Const(4))))
	if g.Find(good) != g.Find(wantGood) {
		t.Fatal("conditioned rule should fire when d1≠d2")
	}
	cls := g.Class(bad)
	if cls.count != 1 {
		t.Fatal("conditioned rule must not fire when d1=d2 branch missing")
	}
}

func TestExtractClean(t *testing.T) {
	g := New(nil)
	// C is equal to both matmul(A,B) (unclean) and sum(C1,C2) (clean
	// over G_d leaves 101, 102).
	c := g.AddTerm(expr.MatMul(leafT(1, "A"), leafT(2, "B")))
	sumT := g.AddTerm(expr.Sum(leafT(101, "C1"), leafT(102, "C2")))
	g.Union(c, sumT)
	g.Rebuild()
	allowed := func(tid int) bool { return tid >= 100 }
	got, ok := simplestClean(g, c, allowed)
	if !ok {
		t.Fatal("clean representative must be found")
	}
	if got.String() != "sum(C1, C2)" {
		t.Fatalf("extracted %q", got)
	}
	// With G_d leaves disallowed, there is no clean representative.
	if _, ok := simplestClean(g, c, func(int) bool { return false }); ok {
		t.Fatal("no leaves allowed → no clean expr")
	}
}

func TestExtractPrefersSimplest(t *testing.T) {
	g := New(nil)
	base := g.AddTerm(leafT(100, "D"))
	split := g.AddTerm(expr.ConcatI(0,
		expr.SliceI(leafT(100, "D"), 0, 0, 2),
		expr.SliceI(leafT(100, "D"), 0, 2, 4)))
	g.Union(base, split)
	g.Rebuild()
	got, ok := simplestClean(g, base, func(tid int) bool { return tid >= 100 })
	if !ok || got.Size() != 0 {
		t.Fatalf("should extract the bare leaf, got %v", got)
	}
}

func TestExtractAllClean(t *testing.T) {
	g := New(nil)
	// Paper running example: C = sum(C1,C2) = concat(D1,D2).
	c := g.AddTerm(expr.MatMul(leafT(1, "A"), leafT(2, "B")))
	s := g.AddTerm(expr.Sum(leafT(101, "C1"), leafT(102, "C2")))
	cc := g.AddTerm(expr.ConcatI(0, leafT(103, "D1"), leafT(104, "D2")))
	g.Union(c, s)
	g.Union(c, cc)
	g.Rebuild()
	all := g.CleanCosts(func(tid int) bool { return tid >= 100 }).ExtractAll(c, 0)
	if len(all) != 2 {
		t.Fatalf("want 2 clean mappings, got %d: %v", len(all), all)
	}
	keys := map[string]bool{}
	for _, e := range all {
		keys[e.String()] = true
	}
	if !keys["sum(C1, C2)"] || !keys["concat(D1, D2, dim=0)"] {
		t.Fatalf("mappings %v", keys)
	}
}

func TestSelfLoopSaturates(t *testing.T) {
	// x → identity(x) collapses into a self-loop in an e-graph and
	// genuinely saturates — the compact representation the paper
	// relies on when lemmas like reshape∘reshape fire everywhere.
	g := New(nil)
	g.AddTerm(leafT(1, "A"))
	rule := &Rule{
		Name: "id-wrap",
		LHS:  PVar("x"),
		Apply: func(g *EGraph, m Match) []UnionPair {
			return m.With(insert(g, expr.OpIdentity, nil, m.Subst.ClassOf("x")))
		},
	}
	stats := g.Saturate([]*Rule{rule}, SaturateOpts{MaxIters: 8})
	if !stats.Saturated {
		t.Fatal("identity-wrapping must saturate via self-loop")
	}
	if stats.Iterations > 3 {
		t.Fatalf("took %d iterations", stats.Iterations)
	}
}

func TestSaturationLimits(t *testing.T) {
	// A genuinely divergent rule: pad(x,d,0,k) → pad(x,d,0,k+1)
	// mints a fresh attribute every firing. Limits must stop it.
	g := New(nil)
	g.AddTerm(expr.Pad(leafT(1, "A"), sym.Const(0), sym.Const(0), sym.Const(1)))
	rule := &Rule{
		Name: "pad-grow",
		LHS:  POp(expr.OpPad, []AttrPat{AVar("d"), AVar("b"), AVar("k")}, PVar("x")),
		Apply: func(g *EGraph, m Match) []UnionPair {
			d, b, k := m.Subst.AttrOf("d"), m.Subst.AttrOf("b"), m.Subst.AttrOf("k")
			return m.With(insert(g, expr.OpPad, []sym.Expr{d, b, k.AddConst(1)}, m.Subst.ClassOf("x")))
		},
	}
	stats := g.Saturate([]*Rule{rule}, SaturateOpts{MaxIters: 3})
	if stats.Saturated {
		t.Fatal("divergent system must not saturate in 3 iters")
	}
	if stats.Iterations != 3 {
		t.Fatalf("iterations %d", stats.Iterations)
	}
	// And the node cap must halt it even with generous iterations.
	g2 := New(nil)
	g2.AddTerm(expr.Pad(leafT(1, "A"), sym.Const(0), sym.Const(0), sym.Const(1)))
	stats2 := g2.Saturate([]*Rule{rule}, SaturateOpts{MaxIters: 1000, MaxNodes: 50})
	if stats2.Saturated {
		t.Fatal("node cap must stop divergence")
	}
}

func TestStatsMerge(t *testing.T) {
	a := Stats{Iterations: 2, Applications: map[string]int{"r": 1}, Saturated: true, Nodes: 5}
	b := Stats{Iterations: 3, Applications: map[string]int{"r": 2, "s": 1}, Saturated: true, Nodes: 9}
	a.Merge(b)
	if a.Iterations != 5 || a.Applications["r"] != 3 || a.Applications["s"] != 1 || a.Nodes != 9 || !a.Saturated {
		t.Fatalf("merge wrong: %+v", a)
	}
}

// Property: after arbitrary unions and a rebuild, (1) find is
// idempotent, (2) equal terms added twice land in the same class,
// (3) congruence holds for unary wrappers of unioned leaves.
func TestQuickUnionInvariants(t *testing.T) {
	f := func(pairs []uint8) bool {
		g := New(nil)
		const n = 8
		leaves := make([]ClassID, n)
		wrapped := make([]ClassID, n)
		for i := 0; i < n; i++ {
			leaves[i] = g.AddTerm(leafT(i, ""))
			wrapped[i] = g.AddTerm(expr.Unary("f", leafT(i, "")))
		}
		for _, p := range pairs {
			a := int(p) % n
			b := int(p>>4) % n
			g.Union(leaves[a], leaves[b])
		}
		g.Rebuild()
		for i := 0; i < n; i++ {
			if g.Find(leaves[i]) != g.Find(g.Find(leaves[i])) {
				return false
			}
			for j := 0; j < n; j++ {
				if g.Find(leaves[i]) == g.Find(leaves[j]) &&
					g.Find(wrapped[i]) != g.Find(wrapped[j]) {
					return false // congruence violated
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: hashcons canonicality — adding any term twice (possibly
// after random unions) yields the same class.
func TestQuickHashconsCanonical(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	randTerm := func(depth int) *expr.Term {
		var gen func(d int) *expr.Term
		gen = func(d int) *expr.Term {
			if d == 0 || rnd.Intn(3) == 0 {
				return leafT(rnd.Intn(5), "")
			}
			switch rnd.Intn(3) {
			case 0:
				return expr.Add(gen(d-1), gen(d-1))
			case 1:
				return expr.ConcatI(int64(rnd.Intn(2)), gen(d-1), gen(d-1))
			default:
				return expr.Unary("f", gen(d-1))
			}
		}
		return gen(depth)
	}
	for trial := 0; trial < 100; trial++ {
		g := New(nil)
		terms := make([]*expr.Term, 6)
		ids := make([]ClassID, 6)
		for i := range terms {
			terms[i] = randTerm(3)
			ids[i] = g.AddTerm(terms[i])
		}
		g.Union(ids[0], ids[1])
		g.Union(ids[2], ids[3])
		g.Rebuild()
		for i, tm := range terms {
			if g.Find(g.AddTerm(tm)) != g.Find(ids[i]) {
				t.Fatalf("trial %d: re-adding term %d changed class", trial, i)
			}
		}
	}
}

// TestRepairKeepsParentsMergedMidRepair is the regression test for a
// lost-parents bug: repairing a class that holds a node over itself can
// find that node congruent with a parent in another class and merge
// that class into the one under repair. Union appends the absorbed
// class's parents to the survivor's list — the list the repair loop was
// rebuilding, whose result then overwrote the appended entries, so the
// absorbed class's consumers were never re-canonicalized.
func TestRepairKeepsParentsMergedMidRepair(t *testing.T) {
	g := New(nil)
	a := g.AddTerm(leafT(1, "a"))
	b := g.AddTerm(leafT(2, "b"))
	ga := g.AddNode(ENode{Op: opG, Kids: []ClassID{a}})
	gb := g.AddNode(ENode{Op: opG, Kids: []ClassID{b}})
	hgb := g.AddNode(ENode{Op: opF, Kids: []ClassID{gb}}) // the consumer that went missing
	g.Union(a, ga)                                        // a = g(a): a class over itself
	g.Rebuild()
	g.Union(a, b) // repairing a∪b finds g(a) ≅ g(b) and merges g(b)'s class in
	g.Rebuild()   // TestMain's InvariantChecks audits the parent lists here
	if g.Find(gb) != g.Find(a) {
		t.Fatal("g(b) must have joined the class of a = g(a) by congruence")
	}
	if c, ok := g.Lookup(&ENode{Op: opF, Kids: []ClassID{a}}); !ok || g.Find(c) != g.Find(hgb) {
		t.Fatal("f(g(b)) was not re-canonicalized to f(a): its parent entry was lost")
	}
	assertCongruent(t, g)
}

// TestSubstArenaManyChunks dates from the chunked substitution arena,
// whose chunk-size shift overflowed past some fifty chunks: a match
// phase with 70k substitutions panicked in makeslice. The slab that
// replaced it is one slice; the phase size stays pinned, with every
// record reachable by the index extend returned for it.
func TestSubstArenaManyChunks(t *testing.T) {
	g := New(nil)
	const n = 70 * 1024
	for i := 0; i < n; i++ {
		s := g.extend(int32(i) - 1) // each a copy of the one before
		g.substs[s].slot[i%maxSlots] = int32(i)
	}
	if len(g.substs) != n {
		t.Fatalf("slab holds %d substitutions, want %d", len(g.substs), n)
	}
	last := g.substs[n-1].slot
	for k := range last {
		if want := int32(n - maxSlots + k); last[want%maxSlots] != want {
			t.Fatalf("slot %d of the last substitution is %d, want %d", want%maxSlots, last[want%maxSlots], want)
		}
	}
}

// A sum's kids are a multiset: every kid order is one node, found from
// any order, while a repeated kid still counts.
func TestSumIsOneNodePerKidMultiset(t *testing.T) {
	g := New(nil)
	a, b := g.AddTerm(leafT(1, "A")), g.AddTerm(leafT(2, "B"))
	ab := insert(g, expr.OpSum, nil, a, b)
	nodes := g.NodeCount()
	if ba := insert(g, expr.OpSum, nil, b, a); ba != ab || g.NodeCount() != nodes {
		t.Fatalf("sum(B, A) is class %d and the graph grew to %d nodes; want sum(A, B)'s class %d and %d nodes", ba, g.NodeCount(), ab, nodes)
	}
	aab := insert(g, expr.OpSum, nil, a, a, b)
	if aab == ab {
		t.Fatal("sum(A, A, B) hash-consed onto sum(A, B): kids are a multiset, not a set")
	}
	if baa := insert(g, expr.OpSum, nil, b, a, a); baa != aab {
		t.Fatalf("sum(B, A, A) is class %d, sum(A, A, B) %d", baa, aab)
	}

	x, y, z := leafT(1, "A"), expr.Unary("gelu", leafT(2, "B")), leafT(3, "C")
	want := g.AddTerm(expr.Sum(x, y, z))
	nodes = g.NodeCount()
	for _, order := range [][]*expr.Term{{x, y, z}, {x, z, y}, {y, x, z}, {y, z, x}, {z, x, y}, {z, y, x}} {
		if got := g.AddTerm(expr.Sum(order...)); got != want || g.NodeCount() != nodes {
			t.Errorf("AddTerm(%s) = %d with %d nodes; want class %d, still %d nodes", expr.Sum(order...), got, g.NodeCount(), want, nodes)
		}
	}
}

// A union that reorders a sum's kid classes must leave one node per kid
// multiset in the class, also when one of the two sums is a node whose
// kid list repair never rewrote (its parent entry went to a congruent
// twin): the class's own dedup then compares by the sorted canonical
// lists, not position by position.
func TestRebuildDedupsReorderedSums(t *testing.T) {
	g := New(nil)
	var l [6]ClassID // A..F, classes 0..5
	for i := range l {
		l[i] = g.AddTerm(leafT(i, string(rune('A'+i))))
	}
	a, b, c, d, e, f := l[0], l[1], l[2], l[3], l[4], l[5]
	x := insert(g, expr.OpSum, nil, a, c)
	y := insert(g, expr.OpSum, nil, b, c)
	// y's class absorbs x's, so y leads the chain and x is the copy the
	// class's dedup drops; a absorbs b, so x's parent entry leads a's list
	// and y's is the one that goes: y keeps the kids of that rewrite.
	g.Union(y, x)
	g.Union(a, b)
	g.Rebuild()
	// a's class moves above c's: y's kids, canonicalized, now read (A, C)
	// in descending class order, and y is never rewritten again.
	g.Union(d, e)
	g.Union(d, a)
	g.Rebuild()
	w := insert(g, expr.OpSum, nil, c, f)
	g.Union(y, w)
	g.Union(d, f) // w's kids become y's, in the other order
	g.Rebuild()
	if err := g.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if nodes := g.Nodes(g.Find(y)); len(nodes) != 1 {
		t.Errorf("class %d holds %d sum nodes over one kid multiset, want 1", g.Find(y), len(nodes))
	}
}

// CheckInvariants reports a sum node whose canonical kids are out of
// order: two spellings of one sum would no longer meet in the memo.
func TestCheckInvariantsCatchesUnsortedSum(t *testing.T) {
	g := New(nil)
	a, b := g.AddTerm(leafT(1, "A")), g.AddTerm(leafT(2, "B"))
	s := insert(g, expr.OpSum, nil, a, b)
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("a fresh graph violates: %v", err)
	}
	n := &g.arena[s]
	g.memo.del(g.arena, memoHash(n.head, n.Kids), n.head, n.Kids)
	n.Kids[0], n.Kids[1] = n.Kids[1], n.Kids[0]
	g.memo.put(g.arena, memoHash(n.head, n.Kids), n.head, int32(s), s)
	if err := g.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "canonical kids are not sorted") {
		t.Errorf("CheckInvariants returned %v, want the unsorted sum reported", err)
	}
}

// CheckInvariants reports two nodes of one class with one canonical
// identity: the intra-class dedup Rebuild owes.
func TestCheckInvariantsCatchesDuplicateNode(t *testing.T) {
	g := New(nil)
	a, b, c := g.AddTerm(leafT(1, "A")), g.AddTerm(leafT(2, "B")), g.AddTerm(leafT(3, "C"))
	s, u := insert(g, expr.OpSum, nil, a, b), insert(g, expr.OpSum, nil, b, c)
	g.Union(s, u)
	g.Rebuild()
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("a rebuilt graph violates: %v", err)
	}
	n := &g.arena[u]
	g.memo.del(g.arena, memoHash(n.head, n.Kids), n.head, n.Kids)
	n.Kids = []ClassID{a, b}
	if err := g.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "duplicate node") {
		t.Errorf("CheckInvariants returned %v, want the duplicate reported", err)
	}
}
