package egraph

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"testing"

	"entangle/internal/expr"
	"entangle/internal/shape"
	"entangle/internal/sym"
)

// opF/opG/opH are private test operators; CleanOp treats unknown ops
// as unclean, which is irrelevant to the congruence assertions here.
const (
	opF = expr.Op("test_f")
	opG = expr.Op("test_g")
)

// unionRule unions the classes of the leaves with the given TIDs on
// any match of leaf `trigger`.
func unionRule(name string, trigger, a, b int) *Rule {
	return &Rule{
		Name: name,
		LHS:  &Pattern{Op: expr.OpTensor, LeafTID: &trigger},
		Apply: func(g *EGraph, m Match) []UnionPair {
			na, nb := Leaf(a, "a"), Leaf(b, "b")
			ca, ok := g.Lookup(&na)
			if !ok {
				return nil
			}
			cb, ok := g.Lookup(&nb)
			if !ok {
				return nil
			}
			p := g.scratch.pairs.take(1) // what Match.With hands out
			p[0] = UnionPair{ca, cb}
			return p
		},
	}
}

// growRule adds a fresh chain node over the matched class every
// iteration, inflating the node count past any small budget.
func growRule(name string, trigger int) *Rule {
	n := 0
	return &Rule{
		Name: name,
		LHS:  &Pattern{Op: expr.OpTensor, LeafTID: &trigger},
		Apply: func(g *EGraph, m Match) []UnionPair {
			n++
			fresh := g.AddNode(ENode{Op: opG, Str: string(rune('A' + n)), Kids: []ClassID{m.Class}})
			return m.With(fresh)
		},
	}
}

// TestSaturateMaxNodesRebuilds is the regression test for the
// saturation-budget congruence bug: when the MaxNodes budget is blown
// mid-iteration, Saturate used to return without calling Rebuild, so
// unions applied earlier in that same iteration left congruent nodes
// (f(a) and f(b) after union(a, b)) in distinct classes and the memo
// keyed by stale child classes. The fix breaks out of both loops and
// always rebuilds before returning.
func TestSaturateMaxNodesRebuilds(t *testing.T) {
	g := New(nil)
	ca := g.AddTerm(leafT(1, "a"))
	cb := g.AddTerm(leafT(2, "b"))
	g.AddTerm(leafT(3, "t"))
	fa := g.AddNode(ENode{Op: opF, Kids: []ClassID{ca}})
	fb := g.AddNode(ENode{Op: opF, Kids: []ClassID{cb}})
	if g.Find(fa) == g.Find(fb) {
		t.Fatal("f(a) and f(b) must start distinct")
	}

	// Rule order = match application order: first union a with b,
	// then grow past the budget so a later pending match trips the
	// MaxNodes early exit inside the same iteration, with the a=b
	// union still un-rebuilt.
	rules := []*Rule{
		unionRule("union-ab", 3, 1, 2),
		growRule("grow", 3),
		unionRule("late", 3, 1, 2), // pending match that hits the budget check
	}
	stats := g.Saturate(rules, SaturateOpts{MaxIters: 8, MaxNodes: g.NodeCount()})
	if stats.Saturated {
		t.Fatalf("budget run must not report saturation: %+v", stats)
	}

	// Congruence: union(a, b) was applied before the budget hit, so
	// f(a) and f(b) must have been merged by the final Rebuild.
	if g.Find(ca) != g.Find(cb) {
		t.Fatal("a and b were not unioned before the budget hit")
	}
	if g.Find(fa) != g.Find(fb) {
		t.Fatal("congruence broken: f(a) and f(b) in distinct classes after Saturate hit MaxNodes")
	}

	assertCongruent(t, g)
}

// assertCongruent checks the rebuild invariants via the full
// structural audit: memo ↔ class agreement, no duplicate nodes, parent
// registration, and count bookkeeping (see CheckInvariants).
func assertCongruent(t *testing.T, g *EGraph) {
	t.Helper()
	if err := g.CheckInvariants(); err != nil {
		t.Fatalf("e-graph invariants violated: %v", err)
	}
}

// TestSaturateBudgetExtractionSeesUnions drives the same scenario
// through extraction. The equivalence flows through congruence: the
// pre-budget union makes a = b, which must merge f(a) with f(b) — and
// f(b) is known equal to the clean leaf c. Without the final Rebuild,
// f(a)'s class never learns about c and extraction comes back empty.
func TestSaturateBudgetExtractionSeesUnions(t *testing.T) {
	g := New(nil)
	ca := g.AddTerm(leafT(1, "a"))
	cb := g.AddTerm(leafT(2, "b"))
	g.AddTerm(leafT(3, "t"))
	ccl := g.AddTerm(leafT(4, "c"))
	cfa := g.AddNode(ENode{Op: opF, Kids: []ClassID{ca}})
	cfb := g.AddNode(ENode{Op: opF, Kids: []ClassID{cb}})
	g.Union(cfb, ccl)
	g.Rebuild()

	onlyC := func(tid int) bool { return tid == 4 }
	if got := g.CleanCosts(onlyC).ExtractAll(cfa, 0); len(got) != 0 {
		t.Fatalf("setup broken: f(a) must have no clean form yet, got %v", got)
	}

	rules := []*Rule{
		unionRule("union-ab", 3, 1, 2),
		growRule("grow", 3),
		unionRule("late", 3, 1, 2),
	}
	g.Saturate(rules, SaturateOpts{MaxIters: 8, MaxNodes: g.NodeCount()})

	terms := g.CleanCosts(onlyC).ExtractAll(cfa, 0)
	if len(terms) == 0 {
		t.Fatal("extraction does not see the congruence implied by the pre-budget union")
	}
	want := leafT(4, "c")
	if !terms[0].Equal(want) {
		t.Fatalf("extracted %s, want %s", terms[0], want)
	}
}

// TestNodeCountMatchesLiveNodes covers the NodeCount/budget
// unification: dedup during rebuild must shrink the reported count to
// the live total instead of double-counting merged nodes forever.
func TestNodeCountMatchesLiveNodes(t *testing.T) {
	g := New(nil)
	ca := g.AddTerm(leafT(1, "a"))
	cb := g.AddTerm(leafT(2, "b"))
	g.AddNode(ENode{Op: opF, Kids: []ClassID{ca}})
	g.AddNode(ENode{Op: opF, Kids: []ClassID{cb}})
	if got := g.NodeCount(); got != 4 || got != nodeTotal(g) {
		t.Fatalf("before union: NodeCount %d, live %d, want 4", got, nodeTotal(g))
	}
	g.Union(ca, cb)
	g.Rebuild()
	// a and b merged; f(a) and f(b) became congruent and deduped. The
	// budget counter g.nodeCount (what Saturate checks MaxNodes
	// against) must shrink with the dedup instead of double-counting
	// the merged node forever.
	if g.nodeCount != nodeTotal(g) {
		t.Fatalf("after rebuild: budget counter %d but live total %d", g.nodeCount, nodeTotal(g))
	}
	if got := g.NodeCount(); got != 3 {
		t.Fatalf("after rebuild: NodeCount %d, want 3 (a, b, f)", got)
	}
}

// TestStatsMergeZeroValueIdentity covers the Stats.Merge tri-state:
// the zero value must be a merge identity rather than forcing
// Saturated to false forever.
func TestStatsMergeZeroValueIdentity(t *testing.T) {
	var acc Stats
	acc.Merge(Stats{Saturated: true, Runs: 1, Iterations: 2})
	if !acc.Saturated || acc.Runs != 1 {
		t.Fatalf("zero value must adopt first run's Saturated: %+v", acc)
	}
	acc.Merge(Stats{Saturated: true, Runs: 1})
	if !acc.Saturated || acc.Runs != 2 {
		t.Fatalf("two saturated runs must stay saturated: %+v", acc)
	}
	acc.Merge(Stats{Saturated: false, Runs: 1})
	if acc.Saturated {
		t.Fatal("an unsaturated run must clear Saturated")
	}
	acc.Merge(Stats{Saturated: true, Runs: 1})
	if acc.Saturated {
		t.Fatal("Saturated must never recover once cleared")
	}

	// Merging an empty accumulator is a no-op on Saturated.
	sat := Stats{Saturated: true, Runs: 1}
	sat.Merge(Stats{})
	if !sat.Saturated || sat.Runs != 1 {
		t.Fatalf("merging the zero value must not clear Saturated: %+v", sat)
	}

	// Applications still accumulate through the identity.
	var a2 Stats
	a2.Merge(Stats{Applications: map[string]int{"r": 2}, Runs: 1, Saturated: true})
	a2.Merge(Stats{Applications: map[string]int{"r": 3}, Runs: 1, Saturated: true})
	if !reflect.DeepEqual(a2.Applications, map[string]int{"r": 5}) {
		t.Fatalf("applications not accumulated: %+v", a2.Applications)
	}

	// The new counters keep the zero-value-is-identity invariant:
	// merging the zero value changes nothing, and counters sum while
	// StopReason keeps the most severe cause.
	acc2 := Stats{Runs: 1, Saturated: true, StopReason: StopSaturated}
	acc2.Merge(Stats{})
	if acc2.StopReason != StopSaturated || acc2.Cancelled != 0 || acc2.BudgetHit != 0 {
		t.Fatalf("zero merge disturbed counters: %+v", acc2)
	}
	acc2.Merge(Stats{Runs: 1, StopReason: StopIterLimit, BudgetHit: 1})
	acc2.Merge(Stats{Runs: 1, StopReason: StopNodeLimit, BudgetHit: 1})
	acc2.Merge(Stats{Runs: 1, StopReason: StopCancelled, Cancelled: 1})
	acc2.Merge(Stats{Runs: 1, StopReason: StopSaturated, Saturated: true})
	if acc2.BudgetHit != 2 || acc2.Cancelled != 1 {
		t.Fatalf("counters did not sum: %+v", acc2)
	}
	if acc2.StopReason != StopCancelled {
		t.Fatalf("StopReason must keep the most severe cause, got %v", acc2.StopReason)
	}
}

// TestSaturateStopReasons pins the reason classification for each way
// a run can stop: fixpoint, node budget, iteration budget, and
// pre-cancelled context.
func TestSaturateStopReasons(t *testing.T) {
	// Fixpoint: no rules fire at all.
	g := New(nil)
	g.AddTerm(leafT(1, "a"))
	stats := g.Saturate(nil, SaturateOpts{MaxIters: 4, MaxNodes: 100})
	if !stats.Saturated || stats.StopReason != StopSaturated || stats.BudgetHit != 0 || stats.Cancelled != 0 {
		t.Fatalf("fixpoint run misclassified: %+v", stats)
	}

	// Node budget: the grow rule inflates past MaxNodes.
	g = New(nil)
	g.AddTerm(leafT(3, "t"))
	stats = g.Saturate([]*Rule{growRule("grow", 3)}, SaturateOpts{MaxIters: 32, MaxNodes: g.NodeCount() + 2})
	if stats.Saturated || stats.StopReason != StopNodeLimit || stats.BudgetHit != 1 {
		t.Fatalf("node-budget run misclassified: %+v", stats)
	}

	// Iteration budget: the grow rule still firing when MaxIters ends.
	g = New(nil)
	g.AddTerm(leafT(3, "t"))
	stats = g.Saturate([]*Rule{growRule("grow", 3)}, SaturateOpts{MaxIters: 2, MaxNodes: 1 << 20})
	if stats.Saturated || stats.StopReason != StopIterLimit || stats.BudgetHit != 1 || stats.Iterations != 2 {
		t.Fatalf("iter-budget run misclassified: %+v", stats)
	}

	// Pre-cancelled context: zero iterations run.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g = New(nil)
	g.AddTerm(leafT(3, "t"))
	stats = g.Saturate([]*Rule{growRule("grow", 3)}, SaturateOpts{MaxIters: 8, MaxNodes: 100, Ctx: ctx})
	if stats.StopReason != StopCancelled || stats.Cancelled != 1 || stats.Iterations != 0 || stats.Saturated {
		t.Fatalf("cancelled run misclassified: %+v", stats)
	}
}

// TestSaturateCancelMidRunLeavesCongruent cancels the context from
// inside a rule application, so the *next* iteration boundary stops the
// run. The e-graph must be left rebuilt and congruent, exactly as on a
// budget stop, and the stats must say the run was cancelled within one
// iteration of the cancel.
func TestSaturateCancelMidRunLeavesCongruent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(nil)
	ca := g.AddTerm(leafT(1, "a"))
	cb := g.AddTerm(leafT(2, "b"))
	g.AddTerm(leafT(3, "t"))
	fa := g.AddNode(ENode{Op: opF, Kids: []ClassID{ca}})
	fb := g.AddNode(ENode{Op: opF, Kids: []ClassID{cb}})

	// Iteration 1: union a=b, grow, and cancel. Iteration 2 must never
	// start, but the a=b union must still be congruence-closed.
	cancelRule := &Rule{
		Name: "cancel",
		LHS:  &Pattern{Op: expr.OpTensor, LeafTID: intPtr(3)},
		Apply: func(g *EGraph, m Match) []UnionPair {
			cancel()
			return nil
		},
	}
	rules := []*Rule{unionRule("union-ab", 3, 1, 2), growRule("grow", 3), cancelRule}
	stats := g.Saturate(rules, SaturateOpts{MaxIters: 64, MaxNodes: 1 << 20, Ctx: ctx})
	if stats.StopReason != StopCancelled || stats.Cancelled != 1 {
		t.Fatalf("mid-run cancel misclassified: %+v", stats)
	}
	if stats.Iterations != 1 {
		t.Fatalf("cancel must bite at the next iteration boundary, ran %d iterations", stats.Iterations)
	}
	if g.Find(fa) != g.Find(fb) {
		t.Fatal("congruence broken after cancelled run: f(a) != f(b) despite a = b")
	}
	assertCongruent(t, g)
}

func intPtr(v int) *int { return &v }

// TestMain runs the whole package with the Rebuild invariant audit on,
// so every test's rebuilds are structurally verified, not just the
// tests that call CheckInvariants explicitly. The package variable is
// set directly: the environment gate is evaluated at init, before
// TestMain runs.
func TestMain(m *testing.M) {
	InvariantChecks = true
	os.Exit(m.Run())
}

// TestSaturateInstantiateBudgetBounded is the regression test for the
// MaxNodes overshoot bug: an explosive rule whose every application
// instantiates a chain of fresh nodes used to blow far past the budget
// before the between-applications check noticed, because the insert
// itself never consulted the limit. With the in-insert budget, a
// declined insertion fails the application and the live node count
// never exceeds MaxNodes at all.
func TestSaturateInstantiateBudgetBounded(t *testing.T) {
	g := New(nil)
	g.AddTerm(leafT(3, "t"))
	const width = 8
	n := 0
	explode := &Rule{
		Name: "explode",
		LHS:  &Pattern{Op: expr.OpTensor, LeafTID: intPtr(3)},
		Apply: func(g *EGraph, m Match) []UnionPair {
			n++
			c := m.Class
			for i := 0; i < width; i++ {
				var ok bool
				c, ok = g.InstantiateOp(&ENode{Op: opG, Str: fmt.Sprintf("x%d-%d", n, i), Kids: []ClassID{c}})
				if !ok {
					return nil
				}
			}
			return m.With(c)
		},
	}
	maxNodes := g.NodeCount() + 2*width + 3
	stats := g.Saturate([]*Rule{explode}, SaturateOpts{MaxIters: 64, MaxNodes: maxNodes})
	if stats.StopReason != StopNodeLimit || stats.BudgetHit != 1 {
		t.Fatalf("explosive run misclassified: %+v", stats)
	}
	if got := g.NodeCount(); got > maxNodes {
		t.Fatalf("budget overshoot: %d live nodes, MaxNodes %d", got, maxNodes)
	}
	if nodeTotal(g) != g.NodeCount() {
		t.Fatalf("count bookkeeping: NodeCount %d, live total %d", g.NodeCount(), nodeTotal(g))
	}
	assertCongruent(t, g)
}

// TestSaturateDeniedApplicationAssertsNothing is the regression test
// for a budget-declined insert whose rule still returned its union: the
// declined insert hands back class 0, and Saturate used to union the
// match with it before it looked at the denial — merging add(x, y) with
// whatever term class 0 holds. A denied application must assert
// nothing.
func TestSaturateDeniedApplicationAssertsNothing(t *testing.T) {
	g := New(nil)
	other := g.AddTerm(leafT(9, "other"))
	if other != 0 {
		t.Fatalf("the unrelated leaf must sit at class 0, got %d", other)
	}
	add := g.AddTerm(expr.Add(leafT(1, "x"), leafT(2, "y")))
	rule := &Rule{
		Name: "add-is-sum",
		LHS:  POp(expr.OpAdd, nil, PVar("x"), PVar("y")),
		Apply: func(g *EGraph, m Match) []UnionPair {
			c, _ := g.InstantiateOp(&ENode{Op: expr.OpSum, Kids: []ClassID{m.Subst.ClassOf("x"), m.Subst.ClassOf("y")}})
			return m.With(c)
		},
	}
	stats := g.Saturate([]*Rule{rule}, SaturateOpts{MaxIters: 4, MaxNodes: g.NodeCount()})
	if stats.StopReason != StopNodeLimit {
		t.Fatalf("a declined insert must stop the run on the node limit: %+v", stats)
	}
	if g.Find(add) == g.Find(other) {
		t.Fatal("a budget-denied application merged add(x, y) with class 0")
	}
	if len(stats.Applications) != 0 {
		t.Fatalf("a denied application counted as applied: %v", stats.Applications)
	}
	assertCongruent(t, g)
}

// TestSaturatePureRuleRetriesAfterShapeKnown is the regression test for
// a pure match that declined because a shape was not known yet: a later
// union that gives the bound class a shape must let the match fire when
// the matcher offers it again, even though every bound class keeps its
// ID. A record of executed pure matches keyed on their canonical
// bindings used to drop it unexecuted, so the union never happened.
func TestSaturatePureRuleRetriesAfterShapeKnown(t *testing.T) {
	g := New(nil)
	g.SetLeafShapeFn(func(tid int) (shape.Shape, bool) {
		return shape.Shape{sym.Const(4)}, tid == 2 // x (tid 1) has no shape of its own
	})
	x := g.AddTerm(leafT(1, "x"))
	fx := insert(g, opF, nil, x)
	rule := &Rule{
		Name: "shaped-f",
		LHS:  POp(opF, nil, PVar("a")),
		Apply: func(g *EGraph, m Match) []UnionPair {
			a := m.Subst.ClassOf("a")
			if _, ok := g.ShapeOf(a); !ok {
				return nil
			}
			return m.With(insert(g, opG, nil, a))
		},
	}
	rules := []*Rule{rule}
	if stats := g.Saturate(rules, SaturateOpts{}); !stats.Saturated || len(stats.Applications) != 0 {
		t.Fatalf("with x unshaped the rule must decline and the run saturate: %+v", stats)
	}
	g.Union(x, g.AddTerm(leafT(2, "y")))
	g.Rebuild()
	if g.Find(x) != x {
		t.Fatalf("x's class must keep its ID across the union, so the match's bindings are unchanged: Find = %d, want %d", g.Find(x), x)
	}
	if _, ok := g.ShapeOf(x); !ok {
		t.Fatal("the union with y must give x's class a shape")
	}
	stats := g.Saturate(rules, SaturateOpts{})
	if stats.Applications["shaped-f"] != 1 {
		t.Fatalf("the declined match must fire once its shape is known: %v", stats.Applications)
	}
	gx, ok := g.Lookup(&ENode{Op: opG, Kids: []ClassID{x}})
	if !ok || g.Find(gx) != g.Find(fx) {
		t.Fatal("f(x) and test_g(x) must be one class")
	}
	assertCongruent(t, g)
}

// TestSaturateCancelPollBoundsLatency covers the intra-iteration
// cancellation poll: with far more pending matches than the poll
// period, a context cancelled by the first application must stop the
// run within one poll window instead of draining the whole match list
// (the old behavior — cancellation was only observed at iteration
// boundaries, so one bloated iteration could run for seconds after
// Ctrl-C). The graph must still come out rebuilt and congruent.
func TestSaturateCancelPollBoundsLatency(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	g := New(nil)
	const classes = 8 * cancelPollEvery
	for i := 1; i <= classes; i++ {
		g.AddTerm(leafT(i, fmt.Sprintf("t%d", i)))
	}
	apps := 0
	countAndCancel := &Rule{
		Name: "count-and-cancel",
		LHS:  PVar("x"),
		Apply: func(g *EGraph, m Match) []UnionPair {
			apps++
			cancel()
			return nil
		},
	}
	stats := g.Saturate([]*Rule{countAndCancel}, SaturateOpts{MaxIters: 8, MaxNodes: 1 << 20, Ctx: ctx})
	if stats.StopReason != StopCancelled || stats.Cancelled != 1 {
		t.Fatalf("cancelled run misclassified: %+v", stats)
	}
	if stats.Iterations != 1 {
		t.Fatalf("cancel must end the run in its first iteration, ran %d", stats.Iterations)
	}
	if apps > cancelPollEvery {
		t.Fatalf("cancellation latency: %d applications ran after cancel, poll period is %d", apps, cancelPollEvery)
	}
	assertCongruent(t, g)
}
