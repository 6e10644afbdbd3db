package egraph

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"entangle/internal/expr"
	"entangle/internal/fingerprint"
	"entangle/internal/shape"
	"entangle/internal/sym"
)

// emptyFreeList gives the test a free list of its own: empty now, n
// graphs at most, the previous bound (and an empty list) back when the
// test ends.
func emptyFreeList(t *testing.T, n int) {
	t.Helper()
	old := SetFreeListCap(n)
	t.Cleanup(func() { SetFreeListCap(old) })
}

// lifeRules fire on everything a scripted life inserts: a pure rule
// with attribute and kid-list bindings, a union, and a rule that keeps
// inserting until a budget stops it.
func lifeRules() []*Rule {
	return []*Rule{
		{Name: "concat-first", LHS: POpN(expr.OpConcat, []AttrPat{AVar("d")}, "ks"),
			Apply: func(g *EGraph, m Match) []UnionPair { return m.With(m.Subst.KidsOf("ks")[0]) }},
		unionRule("join", 1, 1, 2),
		growRule("grow", 3),
	}
}

// life runs one scripted life on g — terms, a union, shape queries that
// fail, a saturation that stops on its node budget, an extraction — and
// renders everything an observer can see of it: the class IDs handed
// out, the statistics, the class partition, the extracted terms.
func life(g *EGraph, width int) string {
	var b strings.Builder
	g.SetLeafShapeFn(func(tid int) (shape.Shape, bool) {
		return shape.Shape{sym.Const(4)}, tid != 2 // t2's shape is unknown
	})
	var roots []ClassID
	for i := 0; i < width; i++ {
		t := expr.New(expr.OpConcat, []sym.Expr{sym.Const(0)}, "",
			expr.Unary("gelu", leafT(1+i%3, "x")), leafT(2, "y"), expr.MatMul(leafT(3, "z"), leafT(4+i, "w")))
		roots = append(roots, g.AddTerm(t))
	}
	g.Union(roots[0], roots[len(roots)-1])
	g.Rebuild()
	_, known := g.ShapeOf(roots[0])
	st := g.Saturate(lifeRules(), SaturateOpts{MaxIters: 6, MaxNodes: 5*width + 2})
	fmt.Fprintf(&b, "roots=%v shape-known=%t stats=%+v classes=%d nodes=%d\n", roots, known, st, g.ClassCount(), g.NodeCount())
	for _, id := range g.Classes() {
		fmt.Fprintf(&b, "%d:", id)
		for _, n := range g.Nodes(id) {
			fmt.Fprintf(&b, " %s", g.canonCopy(&n).key())
		}
		b.WriteString(" <-")
		for _, p := range g.ParentsOf(id) { // through the node arena
			fmt.Fprintf(&b, " %s@%d", p.Node.key(), p.Class)
		}
		for _, op := range []expr.Op{expr.OpConcat, expr.OpUnary, expr.OpMatMul, expr.OpSlice} {
			if g.ConsumedBy(id, op) {
				fmt.Fprintf(&b, " +%s", op)
			}
		}
		b.WriteByte('\n')
	}
	for _, r := range roots {
		for _, t := range g.CleanCosts(func(int) bool { return true }).ExtractAll(r, 0) {
			b.WriteString(fingerprint.CanonicalTerm(t, nil) + ";")
		}
	}
	return b.String()
}

// A released graph is observably a fresh one: whatever life it led
// before, the next life on it reads exactly like that life on a graph
// New built from nothing.
func TestReleasedGraphIsFresh(t *testing.T) {
	emptyFreeList(t, 1)
	want := life(build(), 3)
	if !strings.Contains(want, "StopReason:node-limit") || !strings.Contains(want, "shape-known=false") {
		t.Fatalf("the scripted life no longer stops on its node budget with a failed shape query:\n%s", want)
	}
	g := New(nil)
	for _, width := range []int{40, 2, 9} { // a heavy life, a tiny one, a middling one
		life(g, width)
		g.Release()
		if !OnFreeList(g) {
			t.Fatalf("released graph (width %d) is not on the free list", width)
		}
		if got := New(nil); got != g {
			t.Fatal("New did not hand out the released graph")
		}
		if got := life(g, 3); got != want {
			t.Fatalf("after a life of width %d the recycled graph differs from a fresh one:\n--- recycled ---\n%s\n--- fresh ---\n%s", width, got, want)
		}
		g.Release()
		if got := New(nil); got != g {
			t.Fatal("New did not hand out the released graph")
		}
	}
}

// Release's emptiness assertion sees each piece of state a life can
// leave behind.
func TestCheckEmptyCatchesLeftovers(t *testing.T) {
	leftovers := map[string]func(g *EGraph){
		"live class":          func(g *EGraph) { g.AddTerm(leafT(1, "a")) },
		"memo entry":          func(g *EGraph) { g.memo.put(nil, 7, 1, 0, 0) },
		"interned head":       func(g *EGraph) { g.headOf(&ENode{Op: opF}) },
		"queued repair":       func(g *EGraph) { g.work = append(g.work, 0) },
		"shape table slot":    func(g *EGraph) { g.shapeAt = append(g.shapeAt, 1) },
		"derived shape":       func(g *EGraph) { g.shapes = append(g.shapes, shape.Shape{sym.Const(2)}) },
		"stale derived shape": func(g *EGraph) { g.shapes[:1][0] = shape.Shape{sym.Const(2)} },
		"stacked kid shape":   func(g *EGraph) { g.shapeArgs = append(g.shapeArgs, nil) },
		"kid slab in use":     func(g *EGraph) { g.kidSlab.take(2) },
		"stacked kid list":    func(g *EGraph) { g.kidStack = append(g.kidStack, 0) },
		"parent slab in use":  func(g *EGraph) { g.parentSlab.take(4) },
		"lemma scratch":       func(g *EGraph) { g.ScratchClasses(1) },
		"scratch expressions": func(g *EGraph) { g.ScratchExprs(1) },
		"scratch tiles":       func(g *EGraph) { g.ScratchTiles(1) },
		"scratch union pair":  func(g *EGraph) { Match{Subst: Bindings{g: g}}.With(0) },
		"stale scratch expression": func(g *EGraph) {
			g.ScratchExprs(1)[0] = sym.Const(3)
			g.scratch.rewind()
		},
		"armed node limit":    func(g *EGraph) { g.nodeLimit = 10 },
		"budget denial":       func(g *EGraph) { g.budgetDenied = true },
		"substitution":        func(g *EGraph) { g.extend(-1) },
		"stacked match":       func(g *EGraph) { g.substStack = append(g.substStack, 0) },
		"listed match":        func(g *EGraph) { g.todoBuf = append(g.todoBuf, ruleMatch{}) },
		"class record in use": func(g *EGraph) { g.classSlab.alloc() },
		"stale class record":  func(g *EGraph) { g.classSlab.chunks[0][7].parents = []parentEntry{{}} },
		"chain link":          func(g *EGraph) { g.next = append(g.next, -1) },
		"arena node":          func(g *EGraph) { g.arena = append(g.arena, ENode{}) },
		"stale arena node":    func(g *EGraph) { g.arena[:1][0].Kids = []ClassID{0} },
		"mark epoch":          func(g *EGraph) { g.markEpoch = 3 },
		"context":             func(g *EGraph) { g.Ctx = sym.NewContext() },
	}
	for name, leave := range leftovers {
		g := New(nil)
		life(g, 5)
		g.reset()
		if err := g.checkEmpty(); err != nil {
			t.Fatalf("a reset graph is not empty: %v", err)
		}
		leave(g)
		if err := g.checkEmpty(); err == nil {
			t.Errorf("checkEmpty missed a leftover %s", name)
		}
	}
}

// An ENode copied out of a graph dies with that graph's Release: its
// cached head belongs to the life that set it.
func TestStaleHeadPanics(t *testing.T) {
	emptyFreeList(t, 1)
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil {
				t.Errorf("%s: no panic", what)
			} else if !strings.Contains(fmt.Sprint(r), "another graph life") {
				t.Errorf("%s: panicked with %v", what, r)
			}
		}()
		fn()
	}
	g := New(nil)
	g.AddTerm(leafT(9, "pad")) // takes head 1, so the copy below carries head 2
	c := g.AddTerm(expr.Unary("gelu", leafT(1, "x")))
	stale := g.Nodes(c)[0]
	if again := g.AddNode(stale); again != c {
		t.Fatalf("re-inserting a node into the life that interned it gave class %d, want %d", again, c)
	}
	g.Release()

	g = New(nil) // the same object, a new life
	k := g.AddTerm(leafT(1, "x"))
	stale.Kids = []ClassID{k}
	mustPanic("AddNode of a copy from before Release", func() { g.AddNode(stale) })
	mustPanic("Lookup of a copy from before Release", func() { g.Lookup(&stale) })

	other := build()
	other.AddTerm(leafT(1, "x"))
	mustPanic("AddNode of a copy from another graph", func() { other.AddNode(stale) })

	// A literal carries no head and is always safe; so is a copy whose
	// head this life happens to have handed out for the same key.
	fresh := ENode{Op: expr.OpUnary, Str: "gelu", Kids: []ClassID{k}}
	c2 := g.AddNode(fresh)
	if again := g.AddNode(g.Nodes(c2)[0]); again != c2 {
		t.Fatalf("re-insert gave class %d, want %d", again, c2)
	}
}

func TestReleaseTwicePanics(t *testing.T) {
	emptyFreeList(t, 0)
	g := New(nil)
	g.Release()
	defer func() {
		if recover() == nil {
			t.Error("second Release did not panic")
		}
	}()
	g.Release()
}

// What the free list keeps is bounded: a kept graph carries no scratch
// beyond the keep* sizes, whatever its last life needed.
func TestReleaseBoundsRetention(t *testing.T) {
	emptyFreeList(t, 2)

	big := New(nil)
	for i := 0; i <= keepSlots; i++ {
		big.AddTerm(leafT(i, "t"))
	}
	big.Release()
	if !OnFreeList(big) {
		t.Fatal("released graph was not kept")
	}
	if n := cap(big.parent) + cap(big.rank) + cap(big.classes) + cap(big.arena) + cap(big.mark); n != 0 {
		t.Errorf("a graph of %d class slots kept %d slots of per-class arrays (keepSlots = %d)", keepSlots+1, n, keepSlots)
	}

	// Within keepSlots, but heavy on everything else: a wide concat that
	// every iteration re-matches into far more substitutions, matches and
	// memo entries than the bounds keep.
	g := New(nil)
	kids := make([]*expr.Term, 0, 200)
	for i := 0; i < 200; i++ {
		kids = append(kids, expr.Unary("gelu", leafT(i, "t")))
	}
	for i := 0; i < 3; i++ {
		g.AddTerm(expr.New(expr.OpConcat, []sym.Expr{sym.Const(int64(i))}, "", kids...))
	}
	g.Rebuild()
	probe := &Rule{Name: "probe",
		LHS:   POp(expr.OpUnary, nil, PVar("x")),
		Apply: func(*EGraph, Match) []UnionPair { return nil }}
	many := make([]*Rule, 12)
	for i := range many {
		many[i] = probe
	}
	g.Saturate(many, SaturateOpts{MaxIters: 2})
	for i := 0; i < keepSlots; i++ { // stale memo keys, as repairs leave them
		g.memo.put(g.arena, uint64(i)<<20, 1, 0, 0)
	}
	if len(g.memo.entries) <= keepSlots || cap(g.todoBuf) <= keepOf[ruleMatch]() || cap(g.substs) <= keepOf[Subst]() || len(g.classSlab.chunks) < 2 {
		t.Fatalf("the life was not heavy enough to test the bounds: memo %d, match list %d, substitution slab %d, class slab chunks %d",
			len(g.memo.entries), cap(g.todoBuf), cap(g.substs), len(g.classSlab.chunks))
	}
	g.Release()
	if !OnFreeList(g) {
		t.Fatal("released graph was not kept")
	}
	if cap(g.parent) == 0 {
		t.Errorf("a graph within keepSlots lost its per-class arrays")
	}
	if len(g.memo.entries) > keepSlots {
		t.Errorf("kept memo table has %d slots, bound %d", len(g.memo.entries), keepSlots)
	}
	// The pointer-free scratch is bounded in bytes, and kept as it is.
	if kept := cap(g.todoBuf) * int(unsafe.Sizeof(ruleMatch{})); kept > keepMatchBytes {
		t.Errorf("kept match list is %d bytes, bound %d", kept, keepMatchBytes)
	}
	if kept := cap(g.substs) * int(unsafe.Sizeof(Subst{})); kept > keepMatchBytes {
		t.Errorf("kept substitution slab is %d bytes, bound %d", kept, keepMatchBytes)
	}
	if kept := cap(g.substStack) * 4; kept > keepMatchBytes {
		t.Errorf("kept e-matching stack is %d bytes, bound %d", kept, keepMatchBytes)
	}
	// The scanned slab is cut back to a chunk, with every record zero.
	if len(g.classSlab.chunks) != 1 {
		t.Errorf("kept class slab has %d chunks, want 1", len(g.classSlab.chunks))
	}
	for i := range g.classSlab.chunks[0] {
		if cl := &g.classSlab.chunks[0][i]; cl.parents != nil || cl.count != 0 {
			t.Fatalf("kept class record %d still holds a class", i)
		}
	}
	for i, cl := range g.classes[:cap(g.classes)] {
		if cl != nil {
			t.Fatalf("kept class table still points at class %d", i)
		}
	}
	if cap(g.arena) == 0 || cap(g.arena) > keepSlots {
		t.Errorf("kept node arena has capacity %d, want within (0, %d]", cap(g.arena), keepSlots)
	}
	if err := g.checkEmpty(); err != nil { // every kept slot, the node arena's included, is zero
		t.Errorf("the kept graph is not empty: %v", err)
	}
}

// A parent entry is an index and a class, not a node: a node with k
// kids is registered k times.
func TestParentEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(parentEntry{}); got != 8 {
		t.Errorf("parentEntry is %d bytes, want 8", got)
	}
}

// Releasing zeroes only the records of the kept slab chunk that the life
// used — the class slab is the one piece of per-node state the collector
// still scans — and leaves every kept record zero all the same. The
// substitution slab, which this test was written for, holds no pointer
// any more and is kept as the life left it.
func TestArenaReleaseClearsWhatTheLifeUsed(t *testing.T) {
	emptyFreeList(t, 1)
	defer func(was bool) { InvariantChecks = was }(InvariantChecks)
	InvariantChecks = true // Release asserts checkEmpty: every kept class record is zero
	g := New(nil)
	for _, width := range []int{30, 2, 1, 12} { // lives that outgrow the kept chunk, then use a few records, then more again
		life(g, width)
		if g.classSlab.ci == 0 && g.classSlab.ni == 0 {
			t.Fatalf("a life of width %d used no class record", width)
		}
		if len(g.substs) == 0 {
			t.Fatalf("a life of width %d left no substitution on the slab", width)
		}
		g.Release()
		if g = New(nil); g.classSlab.ci != 0 || g.classSlab.ni != 0 || len(g.substs) != 0 {
			t.Fatalf("slab cursors survived Release: class slab at %d/%d, %d substitutions", g.classSlab.ci, g.classSlab.ni, len(g.substs))
		}
	}
}

// New and Release from many goroutines at once (run under -race): every
// life must read like a fresh graph's, whoever held the graph before.
func TestNewReleaseConcurrent(t *testing.T) {
	emptyFreeList(t, 4)
	want := life(build(), 3)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				g := New(nil)
				width := 3
				if (i+w)%4 == 0 {
					width = 10 + w // leave something bigger behind now and then
				}
				got := life(g, width)
				if width == 3 && got != want {
					t.Errorf("worker %d life %d differs from a fresh graph's:\n%s\nwant:\n%s", w, i, got, want)
					return
				}
				g.Release()
			}
		}(w)
	}
	wg.Wait()
	if n := FreeListLen(); n > 4 {
		t.Errorf("free list holds %d graphs, bound 4", n)
	}
}
