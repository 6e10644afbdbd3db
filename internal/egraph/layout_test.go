package egraph

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"entangle/internal/expr"
	"entangle/internal/sym"
)

// pointerKind returns the path to the first field of t whose kind makes
// the collector scan the memory holding it, or "" when t is pointer-free.
func pointerKind(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Ptr, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.String,
		reflect.Chan, reflect.Func, reflect.Interface:
		return path + " (" + t.Kind().String() + ")"
	case reflect.Array:
		return pointerKind(t.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p := pointerKind(t.Field(i).Type, path+"."+t.Field(i).Name); p != "" {
				return p
			}
		}
	}
	return ""
}

// What a saturation creates per match, per node and per application sits
// in slabs the collector never scans and Release never clears: that holds
// only while these records stay free of pointers, and stay small.
func TestMatchRecordsArePointerFree(t *testing.T) {
	records := []struct {
		v       any
		maxSize uintptr
	}{
		{Subst{}, 32},
		{ruleMatch{}, 16},
		{memoEntry{}, 24},
		{parentEntry{}, 8},
	}
	for _, r := range records {
		typ := reflect.TypeOf(r.v)
		if p := pointerKind(typ, typ.Name()); p != "" {
			t.Errorf("%s holds a pointer: %s", typ.Name(), p)
		}
		if typ.Size() > r.maxSize {
			t.Errorf("%s is %d bytes, want at most %d", typ.Name(), typ.Size(), r.maxSize)
		}
	}
	if got := unsafe.Sizeof(ruleMatch{}); got != 16 {
		t.Errorf("a match list entry is %d bytes, want 16", got)
	}
	// The walk does see pointers where there are some.
	if pointerKind(reflect.TypeOf(ENode{}), "ENode") == "" || pointerKind(reflect.TypeOf(Class{}), "Class") == "" {
		t.Error("the reflection walk found no pointer in ENode or Class")
	}
}

// A pattern's variables are numbered once, and every substitution of it
// is read through that table: class variables by slot, attribute and
// kid-list variables off the node matched at their operator position.
func TestSlotTableNamesBindings(t *testing.T) {
	g := New(nil)
	x := g.AddTerm(leafT(1, "x"))
	root := g.AddTerm(expr.Slice(expr.Slice(leafT(1, "x"), sym.Const(0), sym.Const(2), sym.Const(8)), sym.Const(1), sym.Const(3), sym.Const(5)))
	p := POp(expr.OpSlice, []AttrPat{AVar("d2"), AVar("b2"), AVar("e2")},
		POp(expr.OpSlice, []AttrPat{AVar("d1"), AVar("b1"), AVar("e1")}, PVar("x")))
	_, vars := compilePattern(p)
	if vars.used != 3 || len(vars.classes) != 1 || len(vars.attrs) != 6 {
		t.Fatalf("slice-of-slice uses %d slots for %d class and %d attribute variables, want 3 for 1 and 6", vars.used, len(vars.classes), len(vars.attrs))
	}
	ms := g.MatchAll(p)
	if len(ms) != 1 || ms[0].Class != root {
		t.Fatalf("want one match at class %d, got %+v", root, ms)
	}
	s := ms[0].Subst
	if s.ClassOf("x") != x {
		t.Errorf("?x bound to class %d, want %d", s.ClassOf("x"), x)
	}
	for name, want := range map[string]int64{"d1": 0, "b1": 2, "e1": 8, "d2": 1, "b2": 3, "e2": 5} {
		if got, ok := s.AttrOf(name).IsConst(); !ok || got != want {
			t.Errorf("?%s bound to %v, want %d", name, s.AttrOf(name), want)
		}
	}
	if got, ok := ms[0].Node.Ints[2].IsConst(); !ok || got != 5 {
		t.Errorf("Match.Node is not the rooting slice: %+v", ms[0].Node)
	}
	for _, unbound := range []func(){func() { s.ClassOf("y") }, func() { s.AttrOf("x") }, func() { s.KidsOf("x") }, func() { Bindings{}.ClassOf("x") }} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "unbound") {
					t.Errorf("reading an unbound variable: %v", r)
				}
			}()
			unbound()
		}()
	}

	// A variable met again filters; a pattern past the slot bound is
	// refused when it is compiled, not when it first matches.
	same := POp(expr.OpAdd, nil, PVar("a"), PVar("a"))
	g.AddTerm(expr.New(expr.OpAdd, nil, "", leafT(1, "x"), leafT(2, "y")))
	twice := g.AddTerm(expr.New(expr.OpAdd, nil, "", leafT(2, "y"), leafT(2, "y")))
	if ms := g.MatchAll(same); len(ms) != 1 || ms[0].Class != twice {
		t.Errorf("(add ?a ?a) matched %+v, want class %d alone", ms, twice)
	}
	wide := make([]*Pattern, maxSlots+1)
	for i := range wide {
		wide[i] = PVar(string(rune('a' + i)))
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "binding slots") {
			t.Errorf("compiling a pattern of %d variables: %v", len(wide), r)
		}
	}()
	CompileRules([]*Rule{{Name: "wide", LHS: POp(expr.OpConcat, nil, wide...)}})
}

// repair dedups a short list by scanning it: after a class with a
// thousand consumers has taken the dedup map to a thousand buckets, the
// repair of a two-node class neither clears nor fills it.
func TestRepairOfSmallClassTouchesNoMap(t *testing.T) {
	g := New(nil)
	hub := g.AddTerm(leafT(0, "hub"))
	other := g.AddTerm(leafT(1, "other"))
	for i := 0; i < 1000; i++ {
		g.AddNode(ENode{Op: opF, Str: string(rune('a' + i)), Kids: []ClassID{hub}})
		g.AddNode(ENode{Op: opF, Str: string(rune('a' + i)), Kids: []ClassID{other}})
	}
	before := g.NodeCount()
	g.Union(hub, other) // 2,000 parent entries, congruent in pairs
	g.Rebuild()
	if len(g.dedup.byHash) < 1000 {
		t.Fatalf("the wide repair left %d hashes in the dedup map: it did not go through it", len(g.dedup.byHash))
	}
	if got := g.NodeCount(); got != before-1000 {
		t.Fatalf("NodeCount %d after merging 1,000 congruent pairs, want %d", got, before-1000)
	}
	left := len(g.dedup.byHash)

	// A small class: two nodes that become one, under two consumers that
	// become congruent.
	a, b := g.AddTerm(leafT(2, "a")), g.AddTerm(leafT(3, "b"))
	ga := g.AddNode(ENode{Op: opG, Kids: []ClassID{a}})
	gb := g.AddNode(ENode{Op: opG, Kids: []ClassID{b}})
	g.Union(ga, gb)
	g.Union(a, b)
	g.Rebuild()
	if got := len(g.dedup.byHash); got != left {
		t.Errorf("repairing a two-node class changed the dedup map from %d to %d entries", left, got)
	}
	if g.dedup.long {
		t.Error("the last repair took the map path")
	}
	if got := g.Class(ga).count; got != 1 || g.NodeCount() != before-1000+3 {
		t.Errorf("g(a) and g(b) were not deduplicated: class holds %d nodes, NodeCount %d, want 1 and %d", got, g.NodeCount(), before-1000+3)
	}
	assertCongruent(t, g)
}

// Re-saturating a graph already at fixpoint under the same rules — what
// the checker's frontier loop does whenever a fold adds nothing new —
// re-matches every class but allocates and applies nothing: the match
// list, the substitutions and the union pairs all live in graph scratch,
// and no statistics map is made.
func TestResaturateAtFixpointAllocatesNothing(t *testing.T) {
	defer func(was bool) { InvariantChecks = was }(InvariantChecks)
	InvariantChecks = false // the audit after each Rebuild allocates
	g := New(nil)
	g.AddTerm(expr.New(expr.OpConcat, []sym.Expr{sym.Const(0)}, "",
		expr.Unary("gelu", leafT(1, "x")), leafT(2, "y"), expr.MatMul(leafT(3, "z"), leafT(4, "w"))))
	rules := lifeRules()[:2] // the pure rules: a kid-list binding, an attribute binding, a union
	opts := SaturateOpts{Compiled: CompileRules(rules)}
	if st := g.Saturate(rules, opts); !st.Saturated || len(st.Applications) == 0 {
		t.Fatalf("the first run must fire and reach fixpoint: %+v", st)
	}
	var st Stats
	allocs := testing.AllocsPerRun(50, func() { st = g.Saturate(rules, opts) })
	if !st.Saturated || st.Iterations != 1 || st.Applications != nil {
		t.Fatalf("a re-run at fixpoint must do one empty iteration: %+v", st)
	}
	if allocs != 0 {
		t.Errorf("re-saturating at fixpoint allocates %.0f times, want 0", allocs)
	}
}

// CheckInvariants sees a node chain or a memo entry that drifted from
// the arena.
func TestCheckInvariantsCatchesChainAndMemoDrift(t *testing.T) {
	build := func() (*EGraph, ClassID, ClassID) {
		g := build()
		fa := g.AddTerm(expr.Unary("gelu", leafT(1, "a")))
		fb := g.AddTerm(expr.Unary("relu", leafT(2, "b")))
		g.Union(fa, fb)
		g.Rebuild()
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("a rebuilt graph violates: %v", err)
		}
		return g, g.Find(fa), g.AddTerm(leafT(3, "c"))
	}
	drifts := map[string]struct {
		drift func(g *EGraph, merged, single ClassID)
		want  string
	}{
		"slot on two chains": {func(g *EGraph, merged, single ClassID) {
			g.next[g.classes[single].last] = g.classes[merged].first
		}, "is chained by class"},
		"chain past the arena": {func(g *EGraph, merged, single ClassID) {
			g.next[g.classes[single].last] = int32(len(g.arena))
		}, "outside the arena"},
		"count drift": {func(g *EGraph, merged, single ClassID) {
			g.classes[merged].count++
		}, "but records"},
		"memo names another node": {func(g *EGraph, merged, single ClassID) {
			for i := range g.memo.entries {
				if e := &g.memo.entries[i]; e.head > 0 && len(g.arena[e.node].Kids) > 0 {
					e.node = int32(single)
					return
				}
			}
		}, "names node"},
		"memo names no node": {func(g *EGraph, merged, single ClassID) {
			for i := range g.memo.entries {
				if e := &g.memo.entries[i]; e.head > 0 {
					e.node = int32(len(g.arena))
					return
				}
			}
		}, "outside the arena"},
		"node without memo entry": {func(g *EGraph, merged, single ClassID) {
			n := &g.arena[single]
			g.memo.del(g.arena, memoHash(n.head, n.Kids), n.head, n.Kids)
		}, "missing from memo"},
	}
	for name, d := range drifts {
		g, merged, single := build()
		d.drift(g, merged, single)
		if err := g.CheckInvariants(); err == nil || !strings.Contains(err.Error(), d.want) {
			t.Errorf("%s: CheckInvariants returned %v, want an error containing %q", name, err, d.want)
		}
	}
}
