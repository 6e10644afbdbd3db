package egraph

import (
	"testing"

	"entangle/internal/expr"
	"entangle/internal/sym"
)

// A slice the bump allocator handed out keeps its contents when the
// buffer is outgrown, and no two slices overlap.
func TestBumpSlicesSurviveGrowth(t *testing.T) {
	var b bump[ClassID]
	var held [][]ClassID
	for n := 1; n <= 200; n += 7 {
		s := b.take(n)
		for i := range s {
			s[i] = ClassID(n)
		}
		held = append(held, s)
	}
	for _, s := range held {
		for _, c := range s {
			if c != ClassID(len(s)) {
				t.Fatalf("a slice of %d was overwritten with %d", len(s), c)
			}
		}
	}
	if s := b.take(3); cap(s) != 3 {
		t.Errorf("take(3) has capacity %d: an append to it would write over the next slice", cap(s))
	}
}

// A rule that keeps lemma scratch past its Apply reads garbage under
// InvariantChecks, not what it stored: Saturate takes the scratch back
// after every Apply and overwrites it first.
func TestScratchPoisonedAfterApply(t *testing.T) {
	defer func(was bool) { InvariantChecks = was }(InvariantChecks)
	InvariantChecks = true
	g := New(nil)
	for i := 1; i <= 3; i++ {
		g.AddTerm(leafT(i, "t"))
	}
	var kept []ClassID
	var keptExprs []sym.Expr
	var read []ClassID
	keeper := &Rule{Name: "keeper", LHS: &Pattern{Op: expr.OpTensor},
		Apply: func(g *EGraph, m Match) []UnionPair {
			if kept != nil {
				read = append(read, kept[0])
				if keptExprs[0].Equal(sym.Const(7)) {
					t.Error("a kept scratch expression still holds what the previous Apply stored")
				}
			}
			kept, keptExprs = g.ScratchClasses(1), g.ScratchExprs(1)
			kept[0], keptExprs[0] = m.Class, sym.Const(7)
			return nil
		}}
	g.Saturate([]*Rule{keeper}, SaturateOpts{MaxIters: 1})
	if len(read) != 2 {
		t.Fatalf("the rule read kept scratch %d times, want 2", len(read))
	}
	for _, c := range read {
		if c != poisonClass {
			t.Errorf("a kept scratch slice read class %d, want the poison %d", c, poisonClass)
		}
	}
	g.Release()
}
