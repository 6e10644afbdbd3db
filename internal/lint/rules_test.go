package lint

import (
	"testing"

	"entangle/internal/egraph"
	"entangle/internal/expr"
	"entangle/internal/lemmas"
)

// The Layer-1 corpus is constructed in code (lemmas are Go values, not
// data files): one deliberately broken lemma collection per check,
// each proving a true positive, plus negatives guarding against the
// false-positive modes the footprint and kid-requirement checks are
// designed around.

func one(name string, complexity int, rules ...*egraph.Rule) *lemmas.Lemma {
	return &lemmas.Lemma{Name: name, Complexity: complexity, Rules: rules}
}

// idElim is identity(?x) → ?x with a caller-chosen rule name.
func idElim(name string) *egraph.Rule {
	return &egraph.Rule{
		Name: name,
		LHS:  egraph.POp(expr.OpIdentity, nil, egraph.PVar("x")),
		Apply: func(g *egraph.EGraph, m egraph.Match) []egraph.UnionPair {
			return m.With(m.Subst.ClassOf("x"))
		},
	}
}

func TestLemmaDuplicateName(t *testing.T) {
	ds := Lemmas([]*lemmas.Lemma{
		one("bad/dup-lemma", 1, idElim("bad/r1")),
		one("bad/dup-lemma", 1, idElim("bad/r2")),
	})
	findDiag(t, ds, CheckLemmaDuplicateName, "bad/dup-lemma")
}

func TestRuleDuplicateName(t *testing.T) {
	ds := Lemmas([]*lemmas.Lemma{
		one("bad/l1", 1, idElim("bad/dup-rule")),
		one("bad/l2", 1, idElim("bad/dup-rule")),
	})
	findDiag(t, ds, CheckRuleDuplicateName, "bad/dup-rule")
	noDiag(t, ds, CheckLemmaDuplicateName, "bad/l1")
}

// scanning is a dynamic rule over LHS with the given footprint; its
// Apply is irrelevant to the lint.
func scanning(name string, lhs *egraph.Pattern, reads egraph.Footprint) *egraph.Rule {
	return &egraph.Rule{
		Name: name, LHS: lhs, Reads: reads,
		Apply: func(g *egraph.EGraph, m egraph.Match) []egraph.UnionPair { return nil },
	}
}

func TestRuleFootprintShallow(t *testing.T) {
	// sum(identity(?x), …) matched by hand: the LHS alone reads the
	// node set one level down and the classes two levels down.
	deep := egraph.POp(expr.OpSum, nil, egraph.POp(expr.OpIdentity, nil, egraph.PVar("x")))
	ds := Lemmas([]*lemmas.Lemma{one("bad/shallow-lemma", 2, scanning("bad/shallow", deep, egraph.ReadsBelow(1)))})
	d := findDiag(t, ds, CheckRuleFootprintShallow, "bad/shallow")
	if d.Severity != SevError {
		t.Errorf("a footprint shallower than the LHS must be error severity, got %s", d.Severity)
	}

	// Exactly the LHS's own reach is the least a rule may declare; a
	// variadic rule reads its kid list, one level down.
	ds = Lemmas([]*lemmas.Lemma{one("ok/exact-lemma", 2,
		scanning("ok/exact", deep, egraph.ReadsBelow(2)),
		scanning("ok/variadic", egraph.POpN(expr.OpSum, nil, "xs"), egraph.ReadsBelow(1)),
		scanning("ok/consumers", egraph.PVar("x"), egraph.ReadsConsumers()))})
	for _, name := range []string{"ok/exact", "ok/variadic", "ok/consumers"} {
		noDiag(t, ds, CheckRuleFootprintShallow, name)
	}
}

func TestRuleReadsGraph(t *testing.T) {
	ds := Lemmas([]*lemmas.Lemma{one("bad/reads-graph-lemma", 1,
		scanning("bad/reads-graph", egraph.PVar("x"), egraph.ReadsGraph()))})
	d := findDiag(t, ds, CheckRuleReadsGraph, "bad/reads-graph")
	if d.Severity != SevWarning {
		t.Errorf("ReadsGraph is a cost, not a bug: want warning severity, got %s", d.Severity)
	}
	ds = Lemmas([]*lemmas.Lemma{one("ok/pure-lemma", 1, idElim("ok/pure"))})
	noDiag(t, ds, CheckRuleReadsGraph, "ok/pure")
}

// requiring is scanning with a declared kid requirement.
func requiring(name string, lhs *egraph.Pattern, reads egraph.Footprint, kids egraph.KidReq) *egraph.Rule {
	r := scanning(name, lhs, reads)
	r.Kids = kids
	return r
}

func TestRuleKidReq(t *testing.T) {
	sumN := egraph.POpN(expr.OpSum, nil, "xs")
	ds := Lemmas([]*lemmas.Lemma{one("bad/kidreq-lemma", 1,
		requiring("bad/fixed-arity", egraph.POp(expr.OpAdd, nil, egraph.PVar("x"), egraph.PVar("y")), egraph.ReadsBelow(1), egraph.EveryKid(expr.OpScale)),
		requiring("bad/bare-var", egraph.PVar("x"), egraph.ReadsConsumers(), egraph.EveryKid(expr.OpSlice)),
		requiring("bad/typo", sumN, egraph.ReadsBelow(1), egraph.EveryKid("concta")),
		requiring("bad/unread", sumN, egraph.Footprint{}, egraph.EveryKid(expr.OpScale)))})
	for name, check := range map[string]string{
		"bad/fixed-arity": CheckRuleKidReqMisplaced,
		"bad/bare-var":    CheckRuleKidReqMisplaced,
		"bad/typo":        CheckRuleKidReqUnknownOp,
		"bad/unread":      CheckRuleKidReqUnread,
	} {
		if d := findDiag(t, ds, check, name); d.Severity != SevError {
			t.Errorf("%s: a kid requirement the matcher cannot honour must be error severity, got %s", name, d.Severity)
		}
	}

	ds = Lemmas([]*lemmas.Lemma{one("ok/kidreq-lemma", 1,
		requiring("ok/every", sumN, egraph.ReadsBelow(1), egraph.EveryKid(expr.OpScale)),
		requiring("ok/every-deep", sumN, egraph.ReadsBelow(2), egraph.EveryKid(expr.OpConcat)),
		scanning("ok/derived", egraph.POp(expr.OpSlice, nil, egraph.POpN(expr.OpConcat, nil, "xs")), egraph.Footprint{}))})
	for _, name := range []string{"ok/every", "ok/every-deep", "ok/derived"} {
		for _, check := range []string{CheckRuleKidReqMisplaced, CheckRuleKidReqUnknownOp, CheckRuleKidReqUnread} {
			noDiag(t, ds, check, name)
		}
	}
}

// TestLemmasGolden pins the full report for a collection exhibiting
// every Layer-1 finding at once, in the order Lemmas emits them.
func TestLemmasGolden(t *testing.T) {
	bad := []*lemmas.Lemma{
		one("bad/dup", 1, idElim("ok/general")),
		one("bad/dup", 2, &egraph.Rule{Name: "bad/no-lhs"}),
		one("bad/footprints", 2,
			scanning("bad/shallow",
				egraph.POp(expr.OpSum, nil, egraph.POp(expr.OpIdentity, nil, egraph.PVar("x"))),
				egraph.ReadsBelow(1)),
			scanning("bad/reads-graph", egraph.PVar("x"), egraph.ReadsGraph())),
		one("bad/kidreqs", 1,
			requiring("bad/kidreq-fixed", egraph.POp(expr.OpIdentity, nil, egraph.PVar("z")), egraph.ReadsBelow(1), egraph.EveryKid(expr.OpScale)),
			requiring("bad/kidreq-typo", egraph.POpN(expr.OpConcat, nil, "xs"), egraph.Footprint{}, egraph.EveryKid("concta"))),
	}
	checkGolden(t, "rules_golden.txt", Lemmas(bad))
}

// TestDefaultRegistryClean is the acceptance gate: the shipped lemma
// library must produce zero findings of any severity.
func TestDefaultRegistryClean(t *testing.T) {
	ds := Lemmas(lemmas.Default().All())
	for _, d := range ds {
		t.Errorf("default registry finding: %s", d)
	}
}
