package lint

import (
	"testing"

	"entangle/internal/egraph"
	"entangle/internal/expr"
	"entangle/internal/lemmas"
)

// The Layer-1 corpus is constructed in code (lemmas are Go values, not
// data files): one deliberately broken lemma collection per check,
// each proving a true positive.

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

// TestLemmasGolden pins the full report for a collection exhibiting
// every Layer-1 finding at once, in the order Lemmas emits them.
func TestLemmasGolden(t *testing.T) {
	bad := []*lemmas.Lemma{
		one("bad/dup", 1, idElim("ok/general")),
		one("bad/dup", 2, &egraph.Rule{Name: "bad/no-lhs"}),
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
