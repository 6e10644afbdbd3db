package lemmas

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"entangle/internal/egraph"
	"entangle/internal/expr"
)

func idRule(name string) *egraph.Rule {
	return &egraph.Rule{
		Name: name,
		LHS:  egraph.POp(expr.OpIdentity, nil, egraph.PVar("x")),
		Apply: func(g *egraph.EGraph, m egraph.Match) []egraph.UnionPair {
			return m.With(m.Subst.ClassOf("x"))
		},
	}
}

func TestRegisterRejectsDuplicateLemmaName(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Register(&Lemma{Name: "dup", Rules: []*egraph.Rule{idRule("r1")}}); err != nil {
		t.Fatal(err)
	}
	_, err := r.Register(&Lemma{Name: "dup", Rules: []*egraph.Rule{idRule("r2")}})
	if err == nil || !strings.Contains(err.Error(), `duplicate lemma "dup"`) {
		t.Fatalf("want duplicate-lemma error, got %v", err)
	}
	// The failed Register must leave the registry untouched: one
	// lemma, and r2 not claimed by the rule index.
	if r.Len() != 1 {
		t.Fatalf("Len() = %d after rejected Register, want 1", r.Len())
	}
	if _, err := r.Register(&Lemma{Name: "other", Rules: []*egraph.Rule{idRule("r2")}}); err != nil {
		t.Fatalf("r2 should still be registrable after the rejection: %v", err)
	}
}

func TestRegisterRejectsDuplicateRuleName(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Register(&Lemma{Name: "first", Rules: []*egraph.Rule{idRule("shared")}}); err != nil {
		t.Fatal(err)
	}
	// Across lemmas.
	if _, err := r.Register(&Lemma{Name: "second", Rules: []*egraph.Rule{idRule("shared")}}); err == nil {
		t.Fatal("want error for rule name duplicated across lemmas")
	}
	if _, ok := r.ByName("second"); ok {
		t.Fatal("rejected lemma must not be registered")
	}
	// Within one lemma.
	_, err := r.Register(&Lemma{Name: "third", Rules: []*egraph.Rule{idRule("twice"), idRule("twice")}})
	if err == nil {
		t.Fatal("want error for rule name duplicated within one lemma")
	}
	if len(r.Rules()) != 1 {
		t.Fatalf("Rules() has %d entries, want 1 (rejections must not leak rules)", len(r.Rules()))
	}
}

func TestMustRegisterPanicsOnDuplicate(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(&Lemma{Name: "dup", Rules: []*egraph.Rule{idRule("r1")}})
	defer func() {
		if recover() == nil {
			t.Fatal("MustRegister must panic on a duplicate lemma name")
		}
	}()
	r.MustRegister(&Lemma{Name: "dup", Rules: []*egraph.Rule{idRule("r2")}})
}

func TestRegisterInvalidatesRulesCache(t *testing.T) {
	r := NewRegistry()
	r.MustRegister(&Lemma{Name: "a", Rules: []*egraph.Rule{idRule("ra")}})
	if n := len(r.Rules()); n != 1 {
		t.Fatalf("Rules() = %d, want 1", n)
	}
	r.MustRegister(&Lemma{Name: "b", Rules: []*egraph.Rule{idRule("rb")}})
	if n := len(r.Rules()); n != 2 {
		t.Fatalf("Rules() = %d after second Register, want 2 (cache must invalidate)", n)
	}
}

// update rewrites testdata/registry_golden.txt. Regenerate it only for
// a change that is meant to invalidate every on-disk verdict cache
// (Fingerprint) or to move Figure 6's columns (lemma order).
var update = flag.Bool("update", false, "rewrite golden files")

// shapeOf renders a pattern's structure with variables numbered by
// first occurrence, so two patterns print alike exactly when they match
// the same nodes and bind in the same order, whatever their variables
// are called.
func shapeOf(p *egraph.Pattern, names map[string]string) string {
	v := func(kind, name string) string {
		if _, ok := names[kind+name]; !ok {
			names[kind+name] = fmt.Sprintf("?%s%d", kind, len(names))
		}
		return names[kind+name]
	}
	if p.Var != "" {
		return v("c", p.Var)
	}
	var b strings.Builder
	b.WriteString("(" + string(p.Op))
	if p.Str != "" {
		b.WriteString(":" + p.Str)
	}
	for _, a := range p.Attrs {
		if a.Var != "" {
			b.WriteString(" " + v("a", a.Var))
		} else {
			b.WriteString(" " + a.Lit.String())
		}
	}
	for _, k := range p.Kids {
		b.WriteString(" " + shapeOf(k, names))
	}
	if p.VarKids != "" {
		b.WriteString(" " + v("k", p.VarKids) + "…")
	}
	return b.String() + ")"
}

// TestRegistryGolden pins the library's identity: every lemma's
// position, name, kind, complexity and LOC, every rule's name and
// left-hand-side structure, and the registry fingerprint the verdict
// cache keys on.
func TestRegistryGolden(t *testing.T) {
	const golden = "testdata/registry_golden.txt"
	r := Default()
	var b strings.Builder
	fmt.Fprintf(&b, "fingerprint %s\n", r.Fingerprint())
	for _, l := range r.All() {
		fmt.Fprintf(&b, "%d %s kind=%c complexity=%d loc=%d\n", l.ID, l.Name, l.Kind, l.Complexity, l.LOC)
		for _, rule := range l.Rules {
			fmt.Fprintf(&b, "  %s lhs=%s\n", rule.Name, shapeOf(rule.LHS, map[string]string{}))
		}
	}
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("registry differs from %s\n--- want ---\n%s--- got ---\n%s", golden, want, got)
	}
}
