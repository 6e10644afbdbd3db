package lint

import (
	"fmt"

	"entangle/internal/egraph"
	"entangle/internal/lemmas"
)

// Layer 1: rule/lemma lint. The lemma library is the trusted base of
// every refinement proof, and most of it is hand-written pattern code
// — exactly the kind of library "Searching Entangled Program Spaces"
// observes is fragile without its own tooling. A rule is an LHS
// pattern plus an Apply closure; these checks read what is declared
// beside the closure: names and the LHS. What Apply builds is the
// soundness tests' to check.
const (
	// CheckLemmaDuplicateName fires when two lemmas share a name.
	CheckLemmaDuplicateName = "lemma-duplicate-name"
	// CheckRuleDuplicateName fires when two rules share a name, across
	// all lemmas.
	CheckRuleDuplicateName = "rule-duplicate-name"
	// CheckRuleNoLHS fires when a rule has no LHS pattern: it can never
	// match, and compiling it would panic.
	CheckRuleNoLHS = "rule-no-lhs"
)

// Lemmas lints a lemma collection (normally Registry.All()). The
// slice form, rather than a *Registry, lets tests lint deliberately
// broken collections a registry would refuse to hold.
func Lemmas(ls []*lemmas.Lemma) []Diagnostic {
	var out []Diagnostic
	out = append(out, checkDuplicateNames(ls)...)
	for _, l := range ls {
		for _, r := range l.Rules {
			out = append(out, checkLHS(r)...)
		}
	}
	return out
}

func checkDuplicateNames(ls []*lemmas.Lemma) []Diagnostic {
	var out []Diagnostic
	lemmaSeen := map[string]bool{}
	ruleSeen := map[string]string{} // rule name → owning lemma name
	for _, l := range ls {
		if lemmaSeen[l.Name] {
			out = append(out, Diagnostic{
				Check: CheckLemmaDuplicateName, Severity: SevError, Subject: l.Name,
				Message: "lemma name registered more than once; the later registration would silently shadow the earlier in any name lookup",
			})
		}
		lemmaSeen[l.Name] = true
		for _, r := range l.Rules {
			if prev, dup := ruleSeen[r.Name]; dup {
				out = append(out, Diagnostic{
					Check: CheckRuleDuplicateName, Severity: SevError, Subject: r.Name,
					Message: fmt.Sprintf("rule name already used by lemma %q; per-rule application stats and lemma attribution would merge the two", prev),
				})
				continue
			}
			ruleSeen[r.Name] = l.Name
		}
	}
	return out
}

// checkLHS reports a rule with no LHS pattern.
func checkLHS(r *egraph.Rule) []Diagnostic {
	if r.LHS != nil {
		return nil
	}
	return []Diagnostic{{
		Check: CheckRuleNoLHS, Severity: SevError, Subject: r.Name,
		Message: "rule has no LHS pattern",
	}}
}
