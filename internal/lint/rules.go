package lint

import (
	"fmt"

	"entangle/internal/egraph"
	"entangle/internal/expr"
	"entangle/internal/lemmas"
)

// Layer 1: rule/lemma lint. The lemma library is the trusted base of
// every refinement proof, and most of it is hand-written pattern code
// — exactly the kind of library "Searching Entangled Program Spaces"
// observes is fragile without its own tooling. A rule is an LHS
// pattern plus an Apply closure; these checks read what is declared
// beside the closure: names, the LHS, the read footprint and the kid
// requirement. What Apply builds is the soundness tests' to check.
const (
	// CheckLemmaDuplicateName fires when two lemmas share a name.
	CheckLemmaDuplicateName = "lemma-duplicate-name"
	// CheckRuleDuplicateName fires when two rules share a name, across
	// all lemmas.
	CheckRuleDuplicateName = "rule-duplicate-name"
	// CheckRuleNoLHS fires when a rule has no LHS pattern: it can never
	// match, and compiling it would panic.
	CheckRuleNoLHS = "rule-no-lhs"
	// CheckRuleFootprintShallow fires when a rule declares
	// egraph.ReadsBelow with fewer levels than its own LHS reaches: the
	// declaration claims Apply reads less than matching already did.
	// (The matcher never gates a rule below its LHS depth, so this is
	// a wrong declaration, not yet a wrong answer — but the next edit
	// to the LHS would make it one.)
	CheckRuleFootprintShallow = "rule-footprint-shallow"
	// CheckRuleReadsGraph fires when a rule declares egraph.ReadsGraph:
	// it is re-matched on every class every iteration, the cost the
	// indexed matcher exists to avoid. A lemma that scans e-graph
	// state should say how far (ReadsBelow, ReadsConsumers).
	CheckRuleReadsGraph = "rule-reads-graph"
	// CheckRuleKidReqMisplaced fires when a rule declares a kid
	// requirement (egraph.EveryKid) but its LHS is not variadic at the
	// root: the matcher ignores the declaration there — a fixed-arity
	// pattern's operator-rooted kid positions already say it, and a bare
	// variable binds no kid list.
	CheckRuleKidReqMisplaced = "rule-kidreq-misplaced"
	// CheckRuleKidReqUnknownOp fires when a declared kid requirement
	// names an operator expr does not define: no class ever holds such a
	// node, so the rule would be withheld everywhere (or, for a typo of
	// the intended operator, from every match it should fire on).
	CheckRuleKidReqUnknownOp = "rule-kidreq-unknown-op"
	// CheckRuleKidReqUnread fires when a pure rule declares EveryKid: the
	// requirement is about the kid classes' node sets, which a rule whose
	// Apply reads only its bindings cannot depend on.
	CheckRuleKidReqUnread = "rule-kidreq-unread"
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
			out = append(out, checkFootprint(r)...)
			out = append(out, checkKidReq(r)...)
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

// checkFootprint checks a rule's read-footprint declaration against
// what is statically known about the rule.
func checkFootprint(r *egraph.Rule) []Diagnostic {
	if r.Reads.Unbounded() {
		return []Diagnostic{{
			Check: CheckRuleReadsGraph, Severity: SevWarning, Subject: r.Name,
			Message: "declares ReadsGraph: the rule is re-matched on every class in every saturation iteration; declare how far Apply reads (ReadsBelow, ReadsConsumers) so the matcher can skip unchanged classes",
		}}
	}
	levels, ok := r.Reads.Levels()
	if !ok || r.LHS == nil {
		return nil
	}
	if need := r.LHS.Depth() - 1; levels < need {
		return []Diagnostic{{
			Check: CheckRuleFootprintShallow, Severity: SevError, Subject: r.Name,
			Message: fmt.Sprintf("declares ReadsBelow(%d), but its LHS %s already reads %d level(s) below the match root", levels, r.LHS, need),
		}}
	}
	return nil
}

// checkKidReq checks a rule's declared kid requirement against its LHS
// and footprint.
func checkKidReq(r *egraph.Rule) []Diagnostic {
	if r.Kids.None() || r.LHS == nil {
		return nil
	}
	var out []Diagnostic
	if r.LHS.VarKids == "" {
		out = append(out, Diagnostic{
			Check: CheckRuleKidReqMisplaced, Severity: SevError, Subject: r.Name,
			Message: fmt.Sprintf("declares the kid requirement %s, but its LHS %s is not variadic at the root: only a POpN pattern binds a kid list to require something of (a fixed-arity pattern's requirements are derived from its operator-rooted kids)", r.Kids, r.LHS),
		})
	}
	if _, known := expr.Arity(r.Kids.Op()); !known {
		out = append(out, Diagnostic{
			Check: CheckRuleKidReqUnknownOp, Severity: SevError, Subject: r.Name,
			Message: fmt.Sprintf("declares the kid requirement %s, but expr defines no operator %q", r.Kids, r.Kids.Op()),
		})
	}
	if r.Reads.Pure() {
		out = append(out, Diagnostic{
			Check: CheckRuleKidReqUnread, Severity: SevError, Subject: r.Name,
			Message: fmt.Sprintf("declares the kid requirement %s but no read footprint: a rule that looks for operator nodes in its kid classes reads one level below the match and must declare ReadsBelow(1) or more", r.Kids),
		})
	}
	return out
}
