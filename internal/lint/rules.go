package lint

import (
	"fmt"
	"sort"

	"entangle/internal/egraph"
	"entangle/internal/expr"
	"entangle/internal/lemmas"
)

// Layer 1: rule/lemma lint. The lemma library is the trusted base of
// every refinement proof, and most of it is hand-written pattern code
// — exactly the kind of library "Searching Entangled Program Spaces"
// observes is fragile without its own tooling. These checks run over
// the declarative parts of every rule: the LHS pattern always, and
// the RHS template when the rule was built with egraph.Simple or
// egraph.Constrained (dynamic rules keep RHS nil and are skipped by
// the template checks).
const (
	// CheckLemmaDuplicateName fires when two lemmas share a name.
	CheckLemmaDuplicateName = "lemma-duplicate-name"
	// CheckRuleDuplicateName fires when two rules share a name, across
	// all lemmas.
	CheckRuleDuplicateName = "rule-duplicate-name"
	// CheckRuleUnboundRHSVar fires when a declarative RHS template
	// references a class variable the LHS never binds — instantiation
	// would panic at rewrite time.
	CheckRuleUnboundRHSVar = "rule-unbound-rhs-var"
	// CheckRuleSelfLoop fires when a declarative rule's RHS rebuilds
	// its LHS verbatim: the union is always a no-op and the rule is
	// dead weight in every saturation iteration.
	CheckRuleSelfLoop = "rule-self-loop"
	// CheckRuleShadowed fires when a declarative rule is subsumed by
	// an earlier declarative rule with a more general LHS and a
	// coinciding RHS — every union the later rule could add, the
	// earlier one already adds.
	CheckRuleShadowed = "rule-shadowed"
	// CheckLemmaComplexityDrift fires when a lemma's declared
	// Complexity (operators appearing in the lemma, the paper's
	// Figure 5a metric) disagrees with the operator count in its own
	// patterns. Only computable for lemmas whose rules all carry
	// declarative RHS templates.
	CheckLemmaComplexityDrift = "lemma-complexity-drift"
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
	// Apply reads only its bindings cannot depend on — and a pure match
	// is fingerprinted, so the naive matcher would never re-apply the
	// match a node gained later opens the gate for.
	CheckRuleKidReqUnread = "rule-kidreq-unread"
)

// Lemmas lints a lemma collection (normally Registry.All()). The
// slice form, rather than a *Registry, lets tests lint deliberately
// broken collections a registry would refuse to hold.
func Lemmas(ls []*lemmas.Lemma) []Diagnostic {
	var out []Diagnostic
	out = append(out, checkDuplicateNames(ls)...)
	var all []*egraph.Rule
	owners := map[*egraph.Rule]*lemmas.Lemma{}
	for _, l := range ls {
		for _, r := range l.Rules {
			all = append(all, r)
			owners[r] = l
		}
	}
	for _, r := range all {
		out = append(out, checkRuleTemplates(r)...)
		out = append(out, checkFootprint(r)...)
		out = append(out, checkKidReq(r)...)
	}
	out = append(out, checkShadowing(all)...)
	for _, l := range ls {
		out = append(out, checkComplexity(l)...)
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

// checkRuleTemplates runs the per-rule declarative checks: unbound
// RHS variables and trivial self-loops.
func checkRuleTemplates(r *egraph.Rule) []Diagnostic {
	var out []Diagnostic
	if r.LHS == nil {
		out = append(out, Diagnostic{
			Check: CheckRuleUnboundRHSVar, Severity: SevError, Subject: r.Name,
			Message: "rule has no LHS pattern",
		})
		return out
	}
	if r.RHS == nil {
		return nil // dynamic rule: nothing declarative to check
	}
	bound := map[string]bool{}
	collectBoundVars(r.LHS, bound)
	var unbound []string
	collectRHSVars(r.RHS, func(v string) {
		if !bound[v] {
			unbound = append(unbound, v)
		}
	})
	sort.Strings(unbound)
	for i, v := range unbound {
		if i > 0 && unbound[i-1] == v {
			continue
		}
		out = append(out, Diagnostic{
			Check: CheckRuleUnboundRHSVar, Severity: SevError, Subject: r.Name,
			Message: fmt.Sprintf("RHS template references ?%s, which the LHS never binds; Instantiate would panic on the first match", v),
		})
	}
	if patternEqualsRTerm(r.LHS, r.RHS) {
		out = append(out, Diagnostic{
			Check: CheckRuleSelfLoop, Severity: SevError, Subject: r.Name,
			Message: "RHS rebuilds the LHS verbatim; the rule can only union a class with itself",
		})
	}
	return out
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

// checkShadowing flags declarative rules fully covered by an earlier
// declarative rule: the earlier LHS subsumes the later one, and under
// that subsumption the two RHS templates build the same term. Such a
// rule never contributes a union the earlier rule hasn't already
// made.
func checkShadowing(rules []*egraph.Rule) []Diagnostic {
	var out []Diagnostic
	for i, general := range rules {
		if general.RHS == nil || general.LHS == nil {
			continue
		}
		for _, specific := range rules[i+1:] {
			if specific.RHS == nil || specific.LHS == nil || specific.Name == general.Name {
				continue
			}
			bind := newBinding()
			if !subsumes(general.LHS, specific.LHS, bind) {
				continue
			}
			if !rhsCoincides(general.RHS, specific.RHS, bind) {
				continue
			}
			out = append(out, Diagnostic{
				Check: CheckRuleShadowed, Severity: SevWarning, Subject: specific.Name,
				Message: fmt.Sprintf("shadowed by earlier rule %q, whose more general LHS %s already produces the same RHS on every match", general.Name, general.LHS),
			})
		}
	}
	return out
}

// checkComplexity recomputes a lemma's Complexity from its patterns —
// the count of operator applications on both sides of the rewrite,
// maximized over the lemma's rules (forward and reverse directions of
// one equation give the same count). Lemmas with any dynamic rule are
// skipped: their RHS operator count is not statically visible.
func checkComplexity(l *lemmas.Lemma) []Diagnostic {
	computed := 0
	for _, r := range l.Rules {
		if r.RHS == nil || r.LHS == nil {
			return nil
		}
		if n := patternOpCount(r.LHS) + rtermOpCount(r.RHS); n > computed {
			computed = n
		}
	}
	if len(l.Rules) == 0 || computed == l.Complexity {
		return nil
	}
	return []Diagnostic{{
		Check: CheckLemmaComplexityDrift, Severity: SevWarning, Subject: l.Name,
		Message: fmt.Sprintf("declared Complexity %d, but the rule patterns contain %d operator applications", l.Complexity, computed),
	}}
}

// collectBoundVars gathers every class variable a pattern binds
// (bare-class vars only: RHS templates cannot reference attribute or
// variadic-kids bindings, which are only reachable through Apply
// closures).
func collectBoundVars(p *egraph.Pattern, into map[string]bool) {
	if p == nil {
		return
	}
	if p.Var != "" {
		into[p.Var] = true
		return
	}
	for _, k := range p.Kids {
		collectBoundVars(k, into)
	}
}

func collectRHSVars(t *egraph.RTerm, f func(string)) {
	if t == nil {
		return
	}
	if t.VarName != "" {
		f(t.VarName)
		return
	}
	for _, k := range t.Kids {
		collectRHSVars(k, f)
	}
}

// patternOpCount counts operator applications in a pattern (variables
// count zero; a variadic-kids node counts one, its width is dynamic).
func patternOpCount(p *egraph.Pattern) int {
	if p == nil || p.Var != "" {
		return 0
	}
	n := 1
	for _, k := range p.Kids {
		n += patternOpCount(k)
	}
	return n
}

func rtermOpCount(t *egraph.RTerm) int {
	if t == nil || t.VarName != "" || t.HasDirect || t.IsLeaf {
		return 0
	}
	n := 1
	for _, k := range t.Kids {
		n += rtermOpCount(k)
	}
	return n
}

// patternEqualsRTerm reports whether an RHS template rebuilds exactly
// the term shape the pattern matches — the self-loop test. Attribute
// variables in the pattern can never equal the template's concrete
// attribute expressions, so any AttrPat.Var makes the answer false.
func patternEqualsRTerm(p *egraph.Pattern, t *egraph.RTerm) bool {
	if p == nil || t == nil {
		return false
	}
	if p.Var != "" {
		return t.VarName == p.Var
	}
	if t.VarName != "" || t.HasDirect {
		return false
	}
	if p.LeafTID != nil {
		return t.IsLeaf && t.LeafTID == *p.LeafTID
	}
	if t.IsLeaf {
		return false
	}
	if p.Op != t.Op || p.Str != t.Str || p.VarKids != "" {
		return false
	}
	if len(p.Kids) != len(t.Kids) || len(p.Attrs) != len(t.Ints) {
		return false
	}
	for i, a := range p.Attrs {
		if a.Var != "" || !a.Lit.Equal(t.Ints[i]) {
			return false
		}
	}
	for i := range p.Kids {
		if !patternEqualsRTerm(p.Kids[i], t.Kids[i]) {
			return false
		}
	}
	return true
}
