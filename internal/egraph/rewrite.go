package egraph

import (
	"context"
	"fmt"
	"sort"

	"entangle/internal/expr"
)

// Rule is a rewrite rule (a "lemma" in the paper's terms, §4.2.1).
// LHS matches produce substitutions; Apply returns the classes that
// should be unioned with the matched class. A nil result (or empty
// slice) means the rule's condition did not hold for this match.
type Rule struct {
	Name string

	LHS *Pattern

	// RHS is the declarative right-hand-side template, when the rule
	// has one (rules built with Simple and Constrained always do).
	// Apply remains the executable form; RHS exists so static tooling
	// (internal/lint) can reason about what the rule builds — unbound
	// template variables, trivial self-loops, redundant specializations
	// — without running it. Rules whose right-hand side is computed
	// from e-graph state leave RHS nil.
	RHS *RTerm

	// Reads declares what Apply reads of the e-graph beyond the match
	// bindings. The zero value is a pure rule — Apply is a function of
	// its bindings — which is applied at most once per distinct match
	// fingerprint. A rule that scans class members or consumers
	// declares how far (ReadsBelow, ReadsConsumers) and is re-applied,
	// unfingerprinted, wherever that footprint met a change since it
	// last ran; ReadsGraph declares no bound and re-runs on every class
	// every iteration. See Footprint.
	Reads Footprint

	// Kids declares, for a rule whose LHS is variadic at the root (POpN),
	// what its Apply requires of the bound kid list before it does
	// anything (EveryKid, SomeKid, SameKids); the zero value requires
	// nothing. The indexed matcher answers it from the per-class operator
	// counts and withholds the match where it fails, before any
	// substitution is built. A fixed-arity LHS declares nothing: its
	// operator-rooted kid positions say the same and are read off the
	// pattern. See KidReq.
	Kids KidReq

	// Apply builds the right-hand side(s) and returns the class pairs
	// to union. Most rules union the matched class with one RHS class
	// (use m.With); generative lemmas may union other pairs.
	// Conditioned rules inspect g.Ctx and the substitution and decline
	// by returning nil.
	Apply func(g *EGraph, m Match) []UnionPair
}

// Footprint is a rule's declaration of what its Apply reads beyond the
// match bindings — the one thing the indexed matcher (index.go) needs
// to know to re-run the rule only where something changed. The
// contract of a bounded footprint: between two applications of the
// same match, Apply's result can only differ if a class inside the
// footprint gained a node or was merged, or a ShapeOf query that
// failed now succeeds (the matcher falls back to every-iteration
// matching on a graph where any ShapeOf query has failed, so shapes
// need no declaration). The matched class itself may only be used as
// a union endpoint: which class the matched node sits in is not part
// of any footprint.
type Footprint struct {
	kind   footprintKind
	levels int
}

type footprintKind uint8

const (
	readsBindings footprintKind = iota // pure: the zero value
	readsBelow
	readsConsumers
	readsGraph
)

// ReadsBelow declares that Apply reads the node sets, or compares the
// union-find identity, of classes up to levels steps below the matched
// root — the root's kid classes are level 1 — and nothing else. It
// must cover at least what the LHS binds (levels >= LHS depth - 1,
// which entangle-lint enforces): a variadic rule that only reorders
// its bound kid list declares 1, one that scans the kid classes'
// nodes declares 1, one that also compares the classes those nodes
// point at declares 2.
func ReadsBelow(levels int) Footprint { return Footprint{kind: readsBelow, levels: levels} }

// ReadsConsumers declares a bare-variable rule whose Apply enumerates
// the consumers of the matched class (EachParent) and the classes
// holding them.
func ReadsConsumers() Footprint { return Footprint{kind: readsConsumers} }

// ReadsGraph declares no bound at all: Apply may read anything, so
// the rule is re-matched on every class every iteration. Nothing in
// the lemma library should need it (entangle-lint reports a registry
// rule that declares it); it is the honest spelling for a test rule
// with side effects.
func ReadsGraph() Footprint { return Footprint{kind: readsGraph} }

// Pure reports the zero footprint: Apply reads only its bindings.
func (f Footprint) Pure() bool { return f.kind == readsBindings }

// Unbounded reports a ReadsGraph footprint.
func (f Footprint) Unbounded() bool { return f.kind == readsGraph }

// Levels returns the declared depth of a ReadsBelow footprint.
func (f Footprint) Levels() (int, bool) { return f.levels, f.kind == readsBelow }

func (f Footprint) String() string {
	switch f.kind {
	case readsBelow:
		return fmt.Sprintf("below(%d)", f.levels)
	case readsConsumers:
		return "consumers"
	case readsGraph:
		return "graph"
	}
	return "bindings"
}

// KidReq is a variadic rule's declaration of a necessary condition for
// its Apply to have an effect, over the kid classes the LHS binds: on a
// graph where the condition fails, Apply inserts nothing and returns no
// effective union. It is a promise about Apply, not a replacement for
// its checks — Apply still makes them, on the graph it runs on, which
// an earlier application of the same apply phase may have changed — and
// what lets the indexed matcher (index.go) withhold the match. Like a
// read footprint, a wrong declaration is caught by the withheld-match
// audit under InvariantChecks.
type KidReq struct {
	kind kidReqKind
	op   expr.Op
}

type kidReqKind uint8

const (
	kidsAny   kidReqKind = iota // the zero value: no requirement
	kidsEvery                   // every kid class holds an op node
	kidsSome                    // at least one kid class holds an op node
	kidsSame                    // all kids are one class
	// kidAt is not declarable: the matcher derives it from an
	// operator-rooted kid position of a fixed-arity LHS (index.go).
	kidAt
)

// EveryKid declares that Apply declines unless every bound kid class
// holds a node with operator op.
func EveryKid(op expr.Op) KidReq { return KidReq{kind: kidsEvery, op: op} }

// SomeKid declares that Apply declines unless at least one bound kid
// class holds a node with operator op.
func SomeKid(op expr.Op) KidReq { return KidReq{kind: kidsSome, op: op} }

// SameKids declares that Apply declines unless all bound kids are one
// and the same class.
func SameKids() KidReq { return KidReq{kind: kidsSame} }

// None reports the zero requirement.
func (k KidReq) None() bool { return k.kind == kidsAny }

// Op returns the operator an EveryKid or SomeKid requirement names.
func (k KidReq) Op() (expr.Op, bool) { return k.op, k.kind == kidsEvery || k.kind == kidsSome }

func (k KidReq) String() string {
	switch k.kind {
	case kidsEvery:
		return "every:" + string(k.op)
	case kidsSome:
		return "some:" + string(k.op)
	case kidsSame:
		return "same"
	}
	return "-"
}

// UnionPair is one equivalence a rule asserts.
type UnionPair struct{ A, B ClassID }

// With pairs the matched class with c — the common rule result. The
// list is lemma scratch, which Saturate reads before it takes the
// scratch back; appending to it copies it.
func (m Match) With(c ClassID) []UnionPair {
	p := m.Subst.g.scratch.pairs.take(1)
	p[0] = UnionPair{m.Class, c}
	return p
}

// Simple builds the common universal-lemma shape: LHS pattern →
// RHS template, unconditionally. The template is kept on Rule.RHS as
// declarative metadata alongside the Apply closure that executes it.
func Simple(name string, lhs *Pattern, rhs *RTerm) *Rule {
	return templated(name, lhs, rhs, false)
}

// Constrained builds a rule whose RHS is only added when its nodes
// already exist in the e-graph (the paper's constrained lemmas,
// §4.3.2, used for generative rules like slice splitting).
func Constrained(name string, lhs *Pattern, rhs *RTerm) *Rule {
	return templated(name, lhs, rhs, true)
}

func templated(name string, lhs *Pattern, rhs *RTerm, lookupOnly bool) *Rule {
	return &Rule{
		Name: name,
		LHS:  lhs,
		RHS:  rhs,
		Apply: func(g *EGraph, m Match) []UnionPair {
			c, ok := g.Instantiate(rhs, m.Subst, lookupOnly)
			if !ok {
				return nil
			}
			return m.With(c)
		},
	}
}

// naiveMatcher selects the naive reference matcher (matchRules), which
// re-visits every class × rule pair each iteration, instead of the
// indexed dirty-tracked matcher (index.go). The indexed matcher
// withholds only matches that are no-ops on the graph a match phase
// sees, so the two produce identical applications, stats, and
// extraction results wherever no application reaches into a withheld
// match later in its own apply phase — everywhere in the model corpus,
// which this package's differential tests pin. Only those tests set it
// (SetNaiveMatcher, export_test.go).
var naiveMatcher bool

// SaturateOpts bound a saturation run. Zero values select defaults.
type SaturateOpts struct {
	MaxIters int // default 16
	// MaxNodes caps the number of *live* ENodes — the value reported
	// by EGraph.NodeCount(), i.e. distinct nodes currently stored
	// across all classes, after dedup. The cap is enforced inside rule
	// instantiation: an application that would create a node beyond it
	// is declined (its unions don't happen), and Saturate stops
	// applying further matches, rebuilds (so the e-graph is left
	// congruent), and returns with Saturated == false. Rules that
	// build nodes directly through AddNode bypass the per-node check,
	// so the live count can overshoot by at most one application's
	// worth of nodes. Default 40_000.
	MaxNodes int
	// Ctx, when non-nil, cancels the run: it is polled between
	// iterations and every few match applications, so a cancelled
	// Saturate returns promptly even mid-iteration — always after
	// Rebuild, leaving the e-graph congruent exactly as on a budget
	// stop. A nil Ctx never cancels.
	Ctx context.Context
	// Compiled, when non-nil, supplies a precompiled analysis of
	// exactly the rules slice passed to Saturate (CompileRules), saving
	// the per-call compilation. A CompiledRules value is read-only
	// during matching, so one value may be shared across goroutines and
	// e-graphs. Nil means Saturate compiles on entry.
	Compiled *CompiledRules
}

func (o SaturateOpts) withDefaults() SaturateOpts {
	if o.MaxIters == 0 {
		o.MaxIters = 16
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 40_000
	}
	return o
}

// StopReason records why a saturation run stopped. Values are ordered
// by severity so Merge can keep the most severe reason seen across
// runs; the zero value (StopNone, "no run yet") is the Merge identity.
type StopReason int

const (
	// StopNone is the zero value: no saturation run recorded.
	StopNone StopReason = iota
	// StopSaturated: the run reached fixpoint.
	StopSaturated
	// StopIterLimit: MaxIters elapsed before fixpoint.
	StopIterLimit
	// StopNodeLimit: an application pushed the live node count past
	// MaxNodes.
	StopNodeLimit
	// StopCancelled: SaturateOpts.Ctx was cancelled.
	StopCancelled
)

func (r StopReason) String() string {
	switch r {
	case StopNone:
		return "none"
	case StopSaturated:
		return "saturated"
	case StopIterLimit:
		return "iter-limit"
	case StopNodeLimit:
		return "node-limit"
	case StopCancelled:
		return "cancelled"
	}
	return fmt.Sprintf("StopReason(%d)", int(r))
}

// Stats reports what a saturation run did. Applications counts, per
// rule name, the number of matches whose union changed the e-graph —
// the quantity plotted in the paper's Figure 6 heatmap; Saturate leaves
// it nil when no rule fired, and Merge makes the accumulator's.
type Stats struct {
	Iterations   int
	Applications map[string]int
	Saturated    bool // every merged run reached fixpoint (vs. limit hit)
	Nodes        int
	// Matches counts e-matches collected across all iterations (before
	// the applied-fingerprint filter): the match-loop work the
	// `-exp saturate` bench tracks per iteration. With dirty tracking
	// against each rule's footprint this is far below classes × rules ×
	// iterations; it is the one statistic the two matchers differ in.
	Matches int
	// Runs counts the saturation runs accumulated into this value.
	// The zero value (Runs == 0) is the identity of Merge: merging a
	// run into it adopts that run's Saturated flag instead of AND-ing
	// with the zero value's false.
	Runs int
	// Cancelled counts merged runs stopped by context cancellation.
	Cancelled int
	// BudgetHit counts merged runs stopped by MaxIters or MaxNodes —
	// the "inconclusive, not disproved" signal the checker's verdict
	// layer and budget escalation key off.
	BudgetHit int
	// StopReason is the most severe stop cause across merged runs
	// (cancelled > node-limit > iter-limit > saturated). The zero
	// value StopNone is the Merge identity.
	StopReason StopReason
}

// RuleNames lists rules with non-zero applications, sorted.
func (s Stats) RuleNames() []string {
	var names []string
	for n, c := range s.Applications {
		if c > 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// Merge accumulates another run's stats into s. The zero Stats value
// is an identity: Saturated is adopted from the first real run merged
// in and AND-ed thereafter, so accumulators need no pre-seeding.
func (s *Stats) Merge(o Stats) {
	s.Iterations += o.Iterations
	if s.Applications == nil {
		s.Applications = map[string]int{}
	}
	for k, v := range o.Applications {
		s.Applications[k] += v
	}
	switch {
	case o.Runs == 0:
		// Merging an empty accumulator: nothing ran, keep s.Saturated.
	case s.Runs == 0:
		s.Saturated = o.Saturated
	default:
		s.Saturated = s.Saturated && o.Saturated
	}
	s.Runs += o.Runs
	s.Matches += o.Matches
	if o.Nodes > s.Nodes {
		s.Nodes = o.Nodes
	}
	s.Cancelled += o.Cancelled
	s.BudgetHit += o.BudgetHit
	if o.StopReason > s.StopReason {
		s.StopReason = o.StopReason
	}
}

// cancelPollEvery is how many match applications pass between context
// polls inside one saturation iteration — frequent enough that a
// cancelled deadline stops a large iteration in well under its full
// apply cost, rare enough that Ctx.Err is off the hot path.
const cancelPollEvery = 32

// appendFingerprint serializes a pure-rule match identity into buf:
// rule name plus every bound class (canonicalized), attribute value, and
// kid-list, each in binding order (the slot table's), length-prefixed so
// distinct matches never collide. Both matchers fingerprint identically,
// which is what makes the indexed matcher's skipped re-matches
// unobservable. Attributes go in by value, not by where they were read:
// two matches that bind equal attributes off different nodes are one
// application.
func (g *EGraph) appendFingerprint(buf []byte, cr *CompiledRules, p ruleMatch) []byte {
	put := func(v ClassID) {
		u := uint32(v)
		buf = append(buf, byte(u), byte(u>>8), byte(u>>16), byte(u>>24))
	}
	buf = append(buf, cr.rules[p.rule].Name...)
	buf = append(buf, 0) // rule names are NUL-free, so the prefix is unambiguous
	put(g.Find(ClassID(p.class)))
	vars := cr.vars[p.rule]
	if vars.used == 0 {
		return buf
	}
	slot := &g.substs[p.subst].slot
	for _, v := range vars.classes {
		buf = append(buf, 'c')
		put(g.Find(ClassID(slot[v.slot])))
	}
	for _, v := range vars.attrs {
		buf = append(buf, 'a')
		lenAt := len(buf)
		buf = append(buf, 0, 0, 0, 0)
		buf = g.arena[slot[v.slot]].Ints[v.pos].AppendKey(buf)
		n := uint32(len(buf) - lenAt - 4)
		buf[lenAt], buf[lenAt+1], buf[lenAt+2], buf[lenAt+3] = byte(n), byte(n>>8), byte(n>>16), byte(n>>24)
	}
	for _, v := range vars.kids {
		ks := g.arena[slot[v.slot]].Kids
		buf = append(buf, 'k')
		put(ClassID(len(ks)))
		for _, k := range ks {
			put(g.Find(k))
		}
	}
	return buf
}

// apply runs rule's Apply on match p with the whole lemma scratch to
// itself. The pairs it returns may be scratch (Match.With): the caller
// reads them, then calls applied.
func (g *EGraph) apply(rule *Rule, cr *CompiledRules, p ruleMatch) []UnionPair {
	g.scratch.rewind()
	return rule.Apply(g, g.matchOf(cr.vars[p.rule], p))
}

// applied ends an application begun by apply. Under InvariantChecks it
// overwrites the lemma scratch with garbage, so a rule that kept a
// scratch slice past its Apply corrupts a later result (scratch.go).
func (g *EGraph) applied() {
	if InvariantChecks {
		g.scratch.poison()
	}
}

// auditWithheld executes a match the indexed matcher withheld, on the
// graph exactly as the match phase left it, and panics unless it is the
// no-op the gates claim: nothing inserted, nothing merged (a pure match
// may instead carry an applied fingerprint, which the apply loop drops
// unexecuted). It runs only under InvariantChecks, so the test corpus
// audits every footprint declaration and the gating itself.
func (g *EGraph) auditWithheld(cr *CompiledRules, p ruleMatch, byKids bool, fpBuf []byte) []byte {
	rule := cr.rules[p.rule]
	if rule.Reads.Pure() {
		fpBuf = g.appendFingerprint(fpBuf[:0], cr, p)
		if g.appliedFP.has(fpBuf, hashFingerprint(fpBuf)) {
			return fpBuf
		}
	}
	slots := len(g.parent)
	pairs := g.apply(rule, cr, p)
	effect := ""
	if len(g.parent) != slots || g.budgetDenied {
		effect = "inserts a node"
	}
	for _, up := range pairs {
		if effect == "" && g.Find(up.A) != g.Find(up.B) {
			effect = fmt.Sprintf("merges classes %d and %d", g.Find(up.A), g.Find(up.B))
		}
	}
	g.applied()
	if effect != "" {
		why := "its footprint is declared too shallow"
		gate := ""
		if byKids {
			why = "Apply does not require what the rule declares"
			gate = fmt.Sprintf(" by its kid requirement %s", rule.Kids)
		}
		panic(fmt.Sprintf("egraph: rule %q (reads %s) was withheld from class %d in match phase %d%s, but applying it %s: %s, or the matcher's gating is wrong",
			rule.Name, rule.Reads, p.class, g.phase, gate, effect, why))
	}
	return fpBuf
}

// sameRules reports whether two rule slices hold identical rules in
// identical order — the condition for carrying saturation state from
// one Saturate call to the next on the same graph.
func sameRules(a, b []*Rule) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Saturate runs the rules to fixpoint or until limits are hit. Matches
// are collected on a frozen view each iteration, then applied — the
// standard egg iteration structure.
//
// Saturation state persists on the graph across calls: the
// applied-fingerprint set survives (an application executes at most
// once per graph lifetime, not once per call), and when the previous
// call reached fixpoint under the same rules, the next call skips the
// full first-iteration scan and e-matches only classes dirtied since —
// which makes the checker's fold-a-node-then-resaturate frontier loop
// incremental instead of quadratic. A call that stopped on a budget or
// cancellation clears the fixpoint carry, so the next call rescans
// everything (the applied set stays valid either way: it records only
// applications that fully executed).
func (g *EGraph) Saturate(rules []*Rule, opts SaturateOpts) Stats {
	opts = opts.withDefaults()
	stats := Stats{Runs: 1}
	applied := &g.appliedFP
	carry := g.satFixpoint && sameRules(g.satRules, rules)
	g.satFixpoint = false
	g.satRules = rules
	fpBuf := g.fpBuf
	cr := opts.Compiled
	if cr == nil {
		cr = CompileRules(rules)
	}
	// Effective applications are counted per compiled rule and named once,
	// on the way out.
	if cap(g.appsBuf) < len(rules) {
		g.appsBuf = make([]int32, len(rules))
	}
	apps := g.appsBuf[:len(rules)]
	clear(apps)
	// Arm the instantiation budget for the duration of the run.
	g.nodeLimit = opts.MaxNodes
	g.budgetDenied = false
	defer func() { g.nodeLimit = 0; g.budgetDenied = false }()
	limitHit := false
	cancelled := false
	// The match list is graph scratch: the checker's frontier loop
	// calls Saturate many times per graph.
	todo := g.todoBuf[:0]
	for iter := 0; iter < opts.MaxIters && !limitHit && !cancelled; iter++ {
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			cancelled = true
			break
		}
		stats.Iterations = iter + 1
		// Substitutions live from here until the apply loop below
		// finishes with them; the next phase overwrites the slab.
		g.substs = g.substs[:0]
		g.phase++
		// withheld indexes the matches in todo that the indexed matcher's
		// gates withheld; it is empty unless InvariantChecks is on. They
		// are audited as no-ops on the graph the match phase saw, then
		// take their turn in the apply loop like the naive matcher's
		// matches would — where one can only have an effect if an earlier
		// application of this same phase reached into what it reads
		// (counted in lateEffects: the naive matcher applies such a match
		// now, the indexed matcher one iteration later).
		var withheld []withheldMatch
		if naiveMatcher {
			g.dirty = g.dirty[:0] // keep the accumulator bounded
			todo = g.matchRules(cr, todo[:0])
		} else {
			todo = g.matchRulesIndexed(cr, iter == 0 && !carry, todo[:0])
			withheld = g.withheld
		}
		stats.Matches += len(todo) - len(withheld)
		for _, w := range withheld {
			fpBuf = g.auditWithheld(cr, todo[w.at], w.byKids, fpBuf)
		}
		changed := false
		for mi, p := range todo {
			late := len(withheld) > 0 && withheld[0].at == mi
			byKids := late && withheld[0].byKids
			if late {
				withheld = withheld[1:]
			}
			// Poll for cancellation mid-iteration, then fall through to
			// Rebuild below: stopping without it would leave the memo
			// and parent lists stale and later extractions
			// non-congruent. The same fall-through applies to the
			// budget stop.
			if mi%cancelPollEvery == cancelPollEvery-1 && opts.Ctx != nil && opts.Ctx.Err() != nil {
				cancelled = true
				break
			}
			rule := rules[p.rule]
			pure := rule.Reads.Pure()
			var fpHash uint32
			if pure {
				// Pure rules: one application per canonical match.
				fpBuf = g.appendFingerprint(fpBuf[:0], cr, p)
				fpHash = hashFingerprint(fpBuf)
				if applied.has(fpBuf, fpHash) {
					continue
				}
			}
			if g.nodeCount > opts.MaxNodes {
				// A direct-AddNode rule overshot the live count; stop
				// applying matches.
				limitHit = true
				break
			}
			slots := len(g.parent)
			pairs := g.apply(rule, cr, p)
			effect := len(g.parent) != slots
			for _, up := range pairs {
				if g.Union(up.A, up.B) {
					changed = true
					apps[p.rule]++
					effect = true
				}
			}
			g.applied()
			if late && (effect || pure && !byKids) {
				// Effective in its turn — or a pure match executed at all:
				// the naive matcher now holds a fingerprint the indexed
				// one never records. (Not so for a match withheld by the
				// rule's kid requirement: it is executed here every time it
				// is collected, and its fingerprint names the kid classes
				// that fail the requirement, so no match the indexed
				// matcher offers can carry it.)
				g.lateEffects++
			}
			if g.budgetDenied {
				// The instantiation cap declined part of this
				// application: it is incomplete, so it stays out of the
				// applied set — a later run with a bigger budget must
				// re-derive it.
				limitHit = true
				break
			}
			if pure {
				applied.add(fpBuf, fpHash)
			}
		}
		g.Rebuild()
		if !changed && !limitHit && !cancelled {
			stats.Saturated = true
			break
		}
	}
	g.fpBuf, g.todoBuf = fpBuf[:0], todo[:0]
	g.satFixpoint = stats.Saturated
	for ri, n := range apps {
		if n > 0 {
			if stats.Applications == nil { // left nil by a run in which nothing fired
				stats.Applications = map[string]int{}
			}
			stats.Applications[rules[ri].Name] += int(n)
		}
	}
	switch {
	case cancelled:
		stats.StopReason = StopCancelled
		stats.Cancelled = 1
	case limitHit:
		stats.StopReason = StopNodeLimit
		stats.BudgetHit = 1
	case stats.Saturated:
		stats.StopReason = StopSaturated
	default:
		// The iteration budget elapsed while rules were still firing.
		stats.StopReason = StopIterLimit
		stats.BudgetHit = 1
	}
	stats.Nodes = g.nodeCount
	return stats
}
