package egraph

import (
	"context"
	"fmt"
)

// Rule is a rewrite rule (a "lemma" in the paper's terms, §4.2.1).
// LHS matches produce substitutions; Apply returns the classes that
// should be unioned with the matched class. A nil result (or empty
// slice) means the rule's condition did not hold for this match.
type Rule struct {
	Name string

	LHS *Pattern

	// Apply builds the right-hand side(s), inserting through
	// InstantiateOp, and returns the class pairs to union. Most rules
	// union the matched class with one RHS class (use m.With);
	// generative lemmas may union other pairs. Conditioned rules
	// inspect g.Ctx and the substitution and decline by returning nil;
	// constrained rules Lookup instead of inserting.
	Apply func(g *EGraph, m Match) []UnionPair
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

// SaturateOpts bound a saturation run. Zero values select defaults.
type SaturateOpts struct {
	MaxIters int // default 16
	// MaxNodes caps the number of *live* ENodes — the value reported
	// by EGraph.NodeCount(), i.e. distinct nodes currently stored
	// across all classes, after dedup. The cap is enforced inside
	// InstantiateOp: an application that would create a node beyond it
	// is declined (none of its unions happen), and Saturate stops
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
	// Matches counts e-matches collected across all iterations: the
	// match-loop work the `-exp saturate` bench tracks per iteration.
	// Every iteration searches every class for every rule, so this is
	// the rule set's match count per iteration, summed.
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

// Saturate runs the rules to fixpoint or until limits are hit. Matches
// are collected on a frozen view each iteration, then applied — the
// standard egg iteration structure. Every iteration searches every class
// for every rule (matchRules), as egg does.
//
// Every collected match is applied. One that already ran is a no-op:
// InstantiateOp finds its hash-consed right-hand side and Union of two
// equal classes reports no change, so it counts no application. A run
// stops at fixpoint after the first iteration in which no union changed
// the graph; a call on a graph already at fixpoint is that one
// iteration.
func (g *EGraph) Saturate(rules []*Rule, opts SaturateOpts) Stats {
	opts = opts.withDefaults()
	stats := Stats{Runs: 1}
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
		todo = g.matchRules(cr, todo[:0])
		stats.Matches += len(todo)
		changed := false
		for mi, p := range todo {
			// Poll for cancellation mid-iteration, then fall through to
			// Rebuild below: stopping without it would leave the memo
			// and parent lists stale and later extractions
			// non-congruent. The same fall-through applies to the
			// budget stop.
			if mi%cancelPollEvery == cancelPollEvery-1 && opts.Ctx != nil && opts.Ctx.Err() != nil {
				cancelled = true
				break
			}
			if g.nodeCount > opts.MaxNodes {
				// A direct-AddNode rule overshot the live count; stop
				// applying matches.
				limitHit = true
				break
			}
			pairs := g.apply(rules[p.rule], cr, p)
			if g.budgetDenied {
				// The instantiation cap declined part of this
				// application: it is incomplete, so it asserts nothing —
				// a declined insert's class stands for no term, and a
				// union with it would be unsound.
				g.applied()
				limitHit = true
				break
			}
			for _, up := range pairs {
				if g.Union(up.A, up.B) {
					changed = true
					apps[p.rule]++
				}
			}
			g.applied()
		}
		g.Rebuild()
		if !changed && !limitHit && !cancelled {
			stats.Saturated = true
			break
		}
	}
	g.todoBuf = todo[:0]
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
