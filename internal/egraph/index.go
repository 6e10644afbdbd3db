package egraph

import "entangle/internal/expr"

// Rule-indexed, dirty-tracked e-matching — the saturation hot path.
//
// The naive matcher (matchRules, pattern.go) visits every class × rule
// pair each iteration; on real models most of that work re-derives
// matches whose application is already done, whose Apply then rebuilds
// hash-consed nodes and repeats merged unions. The indexed matcher cuts
// the re-derivation two ways:
//
//   - Dirty tracking against each rule's read footprint. A class is
//     dirty when it gained a node or absorbed another class since the
//     previous match phase; dirtyTake walks parent lists upward from
//     the dirty classes and records every class's hop distance. A rule
//     is offered a class only within its own reach of a change: LHS
//     depth - 1 hops for a pure rule, the levels it declared for
//     ReadsBelow, and for ReadsConsumers the dirty classes themselves
//     plus the classes their nodes consume. Inside such a class a node
//     that predates the change (ENode.born) is offered only if one of
//     its own kid classes is within the remaining reach. Every match
//     the naive matcher would produce outside those gates is a repeat:
//     nothing its Apply reads has moved since it last ran. Two things
//     have no bound: a ReadsGraph rule, and any footprint rule on a
//     graph where a ShapeOf query has failed (a shape can turn known
//     from arbitrarily far below); both are offered every class every
//     iteration. The full scan runs only when there is no earlier
//     coverage to lean on: the first iteration of a Saturate call whose
//     graph is not carrying a fixpoint from the previous same-rules
//     call (rewrite.go).
//
//   - Kid-operator gates, answered from the per-class operator counts
//     (Class.ops) and Find before any substitution is built. Derived:
//     a fixed-arity pattern whose kid i is an operator application can
//     only match a node whose kid-i class holds a node with that
//     operator, so the node is skipped without descending into
//     matchNode — no match exists, nothing is withheld. Declared: a
//     variadic (POpN) pattern binds its kid list whole and leaves the
//     looking to Apply, so the rule says next to its footprint what
//     Apply insists on (Rule.Kids: every kid class holds op X), and
//     where that fails the match — which the naive matcher would
//     collect and Apply decline — is withheld like one outside the
//     footprint.
//
// Candidate classes are visited in the same ascending order with the
// same per-class rule order as the naive matcher, so the produced
// match list is an order-preserving subset of the naive list, and every
// omission is a no-op on the graph this match phase sees. That is the
// whole contract, and what InvariantChecks audits (Saturate). It says
// nothing about a withheld match that an earlier application of the
// same apply phase reaches into before its turn: the naive matcher
// applies that one at once, this one in the next iteration. None of
// the model zoo, the fuzz corpus or the goldens has such a match with
// an effect, which is what keeps Stats.Applications, class IDs,
// extraction and report bytes identical between the two paths there
// (the differential tests pin this).

// CompiledRules is the matchers' analysis of a rule set: each LHS with
// its variables numbered into substitution slots (pattern.go), rules
// bucketed by root operator, each rule's kid-operator gates, and each
// rule's gate — how near a change a class must be for the rule to be
// offered it again. It is independent of any e-graph and read-only
// during matching, so one value may be compiled once (CompileRules)
// and shared across goroutines via SaturateOpts.Compiled.
type CompiledRules struct {
	rules    []*Rule
	pats     []*compiledPattern // per rule: the LHS, compiled
	vars     []*slotTable       // per rule: what names the LHS's slots
	varRules []int              // indexes of bare-variable-LHS rules, in order
	// rootOps are the distinct root operators of the op-rooted rules, and
	// byRoot[i] the rules rooted at rootOps[i], in order: the buckets a
	// graph files under its own operator IDs each match phase
	// (resolveOps), so a node finds its candidate rules by index.
	rootOps  []expr.Op
	byRoot   [][]int
	kidGates [][]kidGate // per rule: derived gates, then the declared one
	gateOps  []expr.Op   // the distinct operators the kid gates name
	gates    []ruleGate  // per rule
	// maxReach is the deepest reach of any gated rule: the dirty closure
	// is expanded by that many parent hops.
	maxReach  int
	unbounded bool // some rule declares ReadsGraph
	footprint bool // some rule declares any footprint at all
}

// ruleGate is one rule's re-offer condition. reach is in parent hops
// above a changed class: LHS depth - 1 for a pure rule (each rule pays
// its own depth, not the set's maximum), the declared levels for
// ReadsBelow (never less than the LHS's own reach).
type ruleGate struct {
	kind  footprintKind
	reach int8
}

// kidGate is one condition on a candidate root node's kid classes.
// kidAt gates are derived from a fixed-arity LHS and exact (failing
// means no match); the others compile a rule's declared KidReq, and
// failing means a match Apply declines.
type kidGate struct {
	kind kidReqKind
	pos  int16 // kidAt: the kid position
	op   int16 // index into CompiledRules.gateOps
}

// gateOp returns op's index in cr.gateOps, adding it if new.
func (cr *CompiledRules) gateOp(op expr.Op) int16 {
	return int16(indexOf(&cr.gateOps, op))
}

// indexOf returns op's index in *ops, appending it if new.
func indexOf(ops *[]expr.Op, op expr.Op) int {
	for i, o := range *ops {
		if o == op {
			return i
		}
	}
	*ops = append(*ops, op)
	return len(*ops) - 1
}

// compileKidGates derives r's gates from its LHS and appends the
// declared requirement, which only a variadic root can carry
// (entangle-lint rejects it elsewhere; here it is ignored).
func (cr *CompiledRules) compileKidGates(r *Rule) []kidGate {
	var gates []kidGate
	for i, k := range r.LHS.Kids {
		if k.Var == "" {
			gates = append(gates, kidGate{kind: kidAt, pos: int16(i), op: cr.gateOp(k.Op)})
		}
	}
	if r.LHS.VarKids != "" && !r.Kids.None() {
		gates = append(gates, kidGate{kind: r.Kids.kind, op: cr.gateOp(r.Kids.op)})
	}
	return gates
}

// CompileRules analyzes a rule set for the matchers. The result
// must be passed (via SaturateOpts.Compiled) only alongside exactly
// the same rules slice.
func CompileRules(rules []*Rule) *CompiledRules {
	cr := &CompiledRules{
		rules:    rules,
		pats:     make([]*compiledPattern, len(rules)),
		vars:     make([]*slotTable, len(rules)),
		kidGates: make([][]kidGate, len(rules)),
		gates:    make([]ruleGate, len(rules)),
	}
	for i, r := range rules {
		cr.pats[i], cr.vars[i] = compilePattern(r.LHS)
		if r.LHS.Var != "" {
			cr.varRules = append(cr.varRules, i)
		} else {
			if at := indexOf(&cr.rootOps, r.LHS.Op); at == len(cr.byRoot) {
				cr.byRoot = append(cr.byRoot, []int{i})
			} else {
				cr.byRoot[at] = append(cr.byRoot[at], i)
			}
			cr.kidGates[i] = cr.compileKidGates(r)
		}
		gate := ruleGate{kind: r.Reads.kind, reach: int8(r.LHS.Depth() - 1)}
		switch gate.kind {
		case readsBelow:
			if r.Reads.levels > int(gate.reach) {
				gate.reach = int8(min(r.Reads.levels, int(farAway)-1))
			}
		case readsConsumers:
			gate.reach = 0
		case readsGraph:
			gate.reach = 0
			cr.unbounded = true
		}
		if int(gate.reach) > cr.maxReach {
			cr.maxReach = int(gate.reach)
		}
		cr.footprint = cr.footprint || !r.Reads.Pure()
		cr.gates[i] = gate
	}
	return cr
}

// resolveOps files the rule set's operators under g's interned operator
// IDs, into per-graph scratch (CompiledRules is shared and stays
// read-only): the kid-gate operators into g.gateOpID, the root buckets
// into g.rulesByOp, indexed by operator ID. An op can first appear
// mid-saturation, so this runs once per match phase, in which nothing
// is inserted; an unresolved op (ID 0) means no node in the graph has
// it, which no class's counts hold either, and no node can root a match
// at it — exactly what matching would conclude.
func (g *EGraph) resolveOps(cr *CompiledRules) {
	if cap(g.gateOpID) < len(cr.gateOps) {
		g.gateOpID = make([]opID, len(cr.gateOps))
	}
	g.gateOpID = g.gateOpID[:len(cr.gateOps)]
	for i, op := range cr.gateOps {
		g.gateOpID[i] = g.intern.lookupOp(op)
	}
	if n := len(g.intern.ops) + 1; cap(g.rulesByOp) < n {
		g.rulesByOp = make([][]int, n)
	} else {
		g.rulesByOp = g.rulesByOp[:n]
		clear(g.rulesByOp)
	}
	for i, op := range cr.rootOps {
		if id := g.intern.lookupOp(op); id != 0 {
			g.rulesByOp[id] = cr.byRoot[i]
		}
	}
}

// rulesAt returns the compiled rules rooted at n's operator, as the
// match phase's resolveOps filed them.
func (g *EGraph) rulesAt(n *ENode) []int { return g.rulesByOp[g.opOfHead(n.head)] }

// kidHas reports whether kid class k holds a node with operator op.
func (g *EGraph) kidHas(k ClassID, op opID) bool {
	kc := g.classes[g.Find(k)]
	return op != 0 && kc != nil && kc.hasOp(op)
}

// passes evaluates one kid gate on a candidate root node.
func (g *EGraph) passes(gt kidGate, n *ENode) bool {
	switch gt.kind {
	case kidAt:
		return int(gt.pos) < len(n.Kids) && g.kidHas(n.Kids[gt.pos], g.gateOpID[gt.op])
	default: // kidsEvery
		for _, k := range n.Kids {
			if !g.kidHas(k, g.gateOpID[gt.op]) {
				return false
			}
		}
		return true
	}
}

// Depth is the match depth of a pattern: how many class levels
// e-matching inspects. A bare variable binds the root class (depth 1);
// VarKids binds the child-class list (depth 2); operator patterns add
// one level over their deepest child. A match rooted at class R can
// therefore only change when a class within Depth-1 parent hops below
// R does — the reach a pure rule is gated by, and the least a
// ReadsBelow footprint may declare.
func (p *Pattern) Depth() int {
	if p.Var != "" {
		return 1
	}
	if p.VarKids != "" {
		return 2
	}
	d := 1
	for _, k := range p.Kids {
		if kd := 1 + k.Depth(); kd > d {
			d = kd
		}
	}
	return d
}

// farAway is the hop distance of a class outside the dirty closure.
const farAway = int8(127)

// matchRulesIndexed is the indexed counterpart of matchRules. With
// full set every rule is offered every node; otherwise each rule is
// offered a node only where its gate says the outcome can differ from
// the last time it ran there (see the file comment). Matches append to
// out (a reused scratch slice). Under InvariantChecks the withheld
// matches are appended too, in their naive-order places, with their
// places in g.withheld: Saturate audits them.
func (g *EGraph) matchRulesIndexed(cr *CompiledRules, full bool, out []ruleMatch) []ruleMatch {
	g.resolveOps(cr)
	g.withheld = g.withheld[:0]
	epoch := int32(0)
	if full {
		g.dirty = g.dirty[:0] // the full scan covers everything accumulated
	} else {
		g.dirtyTake(cr.maxReach)
		epoch = g.markEpoch // dirtyTake marked the closure with this epoch
	}
	// A failed ShapeOf lifts every footprint rule to "reads the graph".
	noBound := g.shapeUnknown
	audit := InvariantChecks // a full scan withholds too: by declared kid requirement
	everywhere := full || audit || cr.unbounded || (noBound && cr.footprint)
	for i, cl := range g.classes {
		if cl == nil {
			continue
		}
		id := ClassID(i)
		d, consumed := farAway, false
		if full {
			d = 0
		} else {
			if g.mark[id] == epoch {
				d = g.dist[id]
			}
			consumed = g.consumed[id] == epoch
		}
		if d == farAway && !consumed && !everywhere {
			continue
		}
		for _, ri := range cr.varRules {
			offer := cr.gate(ri, noBound).open(d, consumed)
			if !offer && !audit {
				continue
			}
			mark := len(g.substStack)
			g.matchClassOnStack(cr.pats[ri], id, -1)
			for _, s := range g.substStack[mark:] {
				if !offer {
					g.withheld = append(g.withheld, withheldMatch{at: len(out)})
				}
				out = append(out, ruleMatch{rule: int32(ri), class: int32(id), node: -1, subst: s})
			}
			g.substStack = g.substStack[:mark]
		}
		for ni := cl.first; ni >= 0; ni = g.next[ni] {
			n := &g.arena[ni]
			cands := g.rulesAt(n)
			if len(cands) == 0 {
				continue
			}
			// A node born since the previous match phase began has been
			// offered to nothing yet.
			fresh := full || n.born+1 >= g.phase
			nearestKid := int8(-1) // computed on first use
		rules:
			for _, ri := range cands {
				gate := cr.gate(ri, noBound)
				offer := gate.open(d, consumed)
				if offer && !fresh && gate.perNode(d) {
					// The class is within reach of a change, but this
					// node was here before it: what the rule reads through
					// the node starts at the node's own kid classes, one
					// level down.
					if nearestKid < 0 {
						nearestKid = g.nearestKid(n, epoch)
					}
					offer = nearestKid < gate.reach
				}
				if !offer && !audit {
					continue
				}
				// A derived kid gate that fails means there is nothing to
				// match; the declared one, a match Apply declines.
				byKids := false
				for _, gt := range cr.kidGates[ri] {
					if g.passes(gt, n) {
						continue
					}
					if gt.kind == kidAt {
						continue rules
					}
					byKids, offer = offer, false
				}
				if !offer && !audit {
					continue
				}
				mark := len(g.substStack)
				g.matchNodeOnStack(cr.pats[ri], ni, -1)
				for _, s := range g.substStack[mark:] {
					if !offer {
						g.withheld = append(g.withheld, withheldMatch{at: len(out), byKids: byKids})
					}
					out = append(out, ruleMatch{rule: int32(ri), class: int32(id), node: ni, subst: s})
				}
				g.substStack = g.substStack[:mark]
			}
		}
	}
	return out
}

// withheldMatch places one gate-withheld match in the match list.
// byKids: the rule's footprint gate was open, its declared kid
// requirement withheld the match.
type withheldMatch struct {
	at     int
	byKids bool
}

// gate returns rule ri's gate for this match phase: its own, unless a
// ShapeOf query has failed on the graph, which lifts every footprint to
// ReadsGraph.
func (cr *CompiledRules) gate(ri int, noBound bool) ruleGate {
	gate := cr.gates[ri]
	if noBound && gate.kind != readsBindings {
		gate.kind = readsGraph
	}
	return gate
}

// open reports whether the rule is offered a class d hops from the
// nearest change (consumed: a changed class's node points at it).
func (gate ruleGate) open(d int8, consumed bool) bool {
	switch gate.kind {
	case readsGraph:
		return true
	case readsConsumers:
		return d == 0 || consumed
	}
	return d <= gate.reach
}

// perNode reports whether, inside a class the gate is open for, the
// rule still needs only the nodes whose own kid classes are near a
// change. A footprint's contract excludes the root's identity, so
// ReadsBelow rules are per-node at any distance; a pure rule is offered
// all of a merged root (d == 0). Offering that root node by node too
// would lower Stats.Matches, a change to measure on its own.
func (gate ruleGate) perNode(d int8) bool {
	return gate.kind == readsBelow || (gate.kind == readsBindings && d > 0)
}

// nearestKid returns the smallest hop distance among n's kid classes.
func (g *EGraph) nearestKid(n *ENode, epoch int32) int8 {
	best := farAway
	for _, k := range n.Kids {
		if k = g.Find(k); g.mark[k] == epoch && g.dist[k] < best {
			best = g.dist[k]
		}
	}
	return best
}
