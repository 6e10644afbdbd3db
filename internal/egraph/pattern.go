package egraph

import (
	"fmt"
	"slices"
	"strings"

	"entangle/internal/expr"
	"entangle/internal/sym"
)

// Pattern is an expression pattern for e-matching. A Pattern either
// binds a whole class to a variable (Var != "") or matches an operator
// application whose attributes may be literals or attribute variables.
type Pattern struct {
	Var string // non-empty: match any class, bind it

	Op   expr.Op
	Str  string // literal Str to require (when StrVar == "")
	Kids []*Pattern

	// VarKids, when non-empty, binds the node's entire child-class
	// list (of any length) instead of matching Kids one by one. Used
	// by n-ary lemmas over concat and sum, whose width equals the
	// parallelism degree.
	VarKids string

	// Attrs match the ENode's Ints: each is either a literal
	// expression (Lit) or a variable binding (Var).
	Attrs []AttrPat

	// LeafTID, when non-nil, requires a tensor leaf with this ID.
	LeafTID *int
}

// AttrPat matches one symbolic attribute.
type AttrPat struct {
	Var string   // non-empty: bind the attribute
	Lit sym.Expr // used when Var == ""
}

// AVar binds an attribute variable.
func AVar(name string) AttrPat { return AttrPat{Var: name} }

// AInt matches a constant integer attribute.
func AInt(v int64) AttrPat { return AttrPat{Lit: sym.Const(v)} }

// PVar matches any class and binds it.
func PVar(name string) *Pattern { return &Pattern{Var: name} }

// POp matches an operator application.
func POp(op expr.Op, attrs []AttrPat, kids ...*Pattern) *Pattern {
	return &Pattern{Op: op, Attrs: attrs, Kids: kids}
}

// POpN matches an operator application of any arity, binding the whole
// child list to kidsVar.
func POpN(op expr.Op, attrs []AttrPat, kidsVar string) *Pattern {
	return &Pattern{Op: op, Attrs: attrs, VarKids: kidsVar}
}

// Subst is one substitution as e-matching produces and stores it: a
// fixed record of int32 slots and nothing else — no name, no slice, no
// pointer. What a slot holds is decided when the pattern is compiled
// (compilePattern): a class variable's slot holds the class ID it is
// bound to; an operator position that binds attribute variables or a
// kid-list variable gets one slot holding the arena index of the node
// matched there, and the variables read that node's Ints[pos] and Kids.
// A rule's Apply reads a Subst through Bindings, which adds the slot
// table that names the slots and the graph whose arena they index.
//
// Extension is by copy: a record is 32 bytes, and the records of a match
// phase sit in one slab (EGraph.substs) that the collector never scans
// and the next phase overwrites.
type Subst struct {
	slot [maxSlots]int32
}

// maxSlots bounds the class variables plus binding operator positions of
// one pattern. The lemma library's widest (a three-operand distribution
// row under a scale) uses six.
const maxSlots = 8

// slotTable names the slots of one compiled pattern. Each list is in
// binding order — a pre-order walk of the pattern, a node's attributes
// before its kid list before its kids, first occurrences only.
type slotTable struct {
	classes []slotVar
	attrs   []slotVar
	kids    []slotVar
	used    int
}

// slotVar places one pattern variable: the slot it reads and, for an
// attribute variable, the position in the slot's node's Ints.
type slotVar struct {
	name string
	slot int8
	pos  int8
}

func findVar(vars []slotVar, name string) (slotVar, bool) {
	for _, v := range vars {
		if v.name == name {
			return v, true
		}
	}
	return slotVar{}, false
}

func (t *slotTable) newSlot(p *Pattern) int8 {
	if t.used == maxSlots {
		panic(fmt.Sprintf("egraph: pattern %s needs more than %d binding slots (class variables plus operator positions that bind attributes or kid lists)", p, maxSlots))
	}
	t.used++
	return int8(t.used - 1)
}

// compiledPattern is a Pattern with its variables resolved to slots, so
// the matcher never compares a name: whether an occurrence of a variable
// binds or checks is fixed by where it stands in the pattern.
type compiledPattern struct {
	p *Pattern

	// A bare variable (p.Var != ""): its slot, and whether this
	// occurrence is the first, which binds.
	classSlot int8
	binds     bool

	// An operator application. nodeSlot receives the matched node's arena
	// index when the position binds an attribute or kid-list variable (-1
	// otherwise). lits and repeats are the attribute positions that
	// filter: a literal to equal, an earlier binding to equal. kidsRepeat
	// is the slot of the node an already bound kid-list variable reads
	// (-1: VarKids binds here, or is absent).
	nodeSlot   int8
	lits       []int8
	repeats    []attrRepeat
	kidsRepeat int8
	// kids are the compiled kid patterns. bindKids lists the kid
	// positions that are first occurrences of a class variable — each
	// matches any class and binds it, so they are filled into the node's
	// own record at once — and restKids, in order, the positions matched
	// one after the other over the substitutions so far.
	kids     []*compiledPattern
	bindKids []slotVar // pos is the kid position
	restKids []int8
}

// attrRepeat requires the attribute at pos to equal an earlier binding.
type attrRepeat struct {
	pos int8
	ref slotVar
}

// compilePattern numbers p's variables and returns the compiled pattern
// with its slot table.
func compilePattern(p *Pattern) (*compiledPattern, *slotTable) {
	t := &slotTable{}
	return t.compile(p), t
}

func (t *slotTable) compile(p *Pattern) *compiledPattern {
	cp := &compiledPattern{p: p, nodeSlot: -1, kidsRepeat: -1}
	if p.Var != "" {
		v, bound := findVar(t.classes, p.Var)
		if !bound {
			v = slotVar{name: p.Var, slot: t.newSlot(p)}
			t.classes = append(t.classes, v)
		}
		cp.classSlot, cp.binds = v.slot, !bound
		return cp
	}
	nodeSlot := func() int8 {
		if cp.nodeSlot < 0 {
			cp.nodeSlot = t.newSlot(p)
		}
		return cp.nodeSlot
	}
	for i, ap := range p.Attrs {
		if ap.Var == "" {
			cp.lits = append(cp.lits, int8(i))
		} else if v, bound := findVar(t.attrs, ap.Var); bound {
			cp.repeats = append(cp.repeats, attrRepeat{pos: int8(i), ref: v})
		} else {
			t.attrs = append(t.attrs, slotVar{name: ap.Var, slot: nodeSlot(), pos: int8(i)})
		}
	}
	if p.VarKids != "" {
		if v, bound := findVar(t.kids, p.VarKids); bound {
			cp.kidsRepeat = v.slot
		} else {
			t.kids = append(t.kids, slotVar{name: p.VarKids, slot: nodeSlot()})
		}
		return cp
	}
	cp.kids = make([]*compiledPattern, len(p.Kids))
	for i, k := range p.Kids {
		kc := t.compile(k)
		cp.kids[i] = kc
		if k.Var != "" && kc.binds {
			cp.bindKids = append(cp.bindKids, slotVar{slot: kc.classSlot, pos: int8(i)})
		} else {
			cp.restKids = append(cp.restKids, int8(i))
		}
	}
	return cp
}

// Bindings is a substitution as a rule's Apply (or a MatchAll caller)
// reads it: the record, the slot table of the pattern that produced it,
// and the graph whose arena its node slots index. Attribute and
// kid-list bindings are read off the arena when asked for, so a Bindings
// is valid as long as the match is: for an Apply, the call.
type Bindings struct {
	g    *EGraph
	vars *slotTable
	s    *Subst
}

// KidsOf returns the child list bound to a variadic variable. The slice
// is the matched node's own kid list: read it, do not write to it. It is
// canonical as of the graph's last Rebuild, which is as of the match.
func (b Bindings) KidsOf(name string) []ClassID {
	if b.vars != nil {
		if v, ok := findVar(b.vars.kids, name); ok {
			return b.g.arena[b.s.slot[v.slot]].Kids
		}
	}
	panic(fmt.Sprintf("egraph: unbound kids variable ?%s", name))
}

// ClassOf returns the class bound to var name, panicking on a missing
// binding (a rule-programming error).
func (b Bindings) ClassOf(name string) ClassID {
	if b.vars != nil {
		if v, ok := findVar(b.vars.classes, name); ok {
			return ClassID(b.s.slot[v.slot])
		}
	}
	panic(fmt.Sprintf("egraph: unbound pattern variable ?%s", name))
}

// AttrOf returns the attribute bound to name.
func (b Bindings) AttrOf(name string) sym.Expr {
	if b.vars != nil {
		if v, ok := findVar(b.vars.attrs, name); ok {
			return b.g.arena[b.s.slot[v.slot]].Ints[v.pos]
		}
	}
	panic(fmt.Sprintf("egraph: unbound attribute variable ?%s", name))
}

// Match is one match as a rule's Apply sees it: the matched class, the
// node that rooted the match, and the substitution. Node points into the
// graph's node arena (at a zero node for a bare-variable pattern): read
// its Str and Ints, which never change; it is valid for the call.
type Match struct {
	Class ClassID
	Node  *ENode
	Subst Bindings
}

// noNode is what Match.Node points at when no node rooted the match.
var noNode ENode

// ruleMatch is one entry of a match phase's match list: everything by
// index — the rule in the compiled set, the matched class, the rooting
// node in the arena (-1: none), the substitution in the phase's slab
// (-1: the pattern binds nothing). Sixteen pointer-free bytes.
type ruleMatch struct {
	rule, class, node, subst int32
}

// matchOf assembles the Match an Apply is handed for entry p.
func (g *EGraph) matchOf(vars *slotTable, p ruleMatch) Match {
	m := Match{Class: ClassID(p.class), Node: &noNode, Subst: Bindings{g: g, vars: vars}}
	if p.node >= 0 {
		m.Node = &g.arena[p.node]
	}
	if p.subst >= 0 {
		m.Subst.s = &g.substs[p.subst]
	}
	return m
}

// MatchAll returns every match of p across all classes. The matches own
// their substitutions, but read attribute and kid-list bindings off the
// graph: they are good until it is released.
func (g *EGraph) MatchAll(p *Pattern) []Match {
	cp, vars := compilePattern(p)
	// Work above whatever a running match phase has on the slab and the
	// stack, and hand both back as found.
	slab, mark := len(g.substs), len(g.substStack)
	var hits []ruleMatch
	for i, cl := range g.classes {
		if cl == nil {
			continue
		}
		if p.Var != "" {
			g.matchClassOnStack(cp, ClassID(i), -1)
			for _, s := range g.substStack[mark:] {
				hits = append(hits, ruleMatch{class: int32(i), node: -1, subst: s})
			}
			g.substStack = g.substStack[:mark]
			continue
		}
		for ni := cl.first; ni >= 0; ni = g.next[ni] {
			g.matchNodeOnStack(cp, ni, -1)
			for _, s := range g.substStack[mark:] {
				hits = append(hits, ruleMatch{class: int32(i), node: ni, subst: s})
			}
			g.substStack = g.substStack[:mark]
		}
	}
	out := make([]Match, len(hits))
	own := make([]Subst, len(hits))
	for i, h := range hits {
		out[i] = g.matchOf(vars, h)
		if h.subst >= 0 {
			own[i] = g.substs[h.subst]
			out[i].Subst.s = &own[i]
		}
	}
	g.substs = g.substs[:slab]
	return out
}

// CompiledRules is the matcher's analysis of a rule set: each LHS with
// its variables numbered into substitution slots, and the op-rooted
// rules bucketed by root operator. It is independent of any e-graph and
// read-only during matching, so one value may be compiled once
// (CompileRules) and shared across goroutines via SaturateOpts.Compiled.
type CompiledRules struct {
	pats     []*compiledPattern // per rule: the LHS, compiled
	vars     []*slotTable       // per rule: what names the LHS's slots
	varRules []int              // indexes of bare-variable-LHS rules, in order
	// rootOps are the distinct root operators of the op-rooted rules, and
	// byRoot[i] the rules rooted at rootOps[i], in order: the buckets a
	// graph files under its own operator IDs each match phase
	// (resolveOps), so a node finds its candidate rules by index.
	rootOps []expr.Op
	byRoot  [][]int
}

// CompileRules analyzes a rule set for the matcher. The result must be
// passed (via SaturateOpts.Compiled) only alongside exactly the same
// rules slice.
func CompileRules(rules []*Rule) *CompiledRules {
	cr := &CompiledRules{
		pats: make([]*compiledPattern, len(rules)),
		vars: make([]*slotTable, len(rules)),
	}
	for i, r := range rules {
		cr.pats[i], cr.vars[i] = compilePattern(r.LHS)
		if r.LHS.Var != "" {
			cr.varRules = append(cr.varRules, i)
			continue
		}
		at := slices.Index(cr.rootOps, r.LHS.Op)
		if at < 0 {
			cr.rootOps = append(cr.rootOps, r.LHS.Op)
			cr.byRoot = append(cr.byRoot, nil)
			at = len(cr.byRoot) - 1
		}
		cr.byRoot[at] = append(cr.byRoot[at], i)
	}
	return cr
}

// resolveOps files the rule set's root buckets under g's interned
// operator IDs, into per-graph scratch (CompiledRules is shared and
// stays read-only): g.rulesByOp, indexed by operator ID. An op can first
// appear mid-saturation, so this runs once per match phase, in which
// nothing is inserted; an unresolved op (ID 0) means no node in the
// graph has it, and no node can root a match at it.
func (g *EGraph) resolveOps(cr *CompiledRules) {
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

// matchRules matches a rule set in one pass over the e-graph, every
// class against every rule that could root there: bare-variable rules
// on the class, each op-rooted rule on the nodes with its root
// operator. Classes are visited in ascending ID order, each class's
// rules in rule order, so the match list — and with it union order and
// every statistic — is reproducible. Matches append to out (a reused
// scratch slice).
func (g *EGraph) matchRules(cr *CompiledRules, out []ruleMatch) []ruleMatch {
	g.resolveOps(cr)
	for i, cl := range g.classes {
		if cl == nil {
			continue
		}
		for _, ri := range cr.varRules {
			mark := len(g.substStack)
			g.matchClassOnStack(cr.pats[ri], ClassID(i), -1)
			for _, s := range g.substStack[mark:] {
				out = append(out, ruleMatch{rule: int32(ri), class: int32(i), node: -1, subst: s})
			}
			g.substStack = g.substStack[:mark]
		}
		for ni := cl.first; ni >= 0; ni = g.next[ni] {
			for _, ri := range g.rulesAt(&g.arena[ni]) {
				mark := len(g.substStack)
				g.matchNodeOnStack(cr.pats[ri], ni, -1)
				for _, s := range g.substStack[mark:] {
					out = append(out, ruleMatch{rule: int32(ri), class: int32(i), node: ni, subst: s})
				}
				g.substStack = g.substStack[:mark]
			}
		}
	}
	return out
}

// extend appends a copy of substitution base (-1: the empty one) to the
// phase's slab and returns its index, for the caller to fill slots in.
func (g *EGraph) extend(base int32) int32 {
	var s Subst
	if base >= 0 {
		s = g.substs[base]
	}
	g.substs = append(g.substs, s)
	return int32(len(g.substs) - 1)
}

// matchClassOnStack matches pattern cp against class c, extending
// substitution base, and pushes every consistent substitution onto
// g.substStack. The stack discipline — callers record
// len(g.substStack), consume the entries above it, and truncate back —
// and the slab the substitutions sit in are what let the matchers run
// allocation-free: everything is an index into scratch the graph keeps.
func (g *EGraph) matchClassOnStack(cp *compiledPattern, c ClassID, base int32) {
	c = g.Find(c)
	if cp.p.Var != "" {
		if !cp.binds {
			if g.Find(ClassID(g.substs[base].slot[cp.classSlot])) == c {
				g.substStack = append(g.substStack, base)
			}
			return
		}
		s := g.extend(base)
		g.substs[s].slot[cp.classSlot] = int32(c)
		g.substStack = append(g.substStack, s)
		return
	}
	cl := g.classes[c]
	if cl == nil {
		return
	}
	for ni := cl.first; ni >= 0; ni = g.next[ni] {
		g.matchNodeOnStack(cp, ni, base)
	}
}

// matchNodeOnStack matches operator pattern cp against arena node ni.
func (g *EGraph) matchNodeOnStack(cp *compiledPattern, ni int32, base int32) {
	p, n := cp.p, &g.arena[ni]
	if n.Op != p.Op {
		return
	}
	if p.LeafTID != nil {
		if n.TID != *p.LeafTID {
			return
		}
	}
	if p.Str != "" && n.Str != p.Str {
		return
	}
	if len(p.Attrs) > 0 && len(p.Attrs) != len(n.Ints) {
		return
	}
	if p.VarKids == "" && len(p.Kids) != len(n.Kids) {
		return
	}
	// Attributes first (cheap): nothing is bound until they all pass.
	for _, i := range cp.lits {
		if !n.Ints[i].Equal(p.Attrs[i].Lit) {
			return
		}
	}
	for _, r := range cp.repeats {
		from := n // the variable's first occurrence is on this very node
		if r.ref.slot != cp.nodeSlot {
			from = &g.arena[g.substs[base].slot[r.ref.slot]]
		}
		if !from.Ints[r.ref.pos].Equal(n.Ints[r.pos]) {
			return
		}
	}
	if cp.kidsRepeat >= 0 {
		bound := g.arena[g.substs[base].slot[cp.kidsRepeat]].Kids
		if len(bound) != len(n.Kids) {
			return
		}
		for i := range n.Kids {
			if g.Find(bound[i]) != g.Find(n.Kids[i]) {
				return
			}
		}
	}
	// One record takes everything this position binds: the node, for its
	// attribute and kid-list variables, and the classes of the kids that
	// are fresh variables.
	s := base
	if cp.nodeSlot >= 0 || len(cp.bindKids) > 0 {
		s = g.extend(base)
		rec := &g.substs[s]
		if cp.nodeSlot >= 0 {
			rec.slot[cp.nodeSlot] = ni
		}
		for _, v := range cp.bindKids {
			rec.slot[v.slot] = int32(g.Find(n.Kids[v.pos]))
		}
	}
	if len(cp.restKids) == 0 {
		g.substStack = append(g.substStack, s)
		return
	}
	// The other children: cartesian backtracking, level by level on the
	// stack. Frame [lo, hi) holds the substitutions consistent through
	// the children so far; matching the next extends each onto the stack
	// top.
	mark := len(g.substStack)
	g.substStack = append(g.substStack, s)
	lo, hi := mark, mark+1
	for _, i := range cp.restKids {
		for j := lo; j < hi; j++ {
			g.matchClassOnStack(cp.kids[i], n.Kids[i], g.substStack[j])
		}
		if lo, hi = hi, len(g.substStack); lo == hi {
			break
		}
	}
	// Slide the final frame down over the intermediate levels.
	kept := copy(g.substStack[mark:], g.substStack[lo:hi])
	g.substStack = g.substStack[:mark+kept]
}

// InstantiateOp inserts a single node over existing kid classes and
// returns its class: the one way a rule's Apply adds to the graph (a
// rule that must only look up, like the paper's constrained lemmas of
// §4.3.2, calls Lookup instead). During saturation it is budgeted: a
// node that would push the live count past SaturateOpts.MaxNodes is
// declined (ok == false), and Saturate, seeing the denial, drops the
// whole application and stops with a node-limit verdict. n is taken by
// reference, as Lookup takes it, and its
// slices may be lemma scratch: the common case — the node already
// exists — copies and allocates nothing, and only a genuine insert
// copies the kid list (to the kid slab) and the attributes (to a list
// of their own, which extracted terms may keep past the graph's life).
func (g *EGraph) InstantiateOp(n *ENode) (ClassID, bool) {
	if id, ok := g.Lookup(n); ok {
		return id, true
	}
	if len(n.Ints) > 0 {
		n.Ints = slices.Clone(n.Ints)
	} else {
		n.Ints = nil
	}
	return g.addNode(n, true)
}

// String renders a pattern for diagnostics, in the paper's notation:
// "(matmul (concat ?A0 ?A1 0) ?B)".
func (p *Pattern) String() string {
	if p.Var != "" {
		return "?" + p.Var
	}
	var b strings.Builder
	b.WriteByte('(')
	b.WriteString(string(p.Op))
	if p.Str != "" {
		b.WriteByte(':')
		b.WriteString(p.Str)
	}
	for _, k := range p.Kids {
		b.WriteByte(' ')
		b.WriteString(k.String())
	}
	for _, a := range p.Attrs {
		b.WriteByte(' ')
		if a.Var != "" {
			b.WriteString("?" + a.Var)
		} else {
			b.WriteString(a.Lit.String())
		}
	}
	b.WriteByte(')')
	return b.String()
}
