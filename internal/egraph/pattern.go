package egraph

import (
	"fmt"
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

// ALit matches a literal attribute value.
func ALit(e sym.Expr) AttrPat { return AttrPat{Lit: e} }

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

// Subst is a substitution produced by e-matching. Bindings are stored
// in small slices (matches bind at most a handful of variables);
// extension is copy-on-write so substitutions can be shared across
// backtracking branches. The common binding counts live in inline
// buffers so extending costs one allocation (the Subst itself), not
// two; the slices are capacity-capped at their length, so an append
// can never reach into a shared buffer.
type Subst struct {
	classes []classBinding
	attrs   []attrBinding
	kids    []kidsBinding

	cbuf [4]classBinding
	abuf [2]attrBinding
	kbuf [1]kidsBinding
}

type classBinding struct {
	name string
	c    ClassID
}

type attrBinding struct {
	name string
	e    sym.Expr
}

type kidsBinding struct {
	name string
	ks   []ClassID
}

// emptySubst is the shared starting substitution (read-only).
var emptySubst = &Subst{}

// substArena bump-allocates Substs for the saturation matchers. A match
// phase's substitutions are all dead once the apply loop that consumes
// them finishes, so each phase recycles the previous phase's slots
// instead of paying malloc + GC per binding — extension was the single
// largest allocator on the cold-check path. Chunks are fixed-size and
// never reallocated, so handed-out pointers stay stable as the arena
// grows.
type substArena struct {
	chunks [][]Subst
	ci, ni int
	// hi is the slot count of the graph life's largest match phase so
	// far: what release has to zero.
	hi int
}

// used returns how many slots the current phase has handed out.
func (a *substArena) used() int {
	n := a.ni
	for _, ch := range a.chunks[:a.ci] {
		n += len(ch)
	}
	return n
}

func (a *substArena) reset() {
	a.hi = max(a.hi, a.used())
	a.ci, a.ni = 0, 0
}

// newSubst allocates a Subst: from the arena while a saturation match
// phase is active, from the heap otherwise (MatchAll results escape to
// callers with arbitrary lifetimes). Arena slots are reused without
// zeroing — every caller overwrites all three binding slices, and the
// inline buffers are only read up to those lengths. Chunks start small
// and double (the checker builds one e-graph per operator, most of
// them tiny) up to a cap that keeps big matches from over-reserving.
func (g *EGraph) newSubst() *Subst {
	if !g.arenaOn {
		return &Subst{}
	}
	a := &g.substArena
	if a.ci == len(a.chunks) {
		size := 1024
		if n := len(a.chunks); n < 4 { // bound the shift, not its result: 64<<n overflows
			size = 64 << uint(n)
		}
		a.chunks = append(a.chunks, make([]Subst, size))
	}
	ch := a.chunks[a.ci]
	s := &ch[a.ni]
	if a.ni++; a.ni == len(ch) {
		a.ci++
		a.ni = 0
	}
	return s
}

func (s *Subst) lookupClass(name string) (ClassID, bool) {
	for i := range s.classes {
		if s.classes[i].name == name {
			return s.classes[i].c, true
		}
	}
	return 0, false
}

func (s *Subst) lookupAttr(name string) (sym.Expr, bool) {
	for i := range s.attrs {
		if s.attrs[i].name == name {
			return s.attrs[i].e, true
		}
	}
	return sym.Expr{}, false
}

func (s *Subst) lookupKids(name string) ([]ClassID, bool) {
	for i := range s.kids {
		if s.kids[i].name == name {
			return s.kids[i].ks, true
		}
	}
	return nil, false
}

// withClass returns a new substitution extended by one class binding;
// the receiver is unchanged (backing arrays are never appended in
// place: capacities equal lengths by construction).
func (s *Subst) withClass(g *EGraph, name string, c ClassID) *Subst {
	n := s.clone(g)
	l := len(s.classes)
	if l < len(n.cbuf) {
		copy(n.cbuf[:], s.classes)
		n.cbuf[l] = classBinding{name: name, c: c}
		n.classes = n.cbuf[: l+1 : l+1]
		return n
	}
	n.classes = make([]classBinding, l+1)
	copy(n.classes, s.classes)
	n.classes[l] = classBinding{name: name, c: c}
	return n
}

// clone returns a new substitution sharing the receiver's three binding
// lists.
func (s *Subst) clone(g *EGraph) *Subst {
	n := g.newSubst()
	n.classes, n.attrs, n.kids = s.classes, s.attrs, s.kids
	return n
}

// addAttr and addKids extend a substitution in place, moving the list
// they extend into the receiver's own storage. Only the matcher step
// that made the receiver may call them, before anything else can see
// it: one node's attribute and kid-list bindings then cost one Subst,
// not one each.
func (s *Subst) addAttr(name string, e sym.Expr) {
	l := len(s.attrs)
	if l < len(s.abuf) {
		copy(s.abuf[:], s.attrs) // a no-op once the list lives here
		s.abuf[l] = attrBinding{name: name, e: e}
		s.attrs = s.abuf[: l+1 : l+1]
		return
	}
	attrs := make([]attrBinding, l+1)
	copy(attrs, s.attrs)
	attrs[l] = attrBinding{name: name, e: e}
	s.attrs = attrs
}

func (s *Subst) addKids(name string, ks []ClassID) {
	l := len(s.kids)
	if l < len(s.kbuf) {
		copy(s.kbuf[:], s.kids)
		s.kbuf[l] = kidsBinding{name: name, ks: ks}
		s.kids = s.kbuf[: l+1 : l+1]
		return
	}
	kids := make([]kidsBinding, l+1)
	copy(kids, s.kids)
	kids[l] = kidsBinding{name: name, ks: ks}
	s.kids = kids
}

// KidsOf returns the child list bound to a variadic variable.
func (s *Subst) KidsOf(name string) []ClassID {
	k, ok := s.lookupKids(name)
	if !ok {
		panic(fmt.Sprintf("egraph: unbound kids variable ?%s", name))
	}
	return k
}

// ClassOf returns the class bound to var name, panicking on a missing
// binding (a rule-programming error).
func (s *Subst) ClassOf(name string) ClassID {
	c, ok := s.lookupClass(name)
	if !ok {
		panic(fmt.Sprintf("egraph: unbound pattern variable ?%s", name))
	}
	return c
}

// AttrOf returns the attribute bound to name.
func (s *Subst) AttrOf(name string) sym.Expr {
	a, ok := s.lookupAttr(name)
	if !ok {
		panic(fmt.Sprintf("egraph: unbound attribute variable ?%s", name))
	}
	return a
}

// Match pairs a matched class with one substitution. Node is the ENode
// that rooted the match (zero-valued for bare-variable patterns);
// dynamic lemmas read attributes and children from it.
type Match struct {
	Class ClassID
	Node  ENode
	Subst *Subst
}

// MatchAll returns every match of p across all classes.
func (g *EGraph) MatchAll(p *Pattern) []Match {
	var out []Match
	for i, cl := range g.classes {
		if cl == nil {
			continue
		}
		id := ClassID(i)
		if p.Var != "" {
			for _, s := range g.matchClass(p, id, emptySubst) {
				out = append(out, Match{Class: id, Subst: s})
			}
			continue
		}
		for ni := cl.first; ni >= 0; ni = g.next[ni] {
			n := &g.arena[ni]
			if n.Op != p.Op {
				continue
			}
			mark := len(g.substStack)
			g.matchNodeOnStack(p, n, emptySubst)
			if len(g.substStack) > mark {
				canon := g.canonNode(*n)
				for _, s := range g.substStack[mark:] {
					out = append(out, Match{Class: id, Node: canon, Subst: s})
				}
			}
			g.substStack = g.substStack[:mark]
		}
	}
	return out
}

// matchRules matches a rule set in one pass over the e-graph, grouping
// nodes by operator so each rule only visits candidate roots. It is
// the saturation loop's batched form of MatchAll.
func (g *EGraph) matchRules(rules []*Rule) []ruleMatch {
	byOp := map[expr.Op][]*Rule{}
	var varRules []*Rule
	for _, r := range rules {
		if r.LHS.Var != "" {
			varRules = append(varRules, r)
			continue
		}
		byOp[r.LHS.Op] = append(byOp[r.LHS.Op], r)
	}
	var out []ruleMatch
	for i, cl := range g.classes {
		if cl == nil {
			continue
		}
		id := ClassID(i)
		for _, r := range varRules {
			for _, s := range g.matchClass(r.LHS, id, emptySubst) {
				out = append(out, ruleMatch{rule: r, m: Match{Class: id, Subst: s}})
			}
		}
		for ni := cl.first; ni >= 0; ni = g.next[ni] {
			n := &g.arena[ni]
			cands := byOp[n.Op]
			if len(cands) == 0 {
				continue
			}
			var canon ENode
			canonDone := false
			for _, r := range cands {
				mark := len(g.substStack)
				g.matchNodeOnStack(r.LHS, n, emptySubst)
				if len(g.substStack) > mark && !canonDone {
					canon = g.canonNode(*n)
					canonDone = true
				}
				for _, s := range g.substStack[mark:] {
					out = append(out, ruleMatch{rule: r, m: Match{Class: id, Node: canon, Subst: s}})
				}
				g.substStack = g.substStack[:mark]
			}
		}
	}
	return out
}

// ruleMatch pairs a rule with one of its matches.
type ruleMatch struct {
	rule *Rule
	m    Match
}

// matchClass matches pattern p against class c, extending base; it
// returns all consistent substitutions as a fresh slice. The
// saturation matchers use matchClassOnStack directly to avoid the
// materialization.
func (g *EGraph) matchClass(p *Pattern, c ClassID, base *Subst) []*Subst {
	mark := len(g.substStack)
	g.matchClassOnStack(p, c, base)
	if len(g.substStack) == mark {
		return nil
	}
	out := make([]*Subst, len(g.substStack)-mark)
	copy(out, g.substStack[mark:])
	g.substStack = g.substStack[:mark]
	return out
}

// matchClassOnStack matches pattern p against class c, extending base,
// and pushes every consistent substitution onto g.substStack. The
// stack discipline — callers record len(g.substStack), consume the
// entries above it, and truncate back — is what lets the matchers run
// allocation-free: only the substitutions themselves live on the heap,
// never the intermediate result lists.
func (g *EGraph) matchClassOnStack(p *Pattern, c ClassID, base *Subst) {
	c = g.Find(c)
	if p.Var != "" {
		if bound, ok := base.lookupClass(p.Var); ok {
			if g.Find(bound) == c {
				g.substStack = append(g.substStack, base)
			}
			return
		}
		g.substStack = append(g.substStack, base.withClass(g, p.Var, c))
		return
	}
	cl := g.classes[c]
	if cl == nil {
		return
	}
	for ni := cl.first; ni >= 0; ni = g.next[ni] {
		g.matchNodeOnStack(p, &g.arena[ni], base)
	}
}

func (g *EGraph) matchNodeOnStack(p *Pattern, n *ENode, base *Subst) {
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
	s := base
	// bind extends s by what this node binds: the first binding clones
	// base, the rest extend that clone in place — nothing else has seen
	// it yet.
	bind := func() *Subst {
		if s == base {
			s = base.clone(g)
		}
		return s
	}
	// Attributes first (cheap).
	for i, ap := range p.Attrs {
		got := n.Ints[i]
		if ap.Var == "" {
			if !got.Equal(ap.Lit) {
				return
			}
			continue
		}
		if bound, ok := s.lookupAttr(ap.Var); ok {
			if !bound.Equal(got) {
				return
			}
			continue
		}
		bind().addAttr(ap.Var, got)
	}
	if p.VarKids != "" {
		if bound, ok := s.lookupKids(p.VarKids); ok {
			if len(bound) != len(n.Kids) {
				return
			}
			for i := range n.Kids {
				if g.Find(bound[i]) != g.Find(n.Kids[i]) {
					return
				}
			}
			g.substStack = append(g.substStack, s)
			return
		}
		kids := make([]ClassID, len(n.Kids))
		for i, k := range n.Kids {
			kids[i] = g.Find(k)
		}
		bind().addKids(p.VarKids, kids)
		g.substStack = append(g.substStack, s)
		return
	}
	if len(p.Kids) == 0 {
		g.substStack = append(g.substStack, s)
		return
	}
	// Children: cartesian backtracking, level by level on the stack.
	// Frame [lo, hi) holds the substitutions consistent through child
	// i-1; matching child i extends each onto the stack top. Indexing
	// (not pointers) keeps the loop safe across stack reallocation.
	mark := len(g.substStack)
	g.matchClassOnStack(p.Kids[0], n.Kids[0], s)
	lo, hi := mark, len(g.substStack)
	for i := 1; i < len(p.Kids) && lo < hi; i++ {
		for j := lo; j < hi; j++ {
			g.matchClassOnStack(p.Kids[i], n.Kids[i], g.substStack[j])
		}
		lo, hi = hi, len(g.substStack)
	}
	// Slide the final frame down over the intermediate levels.
	kept := copy(g.substStack[mark:], g.substStack[lo:hi])
	g.substStack = g.substStack[:mark+kept]
}

// RTerm is a term template used to build rewrite right-hand sides.
// Exactly one of VarName (copy a bound class), Direct (use a concrete
// class), or Op (build an ENode over Kids) is used.
type RTerm struct {
	VarName   string
	Direct    ClassID
	HasDirect bool

	Op   expr.Op
	Str  string
	Ints []sym.Expr
	Kids []*RTerm

	LeafTID  int
	LeafName string
	IsLeaf   bool
}

// RVar references a class bound by the LHS.
func RVar(name string) *RTerm { return &RTerm{VarName: name} }

// RClass references a concrete class directly.
func RClass(c ClassID) *RTerm { return &RTerm{Direct: c, HasDirect: true} }

// ROp builds an operator application template.
func ROp(op expr.Op, ints []sym.Expr, str string, kids ...*RTerm) *RTerm {
	return &RTerm{Op: op, Str: str, Ints: ints, Kids: kids}
}

// RLeaf builds a tensor-leaf template.
func RLeaf(tid int, name string) *RTerm { return &RTerm{IsLeaf: true, LeafTID: tid, LeafName: name} }

// Instantiate adds the template to the e-graph under subst and returns
// its class. When lookupOnly is set it never inserts: it fails (ok =
// false) unless every node already exists — this implements the
// paper's constrained lemmas (§4.3.2).
//
// During saturation, inserts are budgeted: a node that would push the
// live count past SaturateOpts.MaxNodes is declined and Instantiate
// fails, leaving the graph congruent (nodes built for earlier template
// positions stay — they are valid, just unused). Saturate observes the
// denial and stops with a node-limit verdict.
func (g *EGraph) Instantiate(t *RTerm, s *Subst, lookupOnly bool) (ClassID, bool) {
	switch {
	case t.VarName != "":
		c, ok := s.lookupClass(t.VarName)
		if !ok {
			panic(fmt.Sprintf("egraph: RHS references unbound ?%s", t.VarName))
		}
		return g.Find(c), true
	case t.HasDirect:
		return g.Find(t.Direct), true
	case t.IsLeaf:
		n := Leaf(t.LeafTID, t.LeafName)
		if lookupOnly {
			return g.Lookup(n)
		}
		return g.addNode(n, true)
	}
	kids := make([]ClassID, len(t.Kids))
	for i, k := range t.Kids {
		c, ok := g.Instantiate(k, s, lookupOnly)
		if !ok {
			return 0, false
		}
		kids[i] = c
	}
	n := ENode{Op: t.Op, Str: t.Str, Ints: t.Ints, Kids: kids}
	if lookupOnly {
		return g.Lookup(n)
	}
	return g.addNode(n, true)
}

// InstantiateOp inserts a single n-ary node over existing kid classes
// and returns its class — the one-level special case of Instantiate
// that dynamic lemmas hit on every application, stripped of the RTerm
// template tree. It is budgeted exactly like rule instantiation: a
// node that would push the live count past SaturateOpts.MaxNodes is
// declined (ok == false). The common case — the node already exists —
// allocates nothing; only a genuine insert copies kids (addNode
// retains its kid slice in the memo table and parent lists, and
// callers routinely reuse theirs).
func (g *EGraph) InstantiateOp(op expr.Op, ints []sym.Expr, str string, kids []ClassID) (ClassID, bool) {
	n := ENode{Op: op, Str: str, Ints: ints, Kids: kids}
	if id, ok := g.Lookup(n); ok {
		return id, true
	}
	ck := make([]ClassID, len(kids))
	copy(ck, kids)
	n.Kids = ck
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
