package core

// Reuse within a run: a model stacks the same layer tens of times, and
// an operator of layer k often poses exactly the search an operator of
// an earlier layer already solved, over other tensors. checkOp asks the
// run's reuse table before it searches (after a verdict-cache miss).
// The table answers with an ancestor's recorded search only when the
// two searches are the same up to a renaming of their leaves:
//
//   - The key is the search's whole input, spelt with every leaf as its
//     first-occurrence ordinal (with its shape and output flag): the
//     operator, its attributes, each input's G_s leaf and the mappings
//     the ladder's first rung reads (its newest spellings) in relation
//     order, and its outputs' shapes and output flags. Equal keys are
//     compared byte for byte, not by hash.
//   - The trace is what the recorded search's Listing-3 frontier walk
//     did: per iteration, the G_d nodes foldReady folded. T_rel gains
//     nothing else: the walk goes a level at a time, and a folded
//     node's outputs join T_rel by rule (frontier.ready). A candidate
//     replays it, numbering both searches' leaves alike as it goes (the
//     key numbered the ones they start from): each iteration, foldReady's
//     own decision over its G_d ("all inputs in T_rel") must fold exactly
//     the recorded nodes renamed, in order — same operator, attributes,
//     output shapes and output flags, inputs numbered alike, outputs
//     numbered alike or new to both. A G_d that folds one node more or
//     less around the candidate runs live.
//
// Equal key and replayed trace put the same terms into the same
// e-graph in the same order, so the saturations, extractions and stats
// are the recorded search's, renamed: the hit adds the renamed outputs
// to the relation, stores the verdict as a live run would, and reports
// the recorded Stats. LiveStats, the work that ran, gets nothing.
//
// Only an ancestor in G_s answers, the earliest whose search replays:
// it has finished before its descendant starts, so whether an operator
// reuses is a function of the graphs, not of the schedule, and
// LiveStats is the same at any Workers value. Only a first search (the
// ladder's first rung, at the base budget) that refined is recorded, so
// a hit is always that; operators with a PreOp override and runs with
// DisableFrontier neither record nor reuse. With
// egraph.InvariantChecks on, every hit is checked live as well
// (auditReuse).

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"sync"

	"entangle/internal/det"
	"entangle/internal/egraph"
	"entangle/internal/expr"
	"entangle/internal/graph"
	"entangle/internal/relation"
	"entangle/internal/sym"
)

// reuseTable is one run's recorded searches, by key. Entries are
// immutable once added; workers share the table under mu. The rest is
// made by the first operator that asks (twins): a run that replays
// every verdict from the cache never does.
type reuseTable struct {
	on      bool // searches may be recorded and reused
	mu      sync.Mutex
	entries map[string][]*reuseEntry // in topo order of their operators

	once sync.Once
	// earlier[i] (later[i]) says that an operator before (after)
	// order[i] in topo order has its signature's hash: its attributes
	// and the shapes and output flags of its inputs and outputs, which
	// every operator posing its key shares. Only an operator with an
	// earlier twin can reuse, and only one with a later twin is
	// recorded; a hash collision costs a probe, nothing else.
	earlier, later []bool
}

// twins reports whether order[i] has an earlier and a later twin.
func (r *runState) twins(i int) (earlier, later bool) {
	t := &r.reuse
	t.once.Do(func() { t.index(r.gs, r.order) })
	return t.earlier[i], t.later[i]
}

// index finds the twins of gs's operators, in order.
func (t *reuseTable) index(gs *graph.Graph, order []*graph.Node) {
	t.earlier, t.later = make([]bool, len(order)), make([]bool, len(order))
	last := make(map[uint64]int, len(order))
	var sig []byte
	for i, v := range order {
		sig = appendAttrs(sig[:0], v.Op, v.Str, v.Ints)
		for _, ids := range [][]graph.TensorID{v.Inputs, v.Outputs} {
			sig = appendCount(sig, len(ids))
			for _, id := range ids {
				sig = appendFlag(appendExprs(sig, gs.Tensor(id).Shape), gs.IsOutput(id))
			}
		}
		h := det.Bytes(det.FNVOffset, sig)
		if j, ok := last[h]; ok {
			t.later[j], t.earlier[i] = true, true
		}
		last[h] = i
	}
}

// reuseEntry is one recorded search.
type reuseEntry struct {
	op    int   // the searching operator's topo index
	keyed []int // its leaves, in the order its key numbered them
	trace searchTrace
	// outs is each output's mappings as the search extracted them.
	outs  [][]*expr.Term
	stats egraph.Stats
}

// searchTrace is what a live search logs for the table: the G_d nodes
// it folded, in order, and where each frontier iteration starts. T_rel
// gains exactly the folded nodes' outputs, so the folds are the whole
// walk. A probe's trace is scratch; its methods do nothing on a nil
// trace.
type searchTrace struct {
	folded []*graph.Node
	starts []int
}

// iteration opens the next frontier iteration.
func (tr *searchTrace) iteration() {
	if tr != nil {
		tr.starts = append(tr.starts, len(tr.folded))
	}
}

func (tr *searchTrace) fold(n *graph.Node) {
	if tr != nil {
		tr.folded = append(tr.folded, n)
	}
}

// span is what iteration k folded.
func (tr *searchTrace) span(k int) []*graph.Node {
	end := len(tr.folded)
	if k+1 < len(tr.starts) {
		end = tr.starts[k+1]
	}
	return tr.folded[tr.starts[k]:end]
}

// leafNumbering numbers leaf TIDs of both graphs by first occurrence.
type leafNumbering struct {
	gsTensors int
	// ord is each tensor's ordinal, -1 while unnumbered: G_s tensor id at
	// slot id, G_d tensor id at slot gsTensors+id.
	ord  []int32
	tids []int // ordinal → TID
}

// size readies an empty numbering for graphs of gs and gd tensors.
func (ln *leafNumbering) size(gs, gd int) {
	ln.gsTensors = gs
	if n := gs + gd; len(ln.ord) < n {
		ln.ord = slices.Grow(ln.ord, n-len(ln.ord))
		for len(ln.ord) < n {
			ln.ord = append(ln.ord, -1)
		}
	}
}

func (ln *leafNumbering) slot(tid int) int {
	if relation.IsGd(tid) {
		return ln.gsTensors + int(relation.GdTensorID(tid))
	}
	return tid
}

func (ln *leafNumbering) lookup(tid int) (int32, bool) {
	o := ln.ord[ln.slot(tid)]
	return o, o >= 0
}

func (ln *leafNumbering) add(tid int) int32 {
	o := int32(len(ln.tids))
	ln.ord[ln.slot(tid)] = o
	ln.tids = append(ln.tids, tid)
	return o
}

// truncate forgets every ordinal from n on.
func (ln *leafNumbering) truncate(n int) {
	for _, tid := range ln.tids[n:] {
		ln.ord[ln.slot(tid)] = -1
	}
	ln.tids = ln.tids[:n]
}

// probes is the scratch reuseProbe hands out; a probe grows to the
// largest graphs it has served.
var probes = sync.Pool{New: func() any { return new(reuseProbe) }}

// reuseProbe is one operator's key, the numbering that spelt it, the
// trace of its search and, while an entry is replayed, the numbering of
// the entry's leaves: pooled scratch, good until releaseProbe.
type reuseProbe struct {
	key      []byte
	num, rec leafNumbering
	trace    searchTrace
	record   bool // a later operator might pose the key
}

// newTrace empties p's trace and returns it.
func (p *reuseProbe) newTrace() *searchTrace {
	tr := &p.trace
	tr.folded, tr.starts = tr.folded[:0], tr.starts[:0]
	return tr
}

// reuseProbe spells order[i]'s key; nil when the operator has no twin,
// or when a mapping names a leaf outside both graphs, which no search
// can be renamed onto.
func (r *runState) reuseProbe(i int) *reuseProbe {
	earlier, later := r.twins(i)
	if !earlier && !later {
		return nil
	}
	v := r.order[i]
	p := probes.Get().(*reuseProbe)
	p.record = later
	p.num.size(len(r.gs.Tensors), len(r.gd.Tensors))
	p.rec.size(len(r.gs.Tensors), len(r.gd.Tensors))
	b := appendAttrs(p.key[:0], v.Op, v.Str, v.Ints)
	b = appendCount(b, len(v.Inputs))
	for _, in := range v.Inputs {
		var ok bool
		if b, ok = r.appendLeaf(b, &p.num, int(in)); !ok {
			r.releaseProbe(p)
			return nil
		}
		maps := r.inputMappings(in, rungNewest)
		b = appendCount(b, len(maps))
		for _, m := range maps {
			if b, ok = r.appendTerm(b, &p.num, m); !ok {
				r.releaseProbe(p)
				return nil
			}
		}
	}
	b = appendCount(b, len(v.Outputs))
	for _, out := range v.Outputs {
		b = appendFlag(appendExprs(b, r.gs.Tensor(out).Shape), r.gs.IsOutput(out))
	}
	p.key = b
	return p
}

// releaseProbe hands p's scratch back for another operator's probe.
func (r *runState) releaseProbe(p *reuseProbe) {
	p.num.truncate(0)
	p.rec.truncate(0)
	probes.Put(p)
}

func (r *runState) appendTerm(b []byte, num *leafNumbering, t *expr.Term) ([]byte, bool) {
	if t.IsLeaf() {
		return r.appendLeaf(b, num, t.TID)
	}
	b = appendAttrs(append(b, '('), t.Op, t.Str, t.Ints)
	b = appendCount(b, len(t.Args))
	ok := true
	for _, a := range t.Args {
		if b, ok = r.appendTerm(b, num, a); !ok {
			return b, false
		}
	}
	return append(b, ')'), true
}

// appendLeaf spells a leaf: its ordinal once numbered; on its first
// occurrence its graph, shape and output flag, which number it.
func (r *runState) appendLeaf(b []byte, num *leafNumbering, tid int) ([]byte, bool) {
	t := r.leafTensor(tid)
	if t == nil {
		return b, false
	}
	if o, ok := num.lookup(tid); ok {
		return appendCount(append(b, '#'), int(o)), true
	}
	num.add(tid)
	space, g := byte('s'), r.gs
	if relation.IsGd(tid) {
		space, g = 'd', r.gd
	}
	return appendFlag(appendExprs(append(b, space), t.Shape), g.IsOutput(t.ID)), true
}

func appendAttrs(b []byte, op expr.Op, str string, ints []sym.Expr) []byte {
	b = append(appendCount(b, len(op)), op...)
	b = append(appendCount(b, len(str)), str...)
	return appendExprs(b, ints)
}

// appendExprs spells a count, then each expression's key closed by a
// NUL, which no key contains.
func appendExprs(b []byte, es []sym.Expr) []byte {
	b = appendCount(b, len(es))
	for _, e := range es {
		b = append(e.AppendKey(b), 0)
	}
	return b
}

func appendCount(b []byte, n int) []byte { return append(strconv.AppendInt(b, int64(n), 10), ':') }

func appendFlag(b []byte, f bool) []byte {
	if f {
		return append(b, '!')
	}
	return append(b, '.')
}

// reusable returns the entry of the earliest ancestor of order[i] that
// recorded p's key and whose search replays for order[i], with its
// outputs renamed onto order[i]'s leaves; nil if none.
func (r *runState) reusable(i int, p *reuseProbe) (*reuseEntry, [][]*expr.Term) {
	if earlier, _ := r.twins(i); !earlier {
		return nil, nil
	}
	r.reuse.mu.Lock()
	cands := r.reuse.entries[string(p.key)]
	r.reuse.mu.Unlock()
	for _, e := range cands {
		if e.op < i && r.isAncestor(e.op, i) {
			if outs, ok := r.replay(e, p); ok {
				return e, outs
			}
		}
	}
	return nil, nil
}

// isAncestor reports whether order[j] is a G_s ancestor of order[i]:
// a walk up the producers of order[i], never below topo index j.
func (r *runState) isAncestor(j, i int) bool {
	seen := make([]bool, i-j)
	stack := []int{i}
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, pk := range r.producers[k] {
			switch {
			case pk == j:
				return true
			case pk > j && !seen[pk-j]:
				seen[pk-j] = true
				stack = append(stack, pk)
			}
		}
	}
	return false
}

// replay renames e's search onto the candidate p spelt the same key
// for, and returns the candidate's outputs. p.rec numbers e's leaves as
// p.num numbers the candidate's, so a shared ordinal is the renaming.
// The frontier walk must replay, and every output leaf must be one the
// walk renamed; otherwise replay returns false with p as it was.
func (r *runState) replay(e *reuseEntry, p *reuseProbe) ([][]*expr.Term, bool) {
	keyed := len(p.num.tids)
	for _, tid := range e.keyed {
		p.rec.add(tid)
	}
	if r.walkReplays(e, p) {
		if outs, ok := r.renamedOutputs(e, p); ok {
			return outs, true
		}
	}
	p.num.truncate(keyed)
	p.rec.truncate(0)
	return nil, false
}

// errNoReplay stops a replayed walk at the first node that e's walk
// did not fold there.
var errNoReplay = errors.New("core: the walk does not replay")

// walkReplays walks the candidate's G_d through foldReady's own
// readiness rule (frontier.ready, a level at a time) each iteration of
// e's walk: the nodes it yields must be the ones e's walk folded,
// renamed, in order. Their outputs are numbered alike (foldMatches), so
// T_rel grows alike.
func (r *runState) walkReplays(e *reuseEntry, p *reuseProbe) bool {
	f := r.newFrontier()
	defer f.release()
	for _, tid := range p.num.tids {
		f.relate(tid)
	}
	for k := range e.trace.starts {
		recs := e.trace.span(k)
		_, err := f.ready(r.gdOrder, false, func(n *graph.Node) error {
			if len(recs) == 0 || !r.foldMatches(n, recs[0], p) {
				return errNoReplay
			}
			recs = recs[1:]
			return nil
		})
		if err != nil || len(recs) != 0 {
			return false
		}
	}
	return true
}

// foldMatches reports whether folding n is e's fold of m renamed: the
// same operator, attributes, output shapes and flags, each input
// numbered alike, each output numbered alike or new to both, which
// numbers it in both.
func (r *runState) foldMatches(n, m *graph.Node, p *reuseProbe) bool {
	if n.Op != m.Op || n.Str != m.Str || len(n.Inputs) != len(m.Inputs) || len(n.Outputs) != len(m.Outputs) ||
		!slices.EqualFunc(n.Ints, m.Ints, sym.Expr.Equal) {
		return false
	}
	for j, in := range n.Inputs {
		o, ok := p.num.lookup(gdTID(in))
		if e, eok := p.rec.lookup(gdTID(m.Inputs[j])); !ok || !eok || o != e {
			return false
		}
	}
	for j, out := range n.Outputs {
		o, ok := p.num.lookup(gdTID(out))
		switch e, eok := p.rec.lookup(gdTID(m.Outputs[j])); {
		case !ok && !eok:
			p.num.add(gdTID(out))
			p.rec.add(gdTID(m.Outputs[j]))
		case !ok || !eok || o != e:
			return false
		}
		a, b := r.gd.Tensor(out), r.gd.Tensor(m.Outputs[j])
		if r.gd.IsOutput(a.ID) != r.gd.IsOutput(b.ID) || !slices.EqualFunc(a.Shape, b.Shape, sym.Expr.Equal) {
			return false
		}
	}
	return true
}

func gdTID(id graph.TensorID) int { return int(id) + relation.GdOffset }

// renamedOutputs instantiates e's outputs over the candidate's leaves,
// from the run's leaf table; false if one names a leaf the renaming
// does not reach.
func (r *runState) renamedOutputs(e *reuseEntry, p *reuseProbe) ([][]*expr.Term, bool) {
	ok := true
	rename := func(t *expr.Term) *expr.Term {
		if !t.IsLeaf() {
			return t
		}
		o, known := p.rec.lookup(t.TID)
		if !known || !relation.IsGd(t.TID) {
			ok = false
			return t
		}
		return r.gdix.Leaf(relation.GdTensorID(p.num.tids[o]))
	}
	outs := make([][]*expr.Term, len(e.outs))
	for i, ts := range e.outs {
		outs[i] = make([]*expr.Term, len(ts))
		for j, t := range ts {
			outs[i][j] = t.Map(rename)
		}
	}
	return outs, ok
}

// recordSearch adds order[i]'s refined first-attempt search, traced in
// p, to the table under p's key.
func (r *runState) recordSearch(i int, p *reuseProbe, outs [][]*expr.Term, stats egraph.Stats) {
	tr := &p.trace
	e := &reuseEntry{op: i, keyed: slices.Clone(p.num.tids), outs: outs, stats: stats,
		trace: searchTrace{folded: slices.Clone(tr.folded), starts: slices.Clone(tr.starts)}}
	key := string(p.key)
	r.reuse.mu.Lock()
	defer r.reuse.mu.Unlock()
	if r.reuse.entries == nil {
		r.reuse.entries = map[string][]*reuseEntry{}
	}
	list := r.reuse.entries[key]
	at := len(list)
	for at > 0 && list[at-1].op > i {
		at--
	}
	// reusable reads a list outside the lock: the insert copies it.
	r.reuse.entries[key] = slices.Insert(slices.Clip(list), at, e)
}

// auditReuse checks a reuse hit live: order[i]'s own search must extract
// exactly outs, in order, with exactly e's stats. A difference means the
// key or the trace misses something a search depends on; it panics
// naming both operators, which checkOp's caller turns into an engine
// fault.
func (r *runState) auditReuse(ctx context.Context, i int, e *reuseEntry, outs [][]*expr.Term) {
	v, from := r.order[i], r.order[e.op]
	stats, live, err := r.processOp(ctx, v, baseBudget(), rungNewest, nil)
	if err != nil {
		if ctx.Err() != nil {
			return
		}
		panic(fmt.Sprintf("core: %q reused the search of %q, but its own search fails: %v", v.Label, from.Label, err))
	}
	if !reflect.DeepEqual(stats, e.stats) {
		panic(fmt.Sprintf("core: %q reused the search of %q with stats %+v, but its own search has %+v", v.Label, from.Label, e.stats, stats))
	}
	same := len(live) == len(outs)
	for j := 0; same && j < len(live); j++ {
		same = slices.EqualFunc(live[j], outs[j], func(a, b *expr.Term) bool { return a.Equal(b) && a.String() == b.String() })
	}
	if !same {
		panic(fmt.Sprintf("core: %q reused the search of %q with outputs %v, but its own search extracts %v", v.Label, from.Label, outs, live))
	}
}
