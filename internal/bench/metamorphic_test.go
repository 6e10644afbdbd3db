package bench

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"entangle/internal/core"
	"entangle/internal/expr"
	"entangle/internal/graph"
	"entangle/internal/relation"
)

// TestVerdictIgnoresRankOrderAndNames: a capture emits its nodes in
// whatever order and under whatever tensor names it likes, and neither
// is part of what a check reads. Over the zoo, the committed fuzz
// corpus and a slice of the seed-7 campaign, every operator's verdict
// kind and whether the check errs (or whether an expectation holds)
// are unchanged when
//
//   - rank order: G_d is re-emitted with its inputs reversed and its
//     nodes in the topological order that takes the highest rank
//     (label prefix r<k>/) first;
//   - alpha-equivalence: every tensor of both graphs is renamed, R_i
//     (and an expectation) is re-keyed by name, and both graphs are
//     re-emitted in another topological order, the latest node first.
//
// Each transform must move something: G_d's node or input IDs for the
// first, every tensor name for the second.
func TestVerdictIgnoresRankOrderAndNames(t *testing.T) {
	same := func(s string) string { return s }
	rename := func(s string) string {
		h := sha256.Sum256([]byte(s))
		return fmt.Sprintf("t%x", h[:6])
	}
	rankFirst := func(a, b *graph.Node) bool {
		if ra, rb := rankOf(a), rankOf(b); ra != rb {
			return ra > rb
		}
		return a.ID < b.ID
	}
	latestFirst := func(a, b *graph.Node) bool { return a.ID > b.ID }
	reorders := 0
	cases, kinds := baselineCases(t)
	for i, c := range cases {
		want := kinds[i]

		reversed := slices.Clone(c.gd.Inputs)
		slices.Reverse(reversed)
		gd, gdIDs := reemit(t, c.gd, reversed, rankFirst, same)
		if !nodesMoved(c.gd, gd) && !slices.ContainsFunc(c.gd.Inputs, func(in graph.TensorID) bool { return gdIDs[in] != in }) {
			t.Errorf("%s: re-emitting G_d rank first moved no node or input", c.name)
		}
		ranked := c.rekey(c.gs, gd, identityIDs(c.gs), gdIDs)
		if got := ranked.kinds(core.Options{}); got != want {
			t.Errorf("%s: verdicts as captured:\n%swith G_d's ranks reordered:\n%s", c.name, want, got)
		}

		gs, gsIDs := reemit(t, c.gs, c.gs.Inputs, latestFirst, rename)
		gd, gdIDs = reemit(t, c.gd, c.gd.Inputs, latestFirst, rename)
		if !everyNameMoved(c.gs, gs, gsIDs) || !everyNameMoved(c.gd, gd, gdIDs) {
			t.Errorf("%s: renaming kept a tensor's name", c.name)
		}
		if nodesMoved(c.gs, gs) || nodesMoved(c.gd, gd) {
			reorders++
		}
		renamed := c.rekey(gs, gd, gsIDs, gdIDs)
		if got := renamed.kinds(core.Options{}); got != want {
			t.Errorf("%s: verdicts as captured:\n%srenamed and reordered:\n%s", c.name, want, got)
		}
	}
	t.Logf("%d cases, %d re-emitted in another node order", len(cases), reorders)
	if reorders == 0 {
		t.Errorf("no case of %d has a second topological order", len(cases))
	}
}

// rankOf is the rank a G_d node's label names (r<k>/…), or -1.
func rankOf(n *graph.Node) int {
	head, _, _ := strings.Cut(n.Label, "/")
	if rest, ok := strings.CutPrefix(head, "r"); ok {
		if k, err := strconv.Atoi(rest); err == nil {
			return k
		}
	}
	return -1
}

// reemit rebuilds g through a graph.Builder: its inputs declared in
// the order of inputs, its operators in the topological order
// that takes, of the ready ones, the first by before, and every tensor
// named by rename. ids[t] is old tensor t's ID in the new graph.
func reemit(t *testing.T, g *graph.Graph, inputs []graph.TensorID, before func(a, b *graph.Node) bool, rename func(string) string) (*graph.Graph, []graph.TensorID) {
	t.Helper()
	b := graph.NewBuilder(g.Name, g.Ctx.Clone())
	ids := make([]graph.TensorID, len(g.Tensors))
	have := make([]bool, len(g.Tensors))
	for _, in := range inputs {
		tt := g.Tensor(in)
		ids[in], have[in] = b.Input(rename(tt.Name), tt.Shape), true
	}
	pending := slices.Clone(g.Nodes)
	ready := func(n *graph.Node) bool {
		return !slices.ContainsFunc(n.Inputs, func(in graph.TensorID) bool { return !have[in] })
	}
	for len(pending) > 0 {
		at := -1
		for i, n := range pending {
			if ready(n) && (at < 0 || before(n, pending[at])) {
				at = i
			}
		}
		if at < 0 {
			t.Fatalf("%s: %d nodes never become ready", g.Name, len(pending))
		}
		n := pending[at]
		pending = slices.Delete(pending, at, at+1)
		ins := make([]graph.TensorID, len(n.Inputs))
		for i, in := range n.Inputs {
			ins[i] = ids[in]
		}
		names := make([]string, len(n.Outputs))
		for i, out := range n.Outputs {
			names[i] = rename(g.Tensor(out).Name)
		}
		outs := b.MultiOp(n.Op, n.Label, names, n.Str, n.Ints, ins...)
		if err := b.Err(); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		for i, out := range n.Outputs {
			ids[out], have[out] = outs[i], true
		}
	}
	for _, out := range g.Outputs {
		b.Output(ids[out])
	}
	ng, err := b.Build()
	if err != nil {
		t.Fatalf("%s: %v", g.Name, err)
	}
	return ng, ids
}

// nodesMoved reports whether a re-emission ng of g gives some node
// another ID.
func nodesMoved(g, ng *graph.Graph) bool {
	for i, n := range g.Nodes {
		if ng.Nodes[i].Label != n.Label {
			return true
		}
	}
	return false
}

// everyNameMoved reports whether a re-emission ng of g, whose tensors
// ids maps g's to, names every tensor anew.
func everyNameMoved(g, ng *graph.Graph, ids []graph.TensorID) bool {
	for i, tt := range g.Tensors {
		if ng.Tensor(ids[i]).Name == tt.Name {
			return false
		}
	}
	return true
}

// identityIDs maps each of g's tensors to itself.
func identityIDs(g *graph.Graph) []graph.TensorID {
	ids := make([]graph.TensorID, len(g.Tensors))
	for i := range ids {
		ids[i] = graph.TensorID(i)
	}
	return ids
}

// rekey is c over re-emitted graphs gs and gd, whose tensors gsIDs and
// gdIDs map c's to: R_i and the expectation's leaves name the same
// tensors under their new IDs and names.
func (c checkCase) rekey(gs, gd *graph.Graph, gsIDs, gdIDs []graph.TensorID) checkCase {
	leaf := func(u *expr.Term) *expr.Term {
		switch {
		case !u.IsLeaf():
			return u
		case relation.IsGd(u.TID):
			return relation.GdLeaf(gd.Tensor(gdIDs[relation.GdTensorID(u.TID)]))
		default:
			return relation.GsLeaf(gs.Tensor(gsIDs[u.TID]))
		}
	}
	ri := relation.New()
	for _, id := range c.ri.Tensors() {
		for _, term := range c.ri.Get(id) {
			ri.Add(gsIDs[id], term.Map(leaf))
		}
	}
	k := checkCase{name: c.name, gs: gs, gd: gd, ri: ri}
	if c.expect != nil {
		k.expect = &core.Expectation{Fs: c.expect.Fs.Map(leaf), Fd: c.expect.Fd.Map(leaf)}
	}
	return k
}

// TestVerdictIgnoresCaptureFormat: the capture format is not part of
// what a check reads. Every zoo case built through the JSON interchange
// (and checked for refinement, not against an expectation) is checked
// twice, as built and routed through the HLO text format (ViaHLO), and
// every operator's verdict kind, and whether the check errs, must be
// the same. Every such case prints as HLO; a round trip that fails
// fails the test.
func TestVerdictIgnoresCaptureFormat(t *testing.T) {
	checked := 0
	for _, c := range Zoo() {
		if c.ViaHLO || c.Expectation {
			continue
		}
		asBuilt := kindsOf(t, c)
		c.ViaHLO = true
		if viaHLO := kindsOf(t, c); viaHLO != asBuilt {
			t.Errorf("%s: verdicts as built:\n%sthrough HLO:\n%s", c.Name, asBuilt, viaHLO)
		}
		checked++
	}
	t.Logf("%d cases have the same verdicts through HLO", checked)
	if checked == 0 {
		t.Error("no zoo case was checked through HLO")
	}
}

// kindsOf builds zoo case c and renders its check's verdict kinds.
func kindsOf(t *testing.T, c ZooCase) string {
	t.Helper()
	_, gs, gd, ri, err := c.Graphs()
	if err != nil {
		t.Fatal(err)
	}
	return checkCase{name: c.Name, gs: gs, gd: gd, ri: ri}.kinds(core.Options{})
}
