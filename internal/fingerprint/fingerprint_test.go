package fingerprint

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"entangle/internal/egraph"
	"entangle/internal/expr"
	"entangle/internal/exprparse"
	"entangle/internal/graph"
	"entangle/internal/lemmas"
	"entangle/internal/models"
	"entangle/internal/relation"
	"entangle/internal/shape"
	"entangle/internal/sym"
)

func gptPair(t *testing.T) *models.Built {
	t.Helper()
	b, err := models.GPT(models.Options{Cfg: models.GPTConfig(), TP: 2})
	if err != nil {
		t.Fatalf("building GPT: %v", err)
	}
	return b
}

// roundTrip pushes a graph through the JSON interchange format, which
// reassigns node and tensor IDs in topological order.
func roundTrip(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatalf("writing graph: %v", err)
	}
	out, err := graph.Read(&buf)
	if err != nil {
		t.Fatalf("re-reading graph: %v", err)
	}
	return out
}

// rebindRelation re-parses ri's textual form against re-read copies of
// both graphs, exactly as the CLI does with its relation sidecar.
func rebindRelation(t *testing.T, ri *relation.Relation, gs, gs2, gd2 *graph.Graph) *relation.Relation {
	t.Helper()
	out := relation.New()
	for _, id := range ri.Tensors() {
		t2, ok := gs2.TensorByName(gs.Tensor(id).Name)
		if !ok {
			t.Fatalf("re-read G_s lost tensor %q", gs.Tensor(id).Name)
		}
		for _, m := range ri.Get(id) {
			term, err := exprparse.Parse(m.String(), func(name string) (*expr.Term, error) {
				gdT, ok := gd2.TensorByName(name)
				if !ok {
					t.Fatalf("re-read G_d lost tensor %q", name)
				}
				return relation.GdLeaf(gdT), nil
			})
			if err != nil {
				t.Fatalf("re-parsing %q: %v", m, err)
			}
			out.Add(t2.ID, term)
		}
	}
	return out
}

func gdIndex(t *testing.T, gd *graph.Graph) *GdIndex {
	t.Helper()
	ix, err := NewGdIndex(gd)
	if err != nil {
		t.Fatalf("indexing %q: %v", gd.Name, err)
	}
	return ix
}

// coneSet returns the sorted multiset of per-node cone fingerprints.
func coneSet(g *graph.Graph, ri *relation.Relation, ix *GdIndex) []string {
	c := NewConeHasher(g, ri, ix)
	var out []string
	for _, n := range g.Nodes {
		out = append(out, c.Node(n.ID).Hex())
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
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

// Two independent constructions of the same model must agree: map
// iteration order anywhere in the build pipeline must not leak into
// the hashes.
func TestIndependentBuildsAgree(t *testing.T) {
	a, b := gptPair(t), gptPair(t)
	if GraphDigest(a.Gd) != GraphDigest(b.Gd) {
		t.Error("G_d digests differ across independent builds")
	}
	if !equalStrings(coneSet(a.Gs, a.Ri, gdIndex(t, a.Gd)), coneSet(b.Gs, b.Ri, gdIndex(t, b.Gd))) {
		t.Error("cone fingerprints differ across independent builds")
	}
}

// A WriteGraph→ReadGraph round trip renumbers node and tensor IDs in
// topological order; the fingerprints must not notice.
func TestRoundTripStable(t *testing.T) {
	m := gptPair(t)
	gs2, gd2 := roundTrip(t, m.Gs), roundTrip(t, m.Gd)
	ri2 := rebindRelation(t, m.Ri, m.Gs, gs2, gd2)

	if GraphDigest(m.Gd) != GraphDigest(gd2) {
		t.Error("G_d digest changed across JSON round trip")
	}
	if GraphDigest(m.Gs) != GraphDigest(gs2) {
		t.Error("G_s digest changed across JSON round trip")
	}
	if !equalStrings(coneSet(m.Gs, m.Ri, gdIndex(t, m.Gd)), coneSet(gs2, ri2, gdIndex(t, gd2))) {
		t.Error("cone fingerprints changed across JSON round trip")
	}
}

// JSON object field order is not semantic: a re-marshal through
// map[string]any (which sorts keys alphabetically, unlike the struct
// encoder's declaration order) must decode to the same digests.
func TestJSONFieldReorderStable(t *testing.T) {
	m := gptPair(t)
	for _, g := range []*graph.Graph{m.Gs, m.Gd} {
		data, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		var generic any
		if err := json.Unmarshal(data, &generic); err != nil {
			t.Fatal(err)
		}
		reordered, err := json.Marshal(generic)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(data, reordered) {
			t.Fatal("re-marshal did not change field order; test is vacuous")
		}
		g2, err := graph.Read(bytes.NewReader(reordered))
		if err != nil {
			t.Fatalf("reading reordered JSON: %v", err)
		}
		if GraphDigest(g) != GraphDigest(g2) {
			t.Errorf("digest of %q changed under JSON field reordering", g.Name)
		}
	}
}

// Node labels and tensor names are display metadata; renaming them all
// must not move any hash.
func TestRenameInvariant(t *testing.T) {
	m := gptPair(t)
	before := GraphDigest(m.Gd)
	cones := coneSet(m.Gs, m.Ri, gdIndex(t, m.Gd))

	for _, g := range []*graph.Graph{m.Gs, m.Gd} {
		for _, n := range g.Nodes {
			n.Label = "renamed/" + n.Label
		}
		for _, tn := range g.Tensors {
			tn.Name = "renamed/" + tn.Name
		}
	}
	if GraphDigest(m.Gd) != before {
		t.Error("G_d digest changed under renaming")
	}
	if !equalStrings(coneSet(m.Gs, m.Ri, gdIndex(t, m.Gd)), cones) {
		t.Error("cone fingerprints changed under renaming")
	}
}

// small builds a two-branch graph: branch A (transpose) and branch B
// (scale by num/den) are independent, both feeding graph outputs.
func small(t *testing.T, dim int64, num int64) (*graph.Graph, graph.NodeID, graph.NodeID) {
	t.Helper()
	b := graph.NewBuilder("small", sym.NewContext())
	x := b.Input("x", shape.Shape{sym.Const(4), sym.Const(dim)})
	y := b.Input("y", shape.Shape{sym.Const(4), sym.Const(4)})
	ta := b.Transpose("a", x, 0, 1)
	sb := b.Scale("b", y, num, 2)
	b.Output(ta, sb)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, g.Tensor(ta).Producer, g.Tensor(sb).Producer
}

// Cone locality: a change to one branch must change that branch's cone
// fingerprint and the whole-graph digest, but not the other branch's.
func TestConeLocalityAndSensitivity(t *testing.T) {
	g1, a1, b1 := small(t, 4, 3)
	g2, a2, b2 := small(t, 4, 5) // branch B scales differently
	g3, _, _ := small(t, 8, 3)   // input shape differs

	c1, c2 := NewConeHasher(g1, nil, nil), NewConeHasher(g2, nil, nil)
	if c1.Node(a1) != c2.Node(a2) {
		t.Error("untouched branch's cone fingerprint moved")
	}
	if c1.Node(b1) == c2.Node(b2) {
		t.Error("changed attribute did not change the cone fingerprint")
	}
	if GraphDigest(g1) == GraphDigest(g2) {
		t.Error("changed attribute did not change the graph digest")
	}
	if GraphDigest(g1) == GraphDigest(g3) {
		t.Error("changed input shape did not change the graph digest")
	}
}

// Cone stability under graph edits is what the diff planner's dirty
// set rests on: after editing ONE operator, every untouched operator
// must keep its exact cone fingerprint even when the edited graph is
// also renamed wholesale and pushed through the JSON round trip (which
// renumbers node and tensor IDs in topological order). Only the edited
// operator and its downstream cone may move.
func TestConeStableUnderGraphEdits(t *testing.T) {
	// adder → act is the edited chain; side is the untouched branch.
	build := func(swap bool) (*graph.Graph, [3]graph.NodeID) {
		b := graph.NewBuilder("gs", sym.NewContext())
		sh := shape.Shape{sym.Const(4), sym.Const(4)}
		x, y, v := b.Input("x", sh), b.Input("y", sh), b.Input("v", sh)
		a, c := x, y
		if swap {
			a, c = y, x
		}
		s := b.Add("adder", a, c)
		z := b.Unary("act", "gelu", s)
		u := b.Unary("side", "gelu", v)
		b.Output(z, u)
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return g, [3]graph.NodeID{g.Tensor(s).Producer, g.Tensor(z).Producer, g.Tensor(u).Producer}
	}
	oldG, oldIDs := build(false)
	newG, _ := build(true)
	for _, n := range newG.Nodes {
		n.Label = "renamed/" + n.Label
	}
	for _, tn := range newG.Tensors {
		tn.Name = "renamed_" + tn.Name
	}
	newG = roundTrip(t, newG)
	// Recover the renumbered IDs structurally: the round trip reassigns
	// IDs in topological order, and labels survive the trip.
	var newIDs [3]graph.NodeID
	for _, n := range newG.Nodes {
		switch n.Label {
		case "renamed/adder":
			newIDs[0] = n.ID
		case "renamed/act":
			newIDs[1] = n.ID
		case "renamed/side":
			newIDs[2] = n.ID
		}
	}
	oldCones := NewConeHasher(oldG, nil, nil)
	newCones := NewConeHasher(newG, nil, nil)
	if oldCones.Node(oldIDs[2]) != newCones.Node(newIDs[2]) {
		t.Error("untouched operator's cone fingerprint moved under edit+rename+renumber")
	}
	if oldCones.Node(oldIDs[0]) == newCones.Node(newIDs[0]) {
		t.Error("operand swap did not change the edited operator's cone fingerprint")
	}
	if oldCones.Node(oldIDs[1]) == newCones.Node(newIDs[1]) {
		t.Error("operand swap did not propagate to the downstream cone")
	}
}

// Input-relation entries are part of a cone that consumes them.
func TestRelationEntersCone(t *testing.T) {
	g, a, _ := small(t, 4, 3)
	gd := graph.NewBuilder("dist", sym.NewContext())
	x0 := gd.Input("x0", shape.Shape{sym.Const(4), sym.Const(2)})
	x1 := gd.Input("x1", shape.Shape{sym.Const(4), sym.Const(2)})
	dg, err := gd.Build()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(dim int64) *relation.Relation {
		ri := relation.New()
		ri.Add(g.Inputs[0], expr.New(expr.OpConcat, []sym.Expr{sym.Const(dim)}, "",
			relation.GdLeaf(dg.Tensor(x0)), relation.GdLeaf(dg.Tensor(x1))))
		return ri
	}
	ix := gdIndex(t, dg)
	h1 := NewConeHasher(g, mk(1), ix).Node(a)
	h1b := NewConeHasher(g, mk(1), ix).Node(a)
	h0 := NewConeHasher(g, mk(0), ix).Node(a)
	if h1 != h1b {
		t.Error("identical relations hash differently")
	}
	if h1 == h0 {
		t.Error("changed relation entry did not change the cone fingerprint")
	}
}

func TestAmbientSensitivity(t *testing.T) {
	m := gptPair(t)
	gd := GraphDigest(m.Gd)
	reg := lemmas.Default().Fingerprint()
	base := Ambient("v1", reg, []byte("iters=16"), gd, m.Gs.Ctx)

	if Ambient("v1", reg, []byte("iters=16"), gd, m.Gs.Ctx) != base {
		t.Error("ambient digest unstable")
	}
	if Ambient("v2", reg, []byte("iters=16"), gd, m.Gs.Ctx) == base {
		t.Error("checker version does not move the ambient digest")
	}
	if Ambient("v1", reg, []byte("iters=32"), gd, m.Gs.Ctx) == base {
		t.Error("budget option does not move the ambient digest")
	}
	if Ambient("v1", reg+"x", []byte("iters=16"), gd, m.Gs.Ctx) == base {
		t.Error("registry fingerprint does not move the ambient digest")
	}
	other := GraphDigest(m.Gs)
	if Ambient("v1", reg, []byte("iters=16"), other, m.Gs.Ctx) == base {
		t.Error("G_d digest does not move the ambient digest")
	}
	k := Key(base, gd)
	if Key(base, gd) != k || Key(base, other) == k || Key(Ambient("v2", reg, nil, gd, nil), gd) == k {
		t.Error("Key is not a stable injective-looking combiner")
	}
}

// The lemma-registry fingerprint: stable across constructions, moved
// by any lemma addition.
func TestRegistryFingerprint(t *testing.T) {
	a, b := lemmas.Default(), lemmas.Default()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("registry fingerprint differs across identical constructions")
	}
	before := b.Fingerprint()
	b.MustRegister(&lemmas.Lemma{Name: "test-extra", Kind: lemmas.KindGeneral, Complexity: 1,
		Rules: []*egraph.Rule{{Name: "test-extra-rule"}}})
	if b.Fingerprint() == before {
		t.Error("registering a lemma did not move the registry fingerprint")
	}
	if a.Fingerprint() != before {
		t.Error("unrelated registry's fingerprint moved")
	}
}

// The canonical term codec: decode inverts encode, up to Equal.
func TestTermCodecRoundTrip(t *testing.T) {
	m := gptPair(t)
	ix := gdIndex(t, m.Gd)
	n := 0
	for _, id := range m.Ri.Tensors() {
		for _, term := range m.Ri.Get(id) {
			enc := CanonicalTerm(term, ix)
			back, err := DecodeTerm(enc, ix)
			if err != nil {
				t.Fatalf("decoding %q: %v", enc, err)
			}
			if !back.Equal(term) {
				t.Errorf("round trip changed term: %s -> %s", term, back)
			}
			if CanonicalTerm(back, ix) != enc {
				t.Errorf("re-encode changed bytes for %q", enc)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("no relation terms exercised")
	}
	// A deep mixed-space term with attributes.
	deep := expr.New(expr.OpConcat, []sym.Expr{sym.Const(1)}, "",
		expr.New(expr.OpTranspose, []sym.Expr{sym.Const(0), sym.Const(1)}, "",
			expr.Tensor(3, "s3")),
		expr.Tensor(relation.GdOffset+7, "d7"))
	back, err := DecodeTerm(CanonicalTerm(deep, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(deep) {
		t.Errorf("deep term round trip: %s vs %s", back, deep)
	}
}

// A leaf is its space letter and a decimal id, spelled as CanonicalTerm
// spells it: every id its space holds decodes to that id; one more digit
// than an int holds is an error (the cache then reads a miss), not a
// wrapped-around tensor; a leading zero, or an id that would land in the
// other space, is an error too.
func TestDecodeTermLeafIDs(t *testing.T) {
	cases := []struct {
		src string
		tid int // decoded TID; -1 = overflow error, -2 = any other error
	}{
		{"s0", 0},
		{"s7", 7},
		{"s007", -2}, // 7 is spelled "7"
		{"d00", -2},
		{"s" + strconv.Itoa(relation.GdOffset-1), relation.GdOffset - 1}, // the largest G_s id
		{"s" + strconv.Itoa(relation.GdOffset), -2},                      // is in the G_d space
		{"d0", relation.GdOffset},
		{"d42", relation.GdOffset + 42},
		{"s99999999999999999999", -1},                                        // overflows int
		{"d99999999999999999999", -1},                                        // in either space
		{"(identity|||s99999999999999999999)", -1},                           // and below an operator
		{"d" + strconv.Itoa(math.MaxInt64-relation.GdOffset), math.MaxInt64}, // the largest id is still an id
		{"d" + strconv.Itoa(math.MaxInt64-relation.GdOffset+1), -2},          // one more has no TID
	}
	for _, c := range cases {
		got, err := DecodeTerm(c.src, nil)
		switch {
		case c.tid < 0:
			if err == nil {
				t.Errorf("DecodeTerm(%q) = %v, want an error", c.src, got)
			} else if c.tid == -1 && !errors.Is(err, strconv.ErrRange) {
				t.Errorf("DecodeTerm(%q): error %v does not wrap strconv.ErrRange", c.src, err)
			}
		case err != nil:
			t.Errorf("DecodeTerm(%q): %v", c.src, err)
		case !got.IsLeaf() || got.TID != c.tid:
			t.Errorf("DecodeTerm(%q) = %v (TID %d), want leaf %d", c.src, got, got.TID, c.tid)
		}
	}
}

// Corrupt encodings must come back as errors, never panics — the cache
// treats them as misses.
func TestDecodeTermErrors(t *testing.T) {
	cases := []string{
		"",                          // empty
		"q1",                        // bad leaf space
		"s",                         // leaf without id
		"(concat|",                  // truncated header
		"(concat||1|s0;s1",          // unterminated args
		"(transpose||0,1|s0;s1)",    // arity violation (unary op, 2 args)
		"(concat||1|s0;s1)trailing", // trailing input
		"(concat||1|s0?s1)",         // bad separator
		"(nosuchop|||s0)",           // unknown op (arity panic path)
		strings.Repeat("(concat||1|", 4) + "s0" + strings.Repeat(")", 3), // unbalanced
	}
	for _, src := range cases {
		if got, err := DecodeTerm(src, nil); err == nil {
			t.Errorf("DecodeTerm(%q) = %v, want error", src, got)
		}
	}
	// An out-of-range G_d ordinal against a real index is an error too.
	m := gptPair(t)
	if got, err := DecodeTerm("d99999", gdIndex(t, m.Gd)); err == nil {
		t.Errorf("DecodeTerm out-of-range ordinal = %v, want error", got)
	}
}
