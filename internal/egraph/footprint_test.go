package egraph_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"entangle/internal/egraph"
	"entangle/internal/expr"
	"entangle/internal/lemmas"
	"entangle/internal/shape"
	"entangle/internal/sym"
)

// The footprint differential: the indexed matcher withholds a rule from
// every node its gate says cannot have changed, the naive matcher
// (SetNaiveMatcher) withholds nothing, and the two must be
// indistinguishable — same applications, iterations, node count, class
// partition (class IDs included) and clean extractions — on random term
// sets with the checker's kind of union interleaved between Saturate
// calls, under the real lemma registry.
//
// Each script runs three times. Naive is the reference. Indexed under
// InvariantChecks audits every withheld match as a no-op on the graph
// the match phase saw (Saturate panics otherwise) and then replays it in
// its naive-order turn, which makes that run the naive run exactly and
// counts the late effects: withheld matches an earlier application of
// the same apply phase had made effective by their turn. The gates
// promise nothing about those — the naive matcher applies such a match
// at once, the indexed matcher (as it always has for pure rules) one
// iteration later — so the third run, indexed as in production, must
// equal the reference round for round up to the script's first late
// effect: to the end, on a script that has none.

const (
	diffLeaves = 4
	diffExtent = 8 // every tensor is [8, 8]
)

// termGen draws random terms over concat/slice/sum/scale/add/unary. Every
// term denotes an [8, 8] tensor: slices come in tiling groups re-joined
// by a concat. Leaves are the base tensors plus the tensors the script
// has defined so far.
type termGen struct {
	r      *rand.Rand
	leaves int
}

func diffLeaf(id int) *expr.Term { return expr.Tensor(id, fmt.Sprintf("t%d", id)) }

func (tg *termGen) term(depth int) *expr.Term {
	if depth == 0 {
		return diffLeaf(tg.r.Intn(tg.leaves))
	}
	sub := func() *expr.Term { return tg.term(depth - 1) }
	d := int64(tg.r.Intn(2))
	switch tg.r.Intn(12) {
	case 0:
		return expr.Add(sub(), sub())
	case 8: // opaque to every structural lemma
		return expr.Unary("f", sub())
	case 1:
		return expr.Sum(sub(), sub(), sub())
	case 2:
		return expr.Scale(sub(), 1, int64(2+tg.r.Intn(2)))
	case 3: // sum of equal scales
		den := int64(2 + tg.r.Intn(2))
		return expr.Sum(expr.Scale(sub(), 1, den), expr.Scale(sub(), 1, den))
	case 4: // a tensor cut into tiles and concatenated back
		return tg.tiles(sub(), d)
	case 5: // tiles of two tensors summed tile by tile
		return expr.Sum(tg.tiles(sub(), d), tg.tiles(sub(), d))
	case 6: // nested concat: the halves of a concatenation of halves
		x := sub()
		lo := expr.ConcatI(d, expr.SliceI(x, d, 0, 2), expr.SliceI(x, d, 2, 4))
		return expr.ConcatI(d, lo, expr.SliceI(x, d, 4, diffExtent))
	case 7: // tiles of two spellings of one tensor, proven equal only after several iterations
		a, b, c := sub(), sub(), sub()
		x, y := expr.Unary("f", expr.Sum(a, b, c)), expr.Unary("f", expr.Add(expr.Add(c, a), b))
		return expr.ConcatI(d, expr.SliceI(x, d, 0, 4), expr.SliceI(y, d, 4, diffExtent))
	case 9: // a sum whose kids are one class: at once, or only once the two spellings are proven equal
		a, b := sub(), sub()
		if tg.r.Intn(2) == 0 {
			return expr.Sum(a, a)
		}
		return expr.Sum(expr.Add(a, b), expr.Sum(b, a))
	case 10: // tiles of a sum: slice-of-sum gives the summands their first slice consumers mid-phase
		return tg.tiles(expr.Sum(sub(), sub()), d)
	}
	return diffLeaf(tg.r.Intn(tg.leaves))
}

func (tg *termGen) tiles(x *expr.Term, d int64) *expr.Term {
	cuts := [][]int64{{0, 4, 8}, {0, 2, 4, 8}, {0, 6, 8}}[tg.r.Intn(3)]
	parts := make([]*expr.Term, len(cuts)-1)
	for i := range parts {
		parts[i] = expr.SliceI(x, d, cuts[i], cuts[i+1])
	}
	return expr.ConcatI(d, parts...)
}

// diffScript is one random scenario, replayable on any number of
// graphs: rounds of terms to add, each followed by a Saturate call. The
// unions interleaved between the calls are the checker's kind — a
// fresh tensor leaf unioned with the term that defines it, which later
// terms then mention — so every union is consistent with some
// assignment of values, as every union the checker makes is.
type diffScript struct {
	rounds [][]*expr.Term
	// defines[r][i] is the leaf rounds[r][i] defines, or -1 for a term
	// added on its own.
	defines [][]int
	// lateDefs delays each definition's union by two rounds, and
	// defined leaves have no shape of their own: a term that mentions
	// one gets a shape only when that union lands.
	lateDefs bool
}

func newDiffScript(seed int64, lateDefs bool) diffScript {
	r := rand.New(rand.NewSource(seed))
	tg := &termGen{r: r, leaves: diffLeaves}
	s := diffScript{lateDefs: lateDefs}
	rounds := 3
	if lateDefs {
		rounds = 4
	}
	for round := 0; round < rounds; round++ {
		n := 1 + r.Intn(2)
		terms, defs := make([]*expr.Term, n), make([]int, n)
		defined := 0
		for i := range terms {
			terms[i] = tg.term(1 + r.Intn(2))
			defs[i] = -1
			if r.Intn(3) > 0 {
				defs[i] = tg.leaves + defined
				defined++
			}
		}
		tg.leaves += defined // the next round's terms may mention them
		s.rounds = append(s.rounds, terms)
		s.defines = append(s.defines, defs)
	}
	return s
}

// observation is everything the matchers must agree on after one
// Saturate call.
type observation struct {
	apps    map[string]int
	iters   int
	nodes   int
	stop    egraph.StopReason
	classes string // the partition, class IDs and canonical nodes included
	clean   string // ExtractAllClean of every root
	late    int    // the graph's late effects so far (audited runs count them)
	matches int    // not compared: the one statistic the matchers differ in
}

// diffOpts keeps a script on which some class comes to contain a sum of
// itself from running away; both matchers must hit the budget at the
// same point.
var diffOpts = egraph.SaturateOpts{MaxIters: 10, MaxNodes: 600}

// run replays the script on a graph from New — a recycled one, then:
// every run hands its graph back, so the three regimes of one script,
// and one script and the next, follow each other on the same objects —
// and returns what each Saturate call left. (An audit panic unwinds
// past the Release.)
func (s diffScript) run(rules []*egraph.Rule, unindexed, audit, leafShapes bool) []observation {
	defer func(was bool) { egraph.InvariantChecks = was }(egraph.InvariantChecks)
	egraph.InvariantChecks = audit
	defer egraph.SetNaiveMatcher(egraph.SetNaiveMatcher(unindexed))
	g := egraph.New(nil)
	if leafShapes {
		g.SetLeafShapeFn(func(tid int) (shape.Shape, bool) {
			known := !s.lateDefs || tid < diffLeaves
			return shape.Shape{sym.Const(diffExtent), sym.Const(diffExtent)}, known
		})
	}
	var roots []egraph.ClassID
	var waiting [][][2]egraph.ClassID // late definitions, by the round that made them
	var out []observation
	for round, terms := range s.rounds {
		// A late definition lands two rounds on: the round between has
		// saturated terms that mention the leaf while it had no shape.
		if round >= 2 {
			for _, u := range waiting[round-2] {
				g.Union(u[0], u[1])
			}
		}
		waiting = append(waiting, nil)
		for i, t := range terms {
			c := g.AddTerm(t)
			roots = append(roots, c)
			if id := s.defines[round][i]; id >= 0 {
				def := [2]egraph.ClassID{g.AddTerm(diffLeaf(id)), c}
				if s.lateDefs {
					waiting[round] = append(waiting[round], def)
				} else {
					g.Union(def[0], def[1])
				}
			}
		}
		g.Rebuild()
		st := g.Saturate(rules, diffOpts)
		out = append(out, observation{
			apps: st.Applications, iters: st.Iterations, nodes: st.Nodes, stop: st.StopReason,
			classes: dumpClasses(g), clean: dumpClean(g, roots), late: egraph.LateEffects(g),
			matches: st.Matches,
		})
	}
	g.Release()
	return out
}

func dumpClasses(g *egraph.EGraph) string {
	var b strings.Builder
	for _, id := range g.Classes() {
		fmt.Fprintf(&b, "%d:", id)
		for _, n := range g.Nodes(id) {
			fmt.Fprintf(&b, " %s%v(", n.Op, n.Ints)
			if n.Op == expr.OpTensor {
				fmt.Fprintf(&b, "t%d", n.TID)
			}
			for _, k := range n.Kids {
				fmt.Fprintf(&b, "%d,", g.Find(k))
			}
			b.WriteByte(')')
		}
		// The consumers, through the node arena, and the consumer bits.
		b.WriteString(" <-")
		for _, p := range g.ParentsOf(id) {
			fmt.Fprintf(&b, " %s@%d", p.Node.Op, p.Class)
		}
		for _, op := range []expr.Op{expr.OpSlice, expr.OpConcat, expr.OpSum, expr.OpScale, expr.OpAdd, expr.OpUnary, expr.OpMatMul} {
			if g.ConsumedBy(id, op) {
				fmt.Fprintf(&b, " +%s", op)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func dumpClean(g *egraph.EGraph, roots []egraph.ClassID) string {
	var b strings.Builder
	for _, c := range roots {
		for _, t := range g.ExtractAllClean(c, func(int) bool { return true }, 0) {
			b.WriteString(t.Key())
			b.WriteByte(';')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// firstDivergence compares the leading rounds of two runs.
func firstDivergence(got, want []observation, rounds int) string {
	for i := range want[:rounds] {
		a, b := got[i], want[i]
		switch {
		case !reflect.DeepEqual(a.apps, b.apps):
			return fmt.Sprintf("round %d: applications %v, naive %v", i, a.apps, b.apps)
		case a.iters != b.iters || a.nodes != b.nodes || a.stop != b.stop:
			return fmt.Sprintf("round %d: iters=%d nodes=%d stop=%v, naive iters=%d nodes=%d stop=%v",
				i, a.iters, a.nodes, a.stop, b.iters, b.nodes, b.stop)
		case a.classes != b.classes:
			return fmt.Sprintf("round %d: class partitions differ:\n%s\nnaive:\n%s", i, a.classes, b.classes)
		case a.clean != b.clean:
			return fmt.Sprintf("round %d: clean extractions differ:\n%s\nnaive:\n%s", i, a.clean, b.clean)
		}
	}
	return ""
}

// compareMatchers runs one script under the three regimes and returns
// a description of the first divergence ("" when there is none) and how
// many leading rounds were free of late effects, i.e. on how many the
// production run was held to the reference. A panic from the audit is
// reported as a divergence.
func compareMatchers(rules []*egraph.Rule, s diffScript, leafShapes bool) (diverged string, comparable int) {
	defer func() {
		if p := recover(); p != nil {
			diverged = fmt.Sprintf("audit: %v", p)
		}
	}()
	naive := s.run(rules, true, false, leafShapes)
	audited := s.run(rules, false, true, leafShapes)
	if d := firstDivergence(audited, naive, len(naive)); d != "" {
		return "audited indexed run: " + d, 0
	}
	for comparable < len(audited) && audited[comparable].late == 0 {
		comparable++
	}
	if comparable == 0 {
		return "", 0
	}
	indexed := s.run(rules, false, false, leafShapes)
	if d := firstDivergence(indexed, naive, comparable); d != "" {
		return "indexed run: " + d, comparable
	}
	return "", comparable
}

const diffSeeds = 60

// runDifferential holds the generator to two floors: scripts compared in
// production mode to their end, and rounds so compared in all.
func runDifferential(t *testing.T, lateDefs, leafShapes bool, minScripts, minRounds int) {
	t.Helper()
	rules := lemmas.Default().Rules()
	scripts, rounds := 0, 0
	for seed := int64(1); seed <= diffSeeds; seed++ {
		s := newDiffScript(seed, lateDefs)
		d, n := compareMatchers(rules, s, leafShapes)
		if d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
		rounds += n
		if n == len(s.rounds) {
			scripts++
		}
	}
	t.Logf("%d of %d scripts had no late effect; %d rounds in all were compared in production mode", scripts, diffSeeds, rounds)
	if scripts < minScripts || rounds < minRounds {
		t.Errorf("%d scripts and %d rounds were comparable, want at least %d and %d: the generator no longer tests the production matcher", scripts, rounds, minScripts, minRounds)
	}
}

func TestFootprintDifferential(t *testing.T) { runDifferential(t, false, true, 8, 55) }

// The shape fallback. With no leaf-shape oracle every ShapeOf query
// fails; with late definitions a term's shape becomes derivable only
// after a later union, arbitrarily far below the rules that asked for
// it. Either way the first failed query lifts every footprint to "reads
// the graph", nothing more is withheld from a footprint rule, and the
// matchers agree.
func TestFootprintDifferentialNoShapes(t *testing.T) { runDifferential(t, false, false, 15, 75) }

func TestFootprintDifferentialLateShapes(t *testing.T) { runDifferential(t, true, true, 3, 60) }

// TestFootprintShapeFallback is the late-shape case by hand. f(t4) is
// cut into two tiles and concatenated back while t4 — and so f(t4) —
// has no shape; the tiles cover f(t4) exactly, but nothing can know
// that. Two rounds later t4 is defined as t0: the union touches a class
// two levels below the tiles and three below the concat, out of every
// footprint's reach, and without the fallback slice-tiling would never
// be offered f(t4) again.
func TestFootprintShapeFallback(t *testing.T) {
	late := diffLeaf(diffLeaves)
	u := expr.Unary("f", late)
	s := diffScript{
		lateDefs: true,
		rounds: [][]*expr.Term{
			{diffLeaf(0)},
			{expr.ConcatI(0, expr.SliceI(u, 0, 0, 4), expr.SliceI(u, 0, 4, diffExtent))},
			{diffLeaf(1)},
		},
		defines: [][]int{{late.TID}, {-1}, {-1}},
	}
	rules := lemmas.Default().Rules()
	if d, _ := compareMatchers(rules, s, true); d != "" {
		t.Fatal(d)
	}
	indexed := s.run(rules, false, false, true)
	if indexed[1].apps["slice-tiling"] != 0 || indexed[2].apps["slice-tiling"] != 1 {
		t.Fatalf("slice-tiling must fire exactly when f(t4) gets its shape, in round 2: %v then %v", indexed[1].apps, indexed[2].apps)
	}
}

// TestFootprintCatchesShallowDeclaration plants the bug the audit
// exists for: concat-of-slices compares the classes its kids' slice
// nodes point at (two levels below the match), so declared one level
// too shallow it is withheld from matches it would fire on. Some
// script's audit must notice.
func TestFootprintCatchesShallowDeclaration(t *testing.T) {
	rules := replaceRule(t, "concat-of-slices", func(r *egraph.Rule) { r.Reads = egraph.ReadsBelow(1) })
	for seed := int64(1); seed <= diffSeeds; seed++ {
		if d, _ := compareMatchers(rules, newDiffScript(seed, false), true); d != "" {
			if !strings.Contains(d, `rule "concat-of-slices" (reads below(1)) was withheld`) {
				t.Fatalf("seed %d diverged, but not on the planted declaration: %.300s", seed, d)
			}
			t.Logf("seed %d: %.200s", seed, d)
			return
		}
	}
	t.Fatalf("concat-of-slices declared ReadsBelow(1) survived %d scripts' audits", diffSeeds)
}

// replaceRule returns the registry's rules with the named one swapped
// for an edited copy.
func replaceRule(t *testing.T, name string, edit func(*egraph.Rule)) []*egraph.Rule {
	t.Helper()
	var rules []*egraph.Rule
	planted := false
	for _, r := range lemmas.Default().Rules() {
		if r.Name == name {
			edited := *r
			edit(&edited)
			r, planted = &edited, true
		}
		rules = append(rules, r)
	}
	if !planted {
		t.Fatalf("the registry no longer has a %s rule", name)
	}
	return rules
}

// TestKidGateCatchesWrongDeclaration plants the bug the audit exists
// for on the kid-requirement side: concat-flatten fires when some kid
// class holds a concat, so declared EveryKid it is withheld from
// matches it would fire on. Some script's audit must notice.
func TestKidGateCatchesWrongDeclaration(t *testing.T) {
	rules := replaceRule(t, "concat-flatten", func(r *egraph.Rule) { r.Kids = egraph.EveryKid(expr.OpConcat) })
	for seed := int64(1); seed <= diffSeeds; seed++ {
		if d, _ := compareMatchers(rules, newDiffScript(seed, false), true); d != "" {
			if !strings.Contains(d, `rule "concat-flatten" (reads below(1)) was withheld`) || !strings.Contains(d, "by its kid requirement every:concat") {
				t.Fatalf("seed %d diverged, but not on the planted declaration: %.300s", seed, d)
			}
			t.Logf("seed %d: %.200s", seed, d)
			return
		}
	}
	t.Fatalf("concat-flatten declared EveryKid(concat) survived %d scripts' audits", diffSeeds)
}

// TestDifferentialReachesEveryKidGate holds the generator to every
// declared kid requirement of the registry: over the scripts, each
// gated rule must fire (its gate opens on a match with an effect) and
// must be withheld matches it would otherwise collect (dropping its
// declaration alone raises the match count).
func TestDifferentialReachesEveryKidGate(t *testing.T) {
	rules := lemmas.Default().Rules()
	kinds := map[string]bool{}
	for _, r := range rules {
		if r.Kids.None() {
			continue
		}
		kinds[strings.SplitN(r.Kids.String(), ":", 2)[0]] = true
		undeclared := replaceRule(t, r.Name, func(r *egraph.Rule) { r.Kids = egraph.KidReq{} })
		fired, withheld := 0, 0
		for seed := int64(1); seed <= diffSeeds; seed++ {
			s := newDiffScript(seed, false)
			with, without := s.run(rules, false, false, true), s.run(undeclared, false, false, true)
			for i := range with {
				fired += with[i].apps[r.Name]
				withheld += without[i].matches - with[i].matches
			}
		}
		t.Logf("%s (kids %s): %d applications, %d matches withheld", r.Name, r.Kids, fired, withheld)
		if fired == 0 || withheld <= 0 {
			t.Errorf("%s (kids %s): %d applications and %d withheld matches over %d scripts: the generator does not reach this gate", r.Name, r.Kids, fired, withheld, diffSeeds)
		}
	}
	for _, kind := range []string{"every", "some", "same"} {
		if !kinds[kind] {
			t.Errorf("no registry rule declares a %q kid requirement any more: the differential does not test that gate kind", kind)
		}
	}
}

// TestSliceTilingSeesSlicesMintedThisPhase is the reason slice-tiling
// asks the consumer bits in its Apply and is not gated on them by the
// matcher. Class x has no slice consumer when the match phase collects
// slice-tiling on it; slice-of-sum, applied to the lower-numbered
// classes earlier in the same apply phase, mints the two slices of x
// that tile it, and the naive matcher's slice-tiling application — in
// its turn, later in that phase — fires. So must the indexed one's.
func TestSliceTilingSeesSlicesMintedThisPhase(t *testing.T) {
	rules := lemmas.Default().Rules()
	for _, unindexed := range []bool{true, false} {
		g := egraph.New(nil)
		g.SetLeafShapeFn(func(int) (shape.Shape, bool) {
			return shape.Shape{sym.Const(diffExtent), sym.Const(diffExtent)}, true
		})
		sum := expr.Sum(diffLeaf(0), diffLeaf(1))
		g.AddTerm(expr.ConcatI(0, expr.SliceI(sum, 0, 0, 4), expr.SliceI(sum, 0, 4, diffExtent)))
		// x = t0 = t9: the merged class takes t9's ID, above the slices'.
		x := g.AddTerm(diffLeaf(9))
		g.Union(x, g.AddTerm(diffLeaf(0)))
		g.Rebuild()
		if g.Find(x) != x || g.ConsumedBy(x, expr.OpSlice) {
			t.Fatalf("setup: x is class %d (want %d), slice consumer %t (want none yet)", g.Find(x), x, g.ConsumedBy(x, expr.OpSlice))
		}
		was := egraph.SetNaiveMatcher(unindexed)
		st := g.Saturate(rules, egraph.SaturateOpts{MaxIters: 1})
		egraph.SetNaiveMatcher(was)
		if st.Applications["slice-of-sum"] == 0 || st.Applications["slice-tiling"] == 0 {
			t.Errorf("unindexed=%t: slice-of-sum and slice-tiling must both fire in the first iteration: %v", unindexed, st.Applications)
		}
		if !g.ConsumedBy(x, expr.OpSlice) {
			t.Errorf("unindexed=%t: x has slice consumers now, but its consumer bit is clear", unindexed)
		}
		g.Release()
	}
}
