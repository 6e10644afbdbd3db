package egraph_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"entangle/internal/bench"
	"entangle/internal/core"
	"entangle/internal/egraph"
	"entangle/internal/expr"
	"entangle/internal/fingerprint"
	"entangle/internal/fuzz"
	"entangle/internal/graph"
	"entangle/internal/lemmas"
	"entangle/internal/models"
	"entangle/internal/relation"
	"entangle/internal/sym"
	"entangle/internal/vcache"
)

// The recycled ≡ fresh differential. core hands every per-operator
// e-graph back with Release, so a check normally runs on graphs other
// operators — of other models, on other workers — have used before.
// These tests run whole checks twice: once with the free list switched
// off, so every New builds from nothing, exactly as if Release were
// never called; once on a free list stocked with graphs that each last
// served the heaviest operator of one-layer gpt-tp8 (and that the check then
// keeps recycling from operator to operator). Everything an observer
// can see must be byte-identical: the report and both relations, each
// operator's own statistics and extracted mappings (read off the
// verdicts the check stores), and the class partition — class IDs
// included — of every per-operator graph at the moment it is released.

// productionCap is the free list's bound outside these tests, read off
// by setting it. Tests that call egraph.SetFreeListCap (which also
// empties the list; 0 switches recycling off) end with
// defer egraph.SetFreeListCap(productionCap).
var productionCap = func() int {
	n := egraph.SetFreeListCap(0)
	egraph.SetFreeListCap(n)
	return n
}()

// verdictLog is a core.VerdictStore that remembers what a check stores
// and answers lookups from what it was told to serve.
type verdictLog struct {
	mu       sync.Mutex
	stored   map[fingerprint.Hash]*vcache.Entry
	serve    map[fingerprint.Hash]*vcache.Entry
	withheld fingerprint.Hash // never served: this operator is checked live
	stats    vcache.Stats
}

func (l *verdictLog) Get(key fingerprint.Hash) *vcache.Entry {
	if key == l.withheld {
		return nil
	}
	return l.serve[key]
}

func (l *verdictLog) Put(key fingerprint.Hash, e *vcache.Entry) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.stored == nil {
		l.stored = map[fingerprint.Hash]*vcache.Entry{}
	}
	l.stored[key] = e
	return nil
}

func (l *verdictLog) Stats() *vcache.Stats { return &l.stats }

// render is every operator's stored verdict — its own saturation
// statistics and the mappings extracted for it — in key order.
func (l *verdictLog) render() string {
	keys := make([]string, 0, len(l.stored))
	byKey := map[string]*vcache.Entry{}
	for k, e := range l.stored {
		ks := fmt.Sprintf("%x", k[:])
		keys = append(keys, ks)
		byKey[ks] = e
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %q\n", k[:12], byKey[k].Bytes())
	}
	return b.String()
}

// releaseLog collects, through the Release hook, every graph handed
// back while it is installed: the graph, whether some class of it had no
// shape and, when asked to, its class partition.
type releaseLog struct {
	mu        sync.Mutex
	graphs    []*egraph.EGraph
	dumps     []string
	shapeless int
}

// watchReleases installs the hook; done uninstalls it.
func watchReleases(partitions bool) *releaseLog {
	l := &releaseLog{}
	egraph.SetReleaseHook(func(g *egraph.EGraph) {
		d := ""
		if partitions {
			d = dumpClasses(g)
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		l.graphs = append(l.graphs, g)
		l.dumps = append(l.dumps, d)
		if egraph.Shapeless(g) {
			l.shapeless++
		}
	})
	return l
}

func (l *releaseLog) done() { egraph.SetReleaseHook(nil) }

// partitions is the released graphs' class partitions as a sorted
// multiset: workers finish in any order.
func (l *releaseLog) partitions() string {
	sort.Strings(l.dumps)
	return strings.Join(l.dumps, "--\n")
}

// checkView is what one check lets an observer see.
type checkView struct{ report, perOp, classes string }

func (a checkView) diff(b checkView) string {
	switch {
	case a.report != b.report:
		return fmt.Sprintf("reports differ:\n--- recycled ---\n%s\n--- fresh ---\n%s", a.report, b.report)
	case a.perOp != b.perOp:
		return fmt.Sprintf("per-operator verdicts differ:\n--- recycled ---\n%s\n--- fresh ---\n%s", a.perOp, b.perOp)
	case a.classes != b.classes:
		return "class partitions of the per-operator graphs differ"
	}
	return ""
}

func renderReport(rep *core.Report, err error, gs *graph.Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "error: %v\n", err)
	if rep == nil {
		return b.String()
	}
	for _, v := range rep.Verdicts {
		b.WriteString(v.Describe() + "\n")
	}
	fmt.Fprintf(&b, "failures:\n%s", rep.RenderFailures())
	fmt.Fprintf(&b, "stats: %+v\nlive: %+v\ncache: %+v ops: %d\n", rep.Stats, rep.LiveStats, rep.Cache, rep.OpsProcessed)
	if rep.OutputRelation != nil {
		b.WriteString("output relation:\n" + rep.OutputRelation.Render(gs))
	}
	b.WriteString("full relation:\n" + rep.FullRelation.Render(gs))
	return b.String()
}

// observeCheck runs one check of (gs, gd, ri) and returns what it
// showed. A failing check shows its error, and then everything of the
// same check in KeepGoing mode: which operators a first-error run gets
// to before it stops depends on the schedule, not on the graphs.
func observeCheck(t testing.TB, gs, gd *graph.Graph, ri *relation.Relation, workers int) checkView {
	t.Helper()
	run := func(keepGoing bool) (checkView, error) {
		releases := watchReleases(true)
		defer releases.done()
		store := &verdictLog{}
		rep, err := core.NewChecker(core.Options{Registry: lemmas.Default(), Workers: workers, Cache: store, KeepGoing: keepGoing}).
			Check(gs, gd, ri)
		return checkView{report: renderReport(rep, err, gs), perOp: store.render(), classes: releases.partitions()}, err
	}
	view, err := run(false)
	if err != nil {
		first := view.report
		view, _ = run(true)
		view.report = first + "keep going:\n" + view.report
	}
	return view
}

// heavyLives stocks the free list with graphs whose last life was the
// heaviest operator of one-layer gpt-tp8 checked with the frontier off
// (every G_d node folded, every input spelling read: with it on, that
// operator collects 596 matches at any depth): everything else of that
// model is replayed from the verdicts of one recorded cold check, so a
// stocking run saturates that one operator and nothing more.
type heavyLives struct {
	b     *models.Built
	store *verdictLog
}

func newHeavyLives(t testing.TB) *heavyLives {
	t.Helper()
	b, err := models.GPT(models.Options{TP: 8, SP: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := &verdictLog{}
	if _, err := core.NewChecker(core.Options{Workers: 1, Cache: rec, DisableFrontier: true}).Check(b.Gs, b.Gd, b.Ri); err != nil {
		t.Fatal(err)
	}
	h := &heavyLives{b: b, store: &verdictLog{serve: rec.stored}}
	most := -1
	for k, e := range rec.stored {
		if m := e.Stats().Matches; m > most {
			most, h.store.withheld = m, k
		}
	}
	if most < 1000 {
		t.Fatalf("the heaviest operator of gpt-tp8 collected %d matches: not heavy", most)
	}
	return h
}

// stock empties the free list, bounds it at n and fills it with n
// graphs that each last served the heavy operator.
func (h *heavyLives) stock(t testing.TB, n int) {
	t.Helper()
	// The audits are for the checks under test, not for the stocking runs.
	defer func(was bool) { egraph.InvariantChecks = was }(egraph.InvariantChecks)
	egraph.InvariantChecks = false
	egraph.SetFreeListCap(n)
	held := make([]*egraph.EGraph, 0, n)
	for i := 0; i < n; i++ {
		releases := watchReleases(false)
		_, err := core.NewChecker(core.Options{Workers: 1, Cache: h.store, DisableFrontier: true}).Check(h.b.Gs, h.b.Gd, h.b.Ri)
		releases.done()
		if err != nil {
			t.Fatal(err)
		}
		if len(releases.graphs) != 1 {
			t.Fatalf("a stocking run released %d graphs, want the heavy operator's alone", len(releases.graphs))
		}
		// Take it off the list, so the next run builds another.
		g := egraph.New(nil)
		if g != releases.graphs[0] {
			t.Fatal("New did not hand out the graph the heavy operator released")
		}
		held = append(held, g)
	}
	for _, g := range held {
		g.Release()
	}
	if got := egraph.FreeListLen(); got != n {
		t.Fatalf("free list holds %d graphs after stocking, want %d", got, n)
	}
}

// differ compares, for one pair of graphs, the fresh and the recycled
// checkView at workers 1 and 4.
func (h *heavyLives) differ(t *testing.T, name string, observe func(workers int) checkView) {
	t.Helper()
	for _, workers := range []int{1, 4} {
		egraph.SetFreeListCap(0)
		fresh := observe(workers)
		h.stock(t, workers) // one graph a worker: all the check will take off the list
		recycled := observe(workers)
		if d := recycled.diff(fresh); d != "" {
			t.Errorf("%s, workers %d: %s", name, workers, d)
		}
		if fresh.classes == "" {
			t.Errorf("%s, workers %d: no per-operator graph was released", name, workers)
		}
	}
}

func TestRecycledMatchesFreshZoo(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-zoo differential is not short")
	}
	defer egraph.SetFreeListCap(productionCap)
	h := newHeavyLives(t)
	for _, c := range bench.Zoo() {
		b, gs, gd, ri, err := c.Graphs()
		if err != nil {
			t.Fatal(err)
		}
		h.differ(t, c.Name, func(workers int) checkView {
			if !c.Expectation {
				return observeCheck(t, gs, gd, ri, workers)
			}
			releases := watchReleases(true)
			defer releases.done()
			err := core.NewChecker(core.Options{Registry: lemmas.Default(), Workers: workers}).
				CheckExpectation(gs, gd, ri, core.Expectation{Fs: b.ExpectFs, Fd: b.ExpectFd})
			view := checkView{report: fmt.Sprintf("expectation: %v", err), classes: releases.partitions()}
			var violated *core.ExpectationError
			if err != nil && !errors.As(err, &violated) {
				// The refinement check under the expectation failed: which
				// operators it got to before stopping is the schedule's.
				view.classes = "(first-error run)"
			}
			return view
		})
	}
}

func TestRecycledMatchesFreshFuzzCorpus(t *testing.T) {
	corpus, err := fuzz.LoadCorpus("../fuzz/testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) == 0 {
		t.Fatal("empty fuzz corpus")
	}
	defer egraph.SetFreeListCap(productionCap)
	h := newHeavyLives(t)
	for _, c := range corpus {
		cs, err := fuzz.Compose(c.Plan, c.Defect)
		if err != nil {
			t.Fatal(err)
		}
		h.differ(t, c.Name, func(workers int) checkView {
			return observeCheck(t, cs.Gs, cs.Gd, cs.Env.Ri, workers)
		})
	}
}

// The models behind core's golden reports, with the edit and the broken
// edit the goldens check: an operand swap below a commutative add, and
// a duplicated operand.
func TestRecycledMatchesFreshGoldenModels(t *testing.T) {
	defer egraph.SetFreeListCap(productionCap)
	h := newHeavyLives(t)
	builds := map[string]func(models.Options) (*models.Built, error){"gpt": models.GPT, "seedmoe": models.SeedMoE}
	for name, build := range builds {
		b, err := build(models.Options{TP: 2})
		if err != nil {
			t.Fatal(err)
		}
		swapped, doubled := b.Gs.Clone(), b.Gs.Clone()
		edited := false
		for i := len(b.Gs.Nodes) - 1; i >= 0 && !edited; i-- {
			if n := b.Gs.Nodes[i]; (n.Op == expr.OpAdd || n.Op == expr.OpSum) && len(n.Inputs) >= 2 {
				sw, db := swapped.Nodes[i], doubled.Nodes[i]
				sw.Inputs[0], sw.Inputs[1] = sw.Inputs[1], sw.Inputs[0]
				db.Inputs[1] = db.Inputs[0]
				edited = true
			}
		}
		if !edited {
			t.Fatalf("%s: no add/sum to edit", name)
		}
		for variant, gs := range map[string]*graph.Graph{"": b.Gs, "/swapped": swapped, "/doubled": doubled} {
			gs := gs
			h.differ(t, name+variant, func(workers int) checkView {
				return observeCheck(t, gs, b.Gd, b.Ri, workers)
			})
		}
	}
}

// A graph handed back after a check stopped abnormally — Release asserts
// it empty, the whole package runs under InvariantChecks — serves the
// next check exactly like a fresh one; a graph a lemma's panic unwound
// through is never handed back at all.
func TestGraphsSurviveAbnormalStops(t *testing.T) {
	ref, err := models.GPT(models.Options{TP: 2, SP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer egraph.SetFreeListCap(productionCap)
	egraph.SetFreeListCap(0)
	want := observeCheck(t, ref.Gs, ref.Gd, ref.Ri, 1)

	small, err := models.SeedMoE(models.Options{TP: 2})
	if err != nil {
		t.Fatal(err)
	}
	check := func(opts core.Options, ctx context.Context, ri *relation.Relation) (*core.Report, error) {
		opts.Workers = 1
		return core.NewChecker(opts).CheckContext(ctx, small.Gs, small.Gd, ri)
	}

	// third returns options under which act runs, in place of a lemma's
	// fifth application, while the third operator of `small` saturates.
	order, err := small.Gs.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	third := func(act func(*egraph.EGraph)) (core.Options, *graph.Node) {
		var now *graph.Node
		calls := 0
		reg := lemmas.Default()
		reg.MustRegister(&lemmas.Lemma{Name: "act", Kind: lemmas.KindGeneral, Rules: []*egraph.Rule{{
			Name: "act", LHS: egraph.PVar("x"),
			Apply: func(g *egraph.EGraph, m egraph.Match) []egraph.UnionPair {
				if now == order[2] {
					if calls++; calls == 5 {
						act(g)
					}
				}
				return nil
			}}}})
		return core.Options{Registry: reg, PreOp: func(v *graph.Node) *egraph.SaturateOpts {
			now = v
			return nil
		}}, order[2]
	}

	// starved returns options under which every operator's first
	// attempt runs under budget (and its escalation under ×4 of it).
	starved := func(budget egraph.SaturateOpts) core.Options {
		return core.Options{KeepGoing: true,
			PreOp: func(*graph.Node) *egraph.SaturateOpts { return &budget }}
	}

	// Each stop runs a check of `small` that ends the given way, reports
	// the graph the stop happened in, and whether that graph may be
	// recycled.
	type stop struct {
		name    string
		recycle bool
		run     func(t *testing.T) *egraph.EGraph
	}
	// lastReleased runs fn and returns the last graph it released.
	lastReleased := func(t *testing.T, fn func()) (*egraph.EGraph, *releaseLog) {
		releases := watchReleases(false)
		fn()
		releases.done()
		if len(releases.graphs) == 0 {
			t.Fatal("the stopped check released no graph")
		}
		return releases.graphs[len(releases.graphs)-1], releases
	}
	stops := []stop{
		{"lemma panic mid-apply", false, func(t *testing.T) *egraph.EGraph {
			var unwound *egraph.EGraph
			opts, at := third(func(g *egraph.EGraph) {
				unwound = g
				panic("boom")
			})
			_, err := check(opts, context.Background(), small.Ri)
			var fault *core.EngineFaultError
			if !errors.As(err, &fault) || unwound == nil || fault.Op != at {
				t.Fatalf("want an engine fault from the panicking lemma at %q, got %v", at.Label, err)
			}
			return unwound
		}},
		{"context cancelled mid-saturation", true, func(t *testing.T) *egraph.EGraph {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			opts, _ := third(func(*egraph.EGraph) { cancel() })
			g, _ := lastReleased(t, func() {
				if _, err := check(opts, ctx, small.Ri); !errors.Is(err, context.Canceled) {
					t.Fatalf("want a cancelled check, got %v", err)
				}
			})
			return g
		}},
		{"MaxNodes denial", true, func(t *testing.T) *egraph.EGraph {
			g, _ := lastReleased(t, func() {
				rep, _ := check(starved(egraph.SaturateOpts{MaxNodes: 12}), context.Background(), small.Ri)
				if rep == nil || rep.Stats.StopReason != egraph.StopNodeLimit {
					t.Fatalf("want a node-limit stop, got %+v", rep)
				}
			})
			return g
		}},
		{"MaxIters stop", true, func(t *testing.T) *egraph.EGraph {
			g, _ := lastReleased(t, func() {
				rep, _ := check(starved(egraph.SaturateOpts{MaxIters: 1}), context.Background(), small.Ri)
				if rep == nil || rep.Stats.StopReason != egraph.StopIterLimit {
					t.Fatalf("want an iteration-limit stop, got %+v", rep)
				}
			})
			return g
		}},
		{"failed ShapeOf", true, func(t *testing.T) *egraph.EGraph {
			// Every input mapped, besides its real mappings, to a concat
			// of G_d tensors that do not exist: the concat lemmas ask for
			// its kids' extents, and those leaves have no shape.
			ri := small.Ri.Clone()
			for i, in := range small.Gs.Inputs {
				ghost := func(j int) *expr.Term {
					return expr.Tensor(relation.GdOffset+len(small.Gd.Tensors)+2*i+j, "ghost")
				}
				ri.Add(in, expr.New(expr.OpConcat, []sym.Expr{sym.Const(0)}, "", ghost(0), ghost(1)))
			}
			g, releases := lastReleased(t, func() {
				if _, err := check(core.Options{KeepGoing: true}, context.Background(), ri); err != nil {
					t.Logf("check with shapeless leaves: %v", err)
				}
			})
			if releases.shapeless == 0 {
				t.Fatal("no graph of the check held a class without a shape")
			}
			return g
		}},
	}
	for _, s := range stops {
		t.Run(s.name, func(t *testing.T) {
			egraph.SetFreeListCap(4)
			g := s.run(t)
			if egraph.OnFreeList(g) != s.recycle {
				t.Fatalf("graph on the free list: %t, want %t", !s.recycle, s.recycle)
			}
			if s.recycle && egraph.FreeListLen() == 0 {
				t.Fatal("the stopped check left nothing to recycle")
			}
			if got := observeCheck(t, ref.Gs, ref.Gd, ref.Ri, 1); got.diff(want) != "" {
				t.Errorf("the next check differs from one on fresh graphs: %s", got.diff(want))
			}
			if egraph.OnFreeList(g) != s.recycle {
				t.Errorf("after the next check, graph on the free list: %t, want %t", !s.recycle, s.recycle)
			}
		})
	}
}

// What the free list can pin is a fixed amount: with every slot holding
// a graph that just served the heaviest operator of one-layer gpt-tp8, the
// heap bytes reachable only through the list — measured, by emptying
// it — stay under a constant.
func TestRetainedFootprintBounded(t *testing.T) {
	const bound = 512 << 10 // bytes, for the whole list
	defer func(was bool) { egraph.InvariantChecks = was }(egraph.InvariantChecks)
	egraph.InvariantChecks = false
	defer egraph.SetFreeListCap(productionCap)
	slots := productionCap
	h := newHeavyLives(t)
	h.stock(t, slots)

	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	full := heap()
	egraph.SetFreeListCap(0)
	empty := heap()
	retained := int64(full) - int64(empty)
	t.Logf("%d heavy graphs on the free list pin %d KB", slots, retained>>10)
	if retained > bound {
		t.Errorf("the free list pins %d bytes, bound %d", retained, bound)
	}
	if retained < 16<<10 {
		t.Errorf("the free list pins %d bytes: it kept nothing worth recycling", retained)
	}
}
