package core

import (
	"strings"
	"sync/atomic"
	"testing"

	"entangle/internal/expr"
	"entangle/internal/fingerprint"
	"entangle/internal/graph"
	"entangle/internal/lemmas"
	"entangle/internal/models"
	"entangle/internal/relation"
	"entangle/internal/shape"
	"entangle/internal/vcache"
)

// The diff fixture: an add feeding an activation, plus an independent
// activation branch. Two-rank split on dim 0 throughout.
//
//	G_s: S = add(X, Y); Z = act(S); U = gelu(V)
//	G_d: per rank r: S_r = add(X_r, Y_r); Z_r = act(S_r); U_r = gelu(V_r)
//
// The canonical refinement-preserving edit swaps the add's operands:
// add(Y, X) still refines (add-is-sum, and a sum hash-conses its kids as
// a multiset), but the cone fingerprint hashes input ORDER, so the
// adder's cone — and its consumers' — change.
func diffGd(t *testing.T) *graph.Graph {
	t.Helper()
	bd := graph.NewBuilder("Gd", nil)
	half := shape.Of(2, 6)
	X0, X1 := bd.Input("X0", half), bd.Input("X1", half)
	Y0, Y1 := bd.Input("Y0", half), bd.Input("Y1", half)
	V0, V1 := bd.Input("V0", half), bd.Input("V1", half)
	S0 := bd.Add("r0/adder", X0, Y0)
	S1 := bd.Add("r1/adder", X1, Y1)
	Z0 := bd.Unary("r0/act", "gelu", S0)
	Z1 := bd.Unary("r1/act", "gelu", S1)
	U0 := bd.Unary("r0/side", "gelu", V0)
	U1 := bd.Unary("r1/side", "gelu", V1)
	bd.Output(Z0, Z1, U0, U1)
	return bd.MustBuild()
}

// diffGs builds one G_s variant with its own input relation against
// gd. swap reverses the add's operands; fn is the activation ("gelu"
// matches gd, anything else is a semantic break).
func diffGs(t *testing.T, gd *graph.Graph, swap bool, fn string) (*graph.Graph, *relation.Relation) {
	t.Helper()
	bs := graph.NewBuilder("Gs", nil)
	X := bs.Input("X", shape.Of(4, 6))
	Y := bs.Input("Y", shape.Of(4, 6))
	V := bs.Input("V", shape.Of(4, 6))
	a, b := X, Y
	if swap {
		a, b = Y, X
	}
	S := bs.Add("adder", a, b)
	Z := bs.Unary("act", fn, S)
	U := bs.Unary("side", "gelu", V)
	bs.Output(Z, U)
	gs := bs.MustBuild()

	ri := relation.New()
	gdT := func(name string) *expr.Term {
		tt, ok := gd.TensorByName(name)
		if !ok {
			t.Fatalf("missing gd tensor %q", name)
		}
		return relation.GdLeaf(tt)
	}
	gsID := func(name string) graph.TensorID {
		tt, ok := gs.TensorByName(name)
		if !ok {
			t.Fatalf("missing gs tensor %q", name)
		}
		return tt.ID
	}
	ri.Add(gsID("X"), expr.ConcatI(0, gdT("X0"), gdT("X1")))
	ri.Add(gsID("Y"), expr.ConcatI(0, gdT("Y0"), gdT("Y1")))
	ri.Add(gsID("V"), expr.ConcatI(0, gdT("V0"), gdT("V1")))
	return gs, ri
}

// TestDiffPlanDirtySet checks DiffPlan's disposition logic in
// isolation (no cache, no execution): the edited operator is Check,
// its consumers TaintedUpstream, the independent branch SkipUnchanged
// — and an identical graph is all-skip.
func TestDiffPlanDirtySet(t *testing.T) {
	gd := diffGd(t)
	oldGs, oldRi := diffGs(t, gd, false, "gelu")
	newGs, newRi := diffGs(t, gd, true, "gelu")

	plan, err := DiffPlan(oldGs, oldRi, newGs, newRi, gd)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Disposition{
		"adder": DispCheck,
		"act":   DispTaintedUpstream,
		"side":  DispSkipUnchanged,
	}
	for label, disp := range want {
		if op := planOpByLabel(t, plan, label); op.Disposition != disp {
			t.Errorf("%s planned %s (%s), want %s", label, op.Disposition, op.Reason, disp)
		}
	}
	if n := dispositions(plan); len(plan.Ops) != 3 || n[DispCheck] != 1 || n[DispTaintedUpstream] != 1 || n[DispSkipUnchanged] != 1 {
		t.Fatalf("totals %v over %d operators", n, len(plan.Ops))
	}

	// Same graph twice (built independently, so node IDs need not
	// match): every cone is unchanged.
	sameGs, sameRi := diffGs(t, gd, false, "gelu")
	same, err := DiffPlan(oldGs, oldRi, sameGs, sameRi, gd)
	if err != nil {
		t.Fatal(err)
	}
	if dispositions(same)[DispSkipUnchanged] != len(same.Ops) {
		t.Fatalf("identical graph not all-skip: %+v", same)
	}
}

// TestDiffCheckReplaysUnchanged is the tentpole's end-to-end contract:
// after a warm full check of the old graph, re-verifying the swapped
// edit saturates only the edit's downstream cone (adder, act) and
// replays the untouched branch (side) from the cache.
func TestDiffCheckReplaysUnchanged(t *testing.T) {
	gd := diffGd(t)
	oldGs, oldRi := diffGs(t, gd, false, "gelu")
	newGs, newRi := diffGs(t, gd, true, "gelu")
	reg := lemmas.Default()
	checker := NewChecker(Options{Registry: reg, Cache: openCache(t)})

	if _, err := checker.Check(oldGs, gd, oldRi); err != nil {
		t.Fatalf("old graph: %v", err)
	}
	delta, err := checker.DiffCheck(oldGs, newGs, gd, oldRi, newRi)
	if err != nil {
		t.Fatalf("diff check: %v", err)
	}
	if delta.UnchangedOps != 1 || delta.ReplayedOps != 1 || delta.RecheckedOps != 2 {
		t.Fatalf("delta counts %d unchanged / %d replayed / %d rechecked, want 1/1/2",
			delta.UnchangedOps, delta.ReplayedOps, delta.RecheckedOps)
	}
	if len(delta.Changed) != 2 || len(delta.NewlyFailing) != 0 {
		t.Fatalf("changed %v newly failing %v", delta.Changed, delta.NewlyFailing)
	}
	for _, op := range delta.Changed {
		if op.Verdict != "refined" {
			t.Errorf("%s re-checked to %q, want refined (%s)", op.Label, op.Verdict, op.Cause)
		}
	}
	if delta.Report.Cache.Hits != 1 {
		t.Errorf("cache hits %d, want 1 (the replayed side branch): %+v",
			delta.Report.Cache.Hits, delta.Report.Cache)
	}
	if delta.Report.LiveStats.Iterations == 0 {
		t.Error("re-checked cone performed no live saturation")
	}
	rendered := delta.Render()
	if !strings.Contains(rendered, "3 ops — 1 unchanged (1 replayed), 2 re-checked") {
		t.Errorf("render header: %q", rendered)
	}
	if !strings.Contains(rendered, "adder: check (cone changed) -> refined") ||
		!strings.Contains(rendered, "act: tainted-upstream (upstream cone changed) -> refined") {
		t.Errorf("render body: %q", rendered)
	}

	// The incremental run's relation must match a from-scratch check of
	// the edited graph — replay never changes results, only work.
	full, err := NewChecker(Options{Registry: reg}).Check(newGs, gd, newRi)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := delta.Report.OutputRelation.Render(newGs), full.OutputRelation.Render(newGs); got != want {
		t.Errorf("diff relation differs from full check:\n--- full ---\n%s\n--- diff ---\n%s", want, got)
	}
}

// TestDiffCheckRechecksWholeCone runs the same contract on a real model
// with an edit high in the graph: on SeedMoE (TP 2) the operands of the
// first add/sum with two distinct inputs are swapped, so the re-checked
// set must be that operator's whole downstream cone — many operators,
// not the single one an edit of the last add leaves — every operator
// outside it replays, and the relation equals a from-scratch check's.
func TestDiffCheckRechecksWholeCone(t *testing.T) {
	b, err := models.SeedMoE(models.Options{TP: 2, Cfg: models.Config{Layers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	order, err := b.Gs.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	newGs := b.Gs.Clone() // keeps tensor IDs: b.Ri serves the edited graph too
	cone := map[graph.NodeID]bool{}
	for _, v := range order {
		if len(cone) == 0 {
			if (v.Op == expr.OpAdd || v.Op == expr.OpSum) && len(v.Inputs) == 2 && v.Inputs[0] != v.Inputs[1] {
				n := newGs.Node(v.ID)
				n.Inputs[0], n.Inputs[1] = n.Inputs[1], n.Inputs[0]
				cone[v.ID] = true
			}
			continue
		}
		for _, in := range v.Inputs {
			if p := b.Gs.Tensor(in).Producer; p != graph.NoProducer && cone[p] {
				cone[v.ID] = true
			}
		}
	}
	if len(cone) < 2 || len(cone) == len(order) {
		t.Fatalf("edit's downstream cone has %d of %d operators: the case is degenerate", len(cone), len(order))
	}

	reg := lemmas.Default()
	checker := NewChecker(Options{Registry: reg, Cache: openCache(t)})
	if _, err := checker.Check(b.Gs, b.Gd, b.Ri); err != nil {
		t.Fatalf("old graph: %v", err)
	}
	delta, err := checker.DiffCheck(b.Gs, newGs, b.Gd, b.Ri, b.Ri)
	if err != nil {
		t.Fatalf("diff check: %v", err)
	}
	if delta.RecheckedOps != len(cone) || delta.UnchangedOps != len(order)-len(cone) || delta.ReplayedOps != delta.UnchangedOps {
		t.Fatalf("delta counts %d unchanged / %d replayed / %d rechecked, want %d/%d/%d",
			delta.UnchangedOps, delta.ReplayedOps, delta.RecheckedOps,
			len(order)-len(cone), len(order)-len(cone), len(cone))
	}
	full, err := NewChecker(Options{Registry: reg}).Check(newGs, b.Gd, b.Ri)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := delta.Report.OutputRelation.Render(newGs), full.OutputRelation.Render(newGs); got != want {
		t.Errorf("diff relation differs from full check:\n--- full ---\n%s\n--- diff ---\n%s", want, got)
	}
}

// TestDiffCheckNewlyFailing breaks the activation in the edited graph:
// the diff must localize the failure to the edited operator and
// classify it newly-failing ("refined before the edit"), while the
// untouched branch still replays.
func TestDiffCheckNewlyFailing(t *testing.T) {
	gd := diffGd(t)
	oldGs, oldRi := diffGs(t, gd, false, "gelu")
	newGs, newRi := diffGs(t, gd, false, "relu") // G_d still computes gelu
	checker := NewChecker(Options{Registry: lemmas.Default(), Cache: openCache(t)})

	if _, err := checker.Check(oldGs, gd, oldRi); err != nil {
		t.Fatalf("old graph: %v", err)
	}
	delta, err := checker.DiffCheck(oldGs, newGs, gd, oldRi, newRi)
	if err == nil {
		t.Fatal("broken edit verified")
	}
	if delta == nil {
		t.Fatal("per-operator failure must still produce a delta report")
	}
	// Only act's own attribute changed: adder and side are unchanged
	// and replay; act is the lone re-check.
	if delta.UnchangedOps != 2 || delta.ReplayedOps != 2 || delta.RecheckedOps != 1 {
		t.Fatalf("delta counts %d unchanged / %d replayed / %d rechecked, want 2/2/1",
			delta.UnchangedOps, delta.ReplayedOps, delta.RecheckedOps)
	}
	if len(delta.NewlyFailing) != 1 {
		t.Fatalf("newly failing %v", delta.NewlyFailing)
	}
	nf := delta.NewlyFailing[0]
	if nf.Label != "act" || !strings.Contains(nf.Cause, "refined before the edit") {
		t.Fatalf("newly failing entry %+v", nf)
	}
	if nf.Verdict != "disproved" {
		t.Fatalf("verdict %q, want disproved", nf.Verdict)
	}
	if !strings.Contains(delta.Render(), "newly failing:") {
		t.Errorf("render misses the newly-failing section: %q", delta.Render())
	}
}

// TestDiffCheckNoCache: without a cache the plan still proves which
// cones are unchanged, but every "replay" honestly falls back to a
// live check — slower, never stale, and the verdicts still match.
func TestDiffCheckNoCache(t *testing.T) {
	gd := diffGd(t)
	oldGs, oldRi := diffGs(t, gd, false, "gelu")
	newGs, newRi := diffGs(t, gd, true, "gelu")
	checker := NewChecker(Options{Registry: lemmas.Default()})

	delta, err := checker.DiffCheck(oldGs, newGs, gd, oldRi, newRi)
	if err != nil {
		t.Fatal(err)
	}
	if delta.UnchangedOps != 1 || delta.ReplayedOps != 0 || delta.RecheckedOps != 3 {
		t.Fatalf("delta counts %d unchanged / %d replayed / %d rechecked, want 1/0/3",
			delta.UnchangedOps, delta.ReplayedOps, delta.RecheckedOps)
	}
	if delta.Report.Cache != (CacheStats{}) {
		t.Fatalf("cacheless diff touched a cache: %+v", delta.Report.Cache)
	}
}

// countingStore counts the lookups a checker issues against a store.
type countingStore struct {
	VerdictStore
	gets atomic.Int64
}

func (c *countingStore) Get(key fingerprint.Hash) *vcache.Entry {
	c.gets.Add(1)
	return c.VerdictStore.Get(key)
}

// TestDiffCheckProbesOncePerOperator: keys are derived once and the
// prefetch is the only probe site, so an all-refined diff run
// looks up exactly one key per new-graph operator. (The old graph's
// verdicts are looked up only for a failing re-checked operator.)
func TestDiffCheckProbesOncePerOperator(t *testing.T) {
	gd := diffGd(t)
	oldGs, oldRi := diffGs(t, gd, false, "gelu")
	newGs, newRi := diffGs(t, gd, true, "gelu")
	store := &countingStore{VerdictStore: openCache(t)}
	checker := NewChecker(Options{Registry: lemmas.Default(), Cache: store})
	if _, err := checker.Check(oldGs, gd, oldRi); err != nil {
		t.Fatal(err)
	}
	store.gets.Store(0)
	delta, err := checker.DiffCheck(oldGs, newGs, gd, oldRi, newRi)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := store.gets.Load(), int64(len(newGs.Nodes)); got != want {
		t.Fatalf("all-refined diff issued %d Gets for %d operators", got, want)
	}

	// A failing re-checked operator adds exactly its own old-verdict
	// lookup.
	badGs, badRi := diffGs(t, gd, false, "relu")
	store.gets.Store(0)
	if delta, err = checker.DiffCheck(oldGs, badGs, gd, oldRi, badRi); err == nil || len(delta.NewlyFailing) != 1 {
		t.Fatalf("broken edit: delta %+v err %v", delta, err)
	}
	if got, want := store.gets.Load(), int64(len(badGs.Nodes)+1); got != want {
		t.Fatalf("one-failure diff issued %d Gets, want %d", got, want)
	}
}

// batchStore is a countingStore that also answers many keys at once.
type batchStore struct {
	countingStore
	batches [][]fingerprint.Hash
}

func (b *batchStore) GetMany(keys []fingerprint.Hash) []*vcache.Entry {
	b.batches = append(b.batches, keys)
	out := make([]*vcache.Entry, len(keys))
	for i, key := range keys {
		out[i] = b.VerdictStore.Get(key)
	}
	return out
}

// TestPrefetchHandsABatchStoreEveryKeyAtOnce: a store with GetMany sees
// a run's keys in one call, in topological order, and no Get; the
// reports are the ones a plain store produces, cold and warm.
func TestPrefetchHandsABatchStoreEveryKeyAtOnce(t *testing.T) {
	gd := diffGd(t)
	gs, ri := diffGs(t, gd, false, "gelu")
	plain := NewChecker(Options{Registry: lemmas.Default(), Cache: openCache(t)})
	store := &batchStore{countingStore: countingStore{VerdictStore: openCache(t)}}
	batched := NewChecker(Options{Registry: lemmas.Default(), Cache: store})
	for pass, wantHits := range []int64{0, 3} {
		want, err := plain.Check(gs, gd, ri)
		if err != nil {
			t.Fatal(err)
		}
		got, err := batched.Check(gs, gd, ri)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cache != want.Cache || got.Cache.Hits != wantHits || got.OutputRelation.Render(gs) != want.OutputRelation.Render(gs) {
			t.Fatalf("pass %d: batch store report %+v, plain store %+v", pass, got.Cache, want.Cache)
		}
		if len(store.batches) != pass+1 || store.gets.Load() != 0 {
			t.Fatalf("pass %d: %d GetMany calls, %d Gets; want one batch per run and no Get", pass, len(store.batches), store.gets.Load())
		}
		batch := store.batches[pass]
		if len(batch) != len(gs.Nodes) {
			t.Fatalf("pass %d: batch of %d keys for %d operators", pass, len(batch), len(gs.Nodes))
		}
		for i, key := range opKeys(t, Options{Registry: lemmas.Default(), Cache: store}, gs, gd, ri) {
			if batch[i] != key {
				t.Fatalf("pass %d: batch key %d is not operator %d's", pass, i, i)
			}
		}
	}
}
