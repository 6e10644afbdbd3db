package core

import (
	"context"
	"testing"

	"entangle/internal/expr"
	"entangle/internal/graph"
	"entangle/internal/models"
	"entangle/internal/relation"
)

// checkedRun checks b with reuse on, at Workers 1, and returns the run.
func checkedRun(t *testing.T, gs, gd *graph.Graph, ri *relation.Relation) *runState {
	t.Helper()
	run, _, err := NewChecker(Options{Workers: 1}).checkContext(context.Background(), gs, gd, ri, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// topoIndex is the topo index of the operator labelled label.
func (r *runState) topoIndex(t *testing.T, label string) int {
	t.Helper()
	for i, v := range r.order {
		if v.Label == label {
			return i
		}
	}
	t.Fatalf("no operator %q", label)
	return -1
}

// TestReuseNeedsTheSameWalk: in Llama-3 at TP 2, up poses the search gate
// poses — the same key — but its frontier walk folds fewer G_d nodes, so
// its saturation does different work. L0/up must not reuse L0/gate (a
// sibling, and a different walk), and L1/up must reuse L0/up, not the
// L0/gate entry its key finds first.
func TestReuseNeedsTheSameWalk(t *testing.T) {
	cfg := models.LlamaConfig()
	cfg.Layers = 2
	b, err := models.Llama(models.Options{Cfg: cfg, TP: 2})
	if err != nil {
		t.Fatal(err)
	}
	run := checkedRun(t, b.Gs, b.Gd, b.Ri)
	gate, up, up1 := run.topoIndex(t, "L0/gate"), run.topoIndex(t, "L0/up"), run.topoIndex(t, "L1/up")

	pGate, pUp := run.reuseProbe(gate), run.reuseProbe(up)
	if pGate == nil || pUp == nil || string(pGate.key) != string(pUp.key) {
		t.Fatal("L0/up and L0/gate must pose the same key")
	}
	key := string(pUp.key)
	entries := run.reuse.entries[key]
	if len(entries) < 2 || entries[0].op != gate || entries[1].op != up {
		t.Fatalf("the key's entries must be L0/gate's then L0/up's, have %d", len(entries))
	}
	if run.ledger[up].reused {
		t.Error("L0/up reused a search")
	}
	if _, ok := run.replay(entries[0], pUp); ok {
		t.Error("L0/gate's search replays for L0/up")
	}
	run.releaseProbe(pGate)
	run.releaseProbe(pUp)

	p1 := run.reuseProbe(up1)
	defer run.releaseProbe(p1)
	if string(p1.key) != key {
		t.Fatal("L1/up must pose L0/up's key")
	}
	if !run.ledger[up1].reused {
		t.Error("L1/up searched live")
	}
	if e, _ := run.reusable(up1, p1); e == nil || e.op != up {
		t.Errorf("L1/up must reuse L0/up's search (topo %d), reuses %v", up, e)
	}
}

// TestReuseFallsBackOnAnExtraConsumer: GPT's L1/gelu reuses L0/gelu's
// search. A G_d with one more node consuming a G_d output of one layer's
// gelu — folded by that layer's walk once the output is related, and by
// nothing of the other layer — must make L1/gelu search live, whether
// its walk folds one node more than L0/gelu's recorded one or one node
// less, with reports still byte-identical to a run without reuse.
func TestReuseFallsBackOnAnExtraConsumer(t *testing.T) {
	cfg := models.GPTConfig()
	cfg.Layers = 2
	b, err := models.GPT(models.Options{Cfg: cfg, TP: 2, SP: true})
	if err != nil {
		t.Fatal(err)
	}
	run := checkedRun(t, b.Gs, b.Gd, b.Ri)
	gelu := run.topoIndex(t, "L1/gelu")
	if !run.ledger[gelu].reused {
		t.Fatal("L1/gelu must reuse L0/gelu's search on the unedited G_d")
	}
	for _, layer := range []string{"L0/gelu", "L1/gelu"} {
		var leaf int
		run.rel.Get(run.order[run.topoIndex(t, layer)].Outputs[0])[0].EachLeaf(func(tid int) { leaf = tid })
		gd := b.Gd.Clone()
		if _, err := gd.Append(expr.OpUnary, "extra/neg", "extra.out", "neg", nil, relation.GdTensorID(leaf)); err != nil {
			t.Fatal(err)
		}
		edited := checkedRun(t, b.Gs, gd, b.Ri)
		if edited.ledger[gelu].reused {
			t.Errorf("extra consumer in %s's region: L1/gelu reused L0/gelu's search though one walk folds a node the other does not", layer)
		}
		for _, label := range []string{"L1/q", "L1/o"} {
			if !edited.ledger[edited.topoIndex(t, label)].reused {
				t.Errorf("extra consumer in %s's region: %s, outside its reach, searched live", layer, label)
			}
		}
		opts := Options{Workers: 1}
		on, onErr := NewChecker(opts).Check(b.Gs, gd, b.Ri)
		opts.noReuse = true
		off, offErr := NewChecker(opts).Check(b.Gs, gd, b.Ri)
		if got, want := RenderReport(on, onErr, b.Gs), RenderReport(off, offErr, b.Gs); got != want {
			t.Errorf("extra consumer in %s's region: the report with reuse differs from the one without\n--- without ---\n%s--- with ---\n%s", layer, want, got)
		}
	}
}
