package core

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"entangle/internal/egraph"
	"entangle/internal/expr"
	"entangle/internal/graph"
	"entangle/internal/models"
	"entangle/internal/relation"
	"entangle/internal/shape"
	"entangle/internal/sym"
)

// TestUndominated pins the domination rule over a G_d of two chains,
// a → x → y and b → z: a mapping is dropped when one of its G_d leaves
// is a strict ancestor of a leaf of another mapping of the same tensor.
func TestUndominated(t *testing.T) {
	bd := graph.NewBuilder("gd", sym.NewContext())
	a := bd.Input("a", shape.Of(2, 2))
	b := bd.Input("b", shape.Of(2, 2))
	x := bd.Unary("x", "exp", a)
	y := bd.Unary("y", "exp", x)
	z := bd.Unary("z", "exp", b)
	bd.Output(y, z)
	gd := bd.MustBuild()
	order, err := gd.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	r := &runState{gd: gd, gdOrder: order}
	leaf := func(id graph.TensorID) *expr.Term { return relation.GdLeaf(gd.Tensor(id)) }
	gsLeaf := expr.Tensor(3, "gs/t3")
	outside := expr.Tensor(relation.GdOffset+99, "outside")

	for _, c := range []struct {
		name      string
		all, want []*expr.Term
	}{
		{"an ancestor leaf is dominated", []*expr.Term{leaf(x), leaf(y)}, []*expr.Term{leaf(y)}},
		{"through a sum", []*expr.Term{expr.Sum(leaf(a), leaf(z)), leaf(y), leaf(b)}, []*expr.Term{leaf(y)}},
		{"equal leaves are not", []*expr.Term{leaf(x), expr.Sum(leaf(x), leaf(z))}, nil},
		{"crossing mappings are all read", []*expr.Term{expr.Sum(leaf(a), leaf(z)), expr.Sum(leaf(b), leaf(y))}, nil},
		{"a G_s leaf is nobody's ancestor", []*expr.Term{gsLeaf, leaf(y)}, nil},
		{"beside a G_s leaf", []*expr.Term{expr.Sum(gsLeaf, leaf(a)), leaf(x)}, []*expr.Term{leaf(x)}},
		{"an ID outside G_d's table is nobody's ancestor", []*expr.Term{outside, leaf(a)}, nil},
		{"one mapping", []*expr.Term{leaf(a)}, nil},
	} {
		want := c.want
		if want == nil {
			want = c.all
		}
		got := r.undominated(c.all)
		if !slices.EqualFunc(got, want, (*expr.Term).Equal) {
			t.Errorf("%s: undominated(%v) = %v, want %v", c.name, c.all, got, want)
		}
		if c.want == nil && &got[0] != &c.all[0] {
			t.Errorf("%s: nothing dominated, but the list was copied", c.name)
		}
	}
	// The scratch is handed back clean: a second pass reads the same.
	if got := r.undominated([]*expr.Term{leaf(x), leaf(y)}); len(got) != 1 || !got[0].Equal(leaf(y)) {
		t.Errorf("second pass: %v", got)
	}
	one := []*expr.Term{leaf(a)}
	if allocs := testing.AllocsPerRun(10, func() { r.undominated(one) }); allocs != 0 {
		t.Errorf("a tensor with one mapping allocates %.0f times", allocs)
	}
}

// TestWideningMergesStats: SeedMoE's L0/router fails when it reads only
// its input's newest spellings and refines at the ladder's second rung,
// and its verdict carries both searches' statistics.
func TestWideningMergesStats(t *testing.T) {
	b, err := models.SeedMoE(models.Options{TP: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var rungs []rung
	opts := Options{Workers: 1, rungHook: func(v *graph.Node, rg rung) {
		if v.Label == "L0/router" {
			rungs = append(rungs, rg)
		}
	}}
	run, _, err := NewChecker(opts).checkContext(ctx, b.Gs, b.Gd, b.Ri, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(rungs, []rung{rungNewest, rungAll}) {
		t.Fatalf("L0/router searched at rungs %v, want [newest all]", rungs)
	}
	i := slices.IndexFunc(run.order, func(v *graph.Node) bool { return v.Label == "L0/router" })
	res := run.ledger[i]
	if res.verdict.Kind != VerdictRefined || res.verdict.Escalations != 0 {
		t.Fatalf("L0/router: %s after %d escalations", res.verdict.Kind, res.verdict.Escalations)
	}
	v := run.order[i]
	newest, _, err := run.processOp(ctx, v, baseBudget(), rungNewest, nil)
	var re *RefinementError
	if !errors.As(err, &re) {
		t.Fatalf("L0/router at the first rung: %v, want a refinement failure", err)
	}
	all, _, err := run.processOp(ctx, v, baseBudget(), rungAll, nil)
	if err != nil {
		t.Fatalf("L0/router at the second rung: %v", err)
	}
	var want egraph.Stats
	want.Merge(newest)
	want.Merge(all)
	if !reflect.DeepEqual(res.stats, want) {
		t.Errorf("L0/router's stats %+v, want both rungs merged: %+v", res.stats, want)
	}
}
