package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"entangle/internal/expr"
	"entangle/internal/graph"
	"entangle/internal/relation"
	"entangle/internal/shape"
	"entangle/internal/sym"
)

// figure1 builds the paper's running example (Figures 1 and 2):
//
//	G_s: C = matmul(A, B); F = matsub(C, E)
//	G_d: per rank r∈{0,1}: C_r = matmul(A_r, B_r);
//	     D_0, D_1 = reduce-scatter(C_0, C_1) on dim 0;
//	     F_r = matsub(D_r, E_r)
//	R_i: A = concat(A1, A2, dim=1), B = concat(B1, B2, dim=0),
//	     E = concat(E0, E1, dim=0)
func figure1(t *testing.T) (*graph.Graph, *graph.Graph, *relation.Relation) {
	t.Helper()
	bs := graph.NewBuilder("Gs", nil)
	A := bs.Input("A", shape.Of(4, 8))
	B := bs.Input("B", shape.Of(8, 6))
	E := bs.Input("E", shape.Of(4, 6))
	C := bs.MatMul("matmul", A, B)
	F := bs.Sub("matsub", C, E)
	bs.Output(F)
	gs, err := bs.Build()
	if err != nil {
		t.Fatal(err)
	}

	bd := graph.NewBuilder("Gd", nil)
	A1 := bd.Input("A1", shape.Of(4, 4))
	A2 := bd.Input("A2", shape.Of(4, 4))
	B1 := bd.Input("B1", shape.Of(4, 6))
	B2 := bd.Input("B2", shape.Of(4, 6))
	E0 := bd.Input("E0", shape.Of(2, 6))
	E1 := bd.Input("E1", shape.Of(2, 6))
	C1 := bd.MatMul("r0/matmul", A1, B1)
	C2 := bd.MatMul("r1/matmul", A2, B2)
	D := bd.ReduceScatter("rs", 0, C1, C2)
	F1 := bd.Sub("r0/matsub", D[0], E0)
	F2 := bd.Sub("r1/matsub", D[1], E1)
	bd.Output(F1, F2)
	gd, err := bd.Build()
	if err != nil {
		t.Fatal(err)
	}

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
	ri.Add(gsID("A"), expr.ConcatI(1, gdT("A1"), gdT("A2")))
	ri.Add(gsID("B"), expr.ConcatI(0, gdT("B1"), gdT("B2")))
	ri.Add(gsID("E"), expr.ConcatI(0, gdT("E0"), gdT("E1")))
	return gs, gd, ri
}

func TestFigure1Refines(t *testing.T) {
	gs, gd, ri := figure1(t)
	report, err := NewChecker(Options{}).Check(gs, gd, ri)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	f, _ := gs.TensorByName("matsub.out")
	maps := report.OutputRelation.Get(f.ID)
	if len(maps) == 0 {
		t.Fatal("no output mapping for F")
	}
	want := "concat(rs.out0, rs.out1"
	found := false
	for _, m := range maps {
		if strings.Contains(m.String(), "r0/matsub.out") || strings.Contains(m.String(), "concat") {
			found = true
		}
		t.Logf("F = %s", m)
	}
	if !found {
		t.Fatalf("expected a concat mapping, got %v (hint %s)", maps, want)
	}
	// The paper's R_F: F = concat(F1, F2, dim=0).
	wantTerm := "concat(r0/matsub.out, r1/matsub.out, dim=0)"
	ok := false
	for _, m := range maps {
		if m.String() == wantTerm {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("expected %q among mappings %v", wantTerm, maps)
	}
	if !report.OutputRelation.Complete(gs.Outputs) {
		t.Fatal("output relation must be complete")
	}
	if report.OpsProcessed != 2 {
		t.Fatalf("ops processed %d", report.OpsProcessed)
	}
}

func TestFigure1IntermediateMappings(t *testing.T) {
	// §4.1: R_C should contain both sum(C1, C2) and concat(D1, D2).
	gs, gd, ri := figure1(t)
	report, err := NewChecker(Options{}).Check(gs, gd, ri)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := gs.TensorByName("matmul.out")
	var strs []string
	for _, m := range report.FullRelation.Get(c.ID) {
		strs = append(strs, m.String())
	}
	joined := strings.Join(strs, " | ")
	if !strings.Contains(joined, "sum(r0/matmul.out, r1/matmul.out)") {
		t.Fatalf("R_C missing sum(C1, C2): %s", joined)
	}
	if !strings.Contains(joined, "concat(rs.out0, rs.out1, dim=0)") {
		t.Fatalf("R_C missing concat(D1, D2): %s", joined)
	}
}

func TestFigure1FrontierExcludesUnrelated(t *testing.T) {
	// With the frontier enabled, results must match the unoptimized
	// checker (the paper argues the optimization only prunes work).
	gs, gd, ri := figure1(t)
	r1, err := NewChecker(Options{}).Check(gs, gd, ri)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewChecker(Options{DisableFrontier: true}).Check(gs, gd, ri)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := gs.TensorByName("matsub.out")
	if len(r1.OutputRelation.Get(f.ID)) == 0 || len(r2.OutputRelation.Get(f.ID)) == 0 {
		t.Fatal("both variants must find mappings")
	}
}

func TestBuggedFigure1Fails(t *testing.T) {
	// Break the distributed implementation: rank 1 subtracts E0
	// instead of E1 (an offset bug). Refinement must fail AND localize
	// to the matsub operator.
	bs := graph.NewBuilder("Gs", nil)
	A := bs.Input("A", shape.Of(4, 8))
	B := bs.Input("B", shape.Of(8, 6))
	E := bs.Input("E", shape.Of(4, 6))
	C := bs.MatMul("matmul", A, B)
	F := bs.Sub("matsub", C, E)
	bs.Output(F)
	gs := bs.MustBuild()

	bd := graph.NewBuilder("Gd", nil)
	A1 := bd.Input("A1", shape.Of(4, 4))
	A2 := bd.Input("A2", shape.Of(4, 4))
	B1 := bd.Input("B1", shape.Of(4, 6))
	B2 := bd.Input("B2", shape.Of(4, 6))
	E0 := bd.Input("E0", shape.Of(2, 6))
	E1 := bd.Input("E1", shape.Of(2, 6))
	_ = E1
	C1 := bd.MatMul("r0/matmul", A1, B1)
	C2 := bd.MatMul("r1/matmul", A2, B2)
	D := bd.ReduceScatter("rs", 0, C1, C2)
	F1 := bd.Sub("r0/matsub", D[0], E0)
	F2 := bd.Sub("r1/matsub", D[1], E0) // BUG: should be E1
	bd.Output(F1, F2)
	gd := bd.MustBuild()

	ri := relation.New()
	gdT := func(name string) *expr.Term {
		tt, _ := gd.TensorByName(name)
		return relation.GdLeaf(tt)
	}
	aT, _ := gs.TensorByName("A")
	bT, _ := gs.TensorByName("B")
	eT, _ := gs.TensorByName("E")
	ri.Add(aT.ID, expr.ConcatI(1, gdT("A1"), gdT("A2")))
	ri.Add(bT.ID, expr.ConcatI(0, gdT("B1"), gdT("B2")))
	ri.Add(eT.ID, expr.ConcatI(0, gdT("E0"), gdT("E1")))

	_, err := NewChecker(Options{}).Check(gs, gd, ri)
	if err == nil {
		t.Fatal("bugged implementation must fail refinement")
	}
	var re *RefinementError
	if !errors.As(err, &re) {
		t.Fatalf("want RefinementError, got %T: %v", err, err)
	}
	if re.Op.Label != "matsub" {
		t.Fatalf("bug localized to %q, want matsub", re.Op.Label)
	}
	if !strings.Contains(re.Error(), "input relations") {
		t.Fatal("error should render input relations for debugging")
	}
}

func TestReplicatedInputs(t *testing.T) {
	// Column-parallel linear: X replicated on both ranks, W split by
	// columns; G_d outputs the two column shards.
	bs := graph.NewBuilder("Gs", nil)
	X := bs.Input("X", shape.Of(4, 8))
	W := bs.Input("W", shape.Of(8, 6))
	Y := bs.MatMul("linear", X, W)
	bs.Output(Y)
	gs := bs.MustBuild()

	bd := graph.NewBuilder("Gd", nil)
	X0 := bd.Input("r0/X", shape.Of(4, 8))
	X1 := bd.Input("r1/X", shape.Of(4, 8))
	W0 := bd.Input("r0/W", shape.Of(8, 3))
	W1 := bd.Input("r1/W", shape.Of(8, 3))
	Y0 := bd.MatMul("r0/linear", X0, W0)
	Y1 := bd.MatMul("r1/linear", X1, W1)
	bd.Output(Y0, Y1)
	gd := bd.MustBuild()

	ri := relation.New()
	gdT := func(name string) *expr.Term {
		tt, _ := gd.TensorByName(name)
		return relation.GdLeaf(tt)
	}
	xT, _ := gs.TensorByName("X")
	wT, _ := gs.TensorByName("W")
	// X is replicated: two mappings (the paper: "a relation might
	// provide several mappings for the same tensor").
	ri.Add(xT.ID, gdT("r0/X"))
	ri.Add(xT.ID, gdT("r1/X"))
	ri.Add(wT.ID, expr.ConcatI(1, gdT("r0/W"), gdT("r1/W")))

	report, err := NewChecker(Options{}).Check(gs, gd, ri)
	if err != nil {
		t.Fatal(err)
	}
	yT, _ := gs.TensorByName("linear.out")
	maps := report.OutputRelation.Get(yT.ID)
	want := "concat(r0/linear.out, r1/linear.out, dim=1)"
	found := false
	for _, m := range maps {
		if m.String() == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("want %q among %v", want, maps)
	}
}

func TestAllReduceRowParallel(t *testing.T) {
	// Row-parallel linear with all-reduce: X split on cols, W split on
	// rows; all-reduce combines partials; both rank outputs replicate Y.
	bs := graph.NewBuilder("Gs", nil)
	X := bs.Input("X", shape.Of(4, 8))
	W := bs.Input("W", shape.Of(8, 6))
	Y := bs.MatMul("linear", X, W)
	bs.Output(Y)
	gs := bs.MustBuild()

	bd := graph.NewBuilder("Gd", nil)
	X0 := bd.Input("r0/X", shape.Of(4, 4))
	X1 := bd.Input("r1/X", shape.Of(4, 4))
	W0 := bd.Input("r0/W", shape.Of(4, 6))
	W1 := bd.Input("r1/W", shape.Of(4, 6))
	P0 := bd.MatMul("r0/partial", X0, W0)
	P1 := bd.MatMul("r1/partial", X1, W1)
	Y01 := bd.AllReduce("ar", P0, P1)
	bd.Output(Y01...)
	gd := bd.MustBuild()

	ri := relation.New()
	gdT := func(name string) *expr.Term {
		tt, _ := gd.TensorByName(name)
		return relation.GdLeaf(tt)
	}
	xT, _ := gs.TensorByName("X")
	wT, _ := gs.TensorByName("W")
	ri.Add(xT.ID, expr.ConcatI(1, gdT("r0/X"), gdT("r1/X")))
	ri.Add(wT.ID, expr.ConcatI(0, gdT("r0/W"), gdT("r1/W")))

	report, err := NewChecker(Options{}).Check(gs, gd, ri)
	if err != nil {
		t.Fatal(err)
	}
	yT, _ := gs.TensorByName("linear.out")
	maps := report.OutputRelation.Get(yT.ID)
	if len(maps) == 0 {
		t.Fatal("no mapping for Y")
	}
	// The simplest mapping should be a bare all-reduce output.
	if got := maps[0].String(); got != "ar.out0" && got != "ar.out1" {
		t.Fatalf("simplest mapping %q, want a bare ar output", got)
	}
}

func TestMissingAllReduceOutputStillClean(t *testing.T) {
	// Omitting the all-reduce at the *graph output* is still a clean
	// refinement per §3.2 — reductions are allowed in clean
	// expressions, so Y = sum(P0, P1) is a valid mapping. The paper's
	// bug 7 only manifests when a later operator consumes the
	// unsummed partials (TestMissingAllReduceDownstreamFails).
	bs := graph.NewBuilder("Gs", nil)
	X := bs.Input("X", shape.Of(4, 8))
	W := bs.Input("W", shape.Of(8, 6))
	Y := bs.MatMul("linear", X, W)
	bs.Output(Y)
	gs := bs.MustBuild()

	bd := graph.NewBuilder("Gd", nil)
	X0 := bd.Input("r0/X", shape.Of(4, 4))
	X1 := bd.Input("r1/X", shape.Of(4, 4))
	W0 := bd.Input("r0/W", shape.Of(4, 6))
	W1 := bd.Input("r1/W", shape.Of(4, 6))
	P0 := bd.MatMul("r0/partial", X0, W0)
	P1 := bd.MatMul("r1/partial", X1, W1)
	bd.Output(P0, P1)
	gd := bd.MustBuild()

	ri := relation.New()
	gdT := func(name string) *expr.Term {
		tt, _ := gd.TensorByName(name)
		return relation.GdLeaf(tt)
	}
	xT, _ := gs.TensorByName("X")
	wT, _ := gs.TensorByName("W")
	ri.Add(xT.ID, expr.ConcatI(1, gdT("r0/X"), gdT("r1/X")))
	ri.Add(wT.ID, expr.ConcatI(0, gdT("r0/W"), gdT("r1/W")))

	report, err := NewChecker(Options{}).Check(gs, gd, ri)
	if err != nil {
		t.Fatalf("sum of partials is clean, must refine: %v", err)
	}
	yT, _ := gs.TensorByName("linear.out")
	got := report.OutputRelation.Get(yT.ID)
	if len(got) == 0 || got[0].String() != "sum(r0/partial.out, r1/partial.out)" {
		t.Fatalf("want sum mapping, got %v", got)
	}
}

func TestMissingAllReduceDownstreamFails(t *testing.T) {
	// §6.2 bug 7: the missing all-reduce is consumed by a subsequent
	// parallel matmul; Z = (X·W)·B cannot be reconstructed because
	// cross terms like X0·W0·B1 were never computed.
	bs := graph.NewBuilder("Gs", nil)
	X := bs.Input("X", shape.Of(4, 8))
	W := bs.Input("W", shape.Of(8, 6))
	B := bs.Input("B", shape.Of(6, 2))
	Y := bs.MatMul("linear", X, W)
	Z := bs.MatMul("proj", Y, B)
	bs.Output(Z)
	gs := bs.MustBuild()

	bd := graph.NewBuilder("Gd", nil)
	X0 := bd.Input("r0/X", shape.Of(4, 4))
	X1 := bd.Input("r1/X", shape.Of(4, 4))
	W0 := bd.Input("r0/W", shape.Of(4, 6))
	W1 := bd.Input("r1/W", shape.Of(4, 6))
	// B is column-partitioned across ranks (as in the Megatron issue).
	B0 := bd.Input("r0/B", shape.Of(6, 1))
	B1 := bd.Input("r1/B", shape.Of(6, 1))
	P0 := bd.MatMul("r0/partial", X0, W0)
	P1 := bd.MatMul("r1/partial", X1, W1)
	// BUG: no all-reduce before the projection, so each rank projects
	// its raw partial; the cross terms P1·B0 and P0·B1 never exist.
	Z0 := bd.MatMul("r0/proj", P0, B0)
	Z1 := bd.MatMul("r1/proj", P1, B1)
	Zg := bd.AllGather("ag", 1, Z0, Z1)
	bd.Output(Zg...)
	gd := bd.MustBuild()

	ri := relation.New()
	gdT := func(name string) *expr.Term {
		tt, _ := gd.TensorByName(name)
		return relation.GdLeaf(tt)
	}
	xT, _ := gs.TensorByName("X")
	wT, _ := gs.TensorByName("W")
	bT, _ := gs.TensorByName("B")
	ri.Add(xT.ID, expr.ConcatI(1, gdT("r0/X"), gdT("r1/X")))
	ri.Add(wT.ID, expr.ConcatI(0, gdT("r0/W"), gdT("r1/W")))
	ri.Add(bT.ID, expr.ConcatI(1, gdT("r0/B"), gdT("r1/B")))

	_, err := NewChecker(Options{}).Check(gs, gd, ri)
	var re *RefinementError
	if !errors.As(err, &re) {
		t.Fatalf("want RefinementError, got %v", err)
	}
	if re.Op.Label != "proj" {
		t.Fatalf("bug localized to %q, want proj (the consuming matmul, as in the paper)", re.Op.Label)
	}
}

func TestMissingInputMapping(t *testing.T) {
	gs, gd, _ := figure1(t)
	_, err := NewChecker(Options{}).Check(gs, gd, relation.New())
	if err == nil || !strings.Contains(err.Error(), "no mapping") {
		t.Fatalf("want missing-input error, got %v", err)
	}
}

func TestExpectationHolds(t *testing.T) {
	gs, gd, ri := figure1(t)
	fT, _ := gs.TensorByName("matsub.out")
	f1, _ := gd.TensorByName("r0/matsub.out")
	f2, _ := gd.TensorByName("r1/matsub.out")
	e := Expectation{
		Fs: relation.GsLeaf(fT),
		Fd: expr.ConcatI(0, relation.GdLeaf(f1), relation.GdLeaf(f2)),
	}
	if err := NewChecker(Options{}).CheckExpectation(gs, gd, ri, e); err != nil {
		t.Fatalf("expectation should hold: %v", err)
	}
}

func TestExpectationViolated(t *testing.T) {
	gs, gd, ri := figure1(t)
	fT, _ := gs.TensorByName("matsub.out")
	f1, _ := gd.TensorByName("r0/matsub.out")
	f2, _ := gd.TensorByName("r1/matsub.out")
	// Wrong expectation: concat on dim 1 instead of 0.
	e := Expectation{
		Fs: relation.GsLeaf(fT),
		Fd: expr.ConcatI(1, relation.GdLeaf(f1), relation.GdLeaf(f2)),
	}
	err := NewChecker(Options{}).CheckExpectation(gs, gd, ri, e)
	if err == nil {
		t.Fatal("wrong expectation must be rejected")
	}
}

// TestExpectationCancelled: an expectation checked under a context that
// has ended is neither verified nor violated — its error reads as
// Cancelled, as a cancelled CheckContext's does.
func TestExpectationCancelled(t *testing.T) {
	gs, gd, ri := figure1(t)
	fT, _ := gs.TensorByName("matsub.out")
	f1, _ := gd.TensorByName("r0/matsub.out")
	f2, _ := gd.TensorByName("r1/matsub.out")
	e := Expectation{
		Fs: relation.GsLeaf(fT),
		Fd: expr.ConcatI(0, relation.GdLeaf(f1), relation.GdLeaf(f2)),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := NewChecker(Options{}).CheckExpectationContext(ctx, gs, gd, ri, e)
	if o := Classify(ctx, nil, err); o != Cancelled || !errors.Is(err, context.Canceled) {
		t.Fatalf("expectation under a cancelled context: %v, read as %v", err, o)
	}
}

func TestSymbolicShapesRefine(t *testing.T) {
	// Sequence length S is symbolic with S = 2·Sh; the checker must
	// still prove refinement of a seq-split elementwise op.
	ctx := sym.NewContext()
	S, Sh := sym.Var("S"), sym.Var("Sh")
	ctx.AssumePositive("Sh")
	ctx.AssumeEQ(S, Sh.MulConst(2))

	bs := graph.NewBuilder("Gs", ctx.Clone())
	X := bs.Input("X", shape.Shape{S, sym.Const(8)})
	Y := bs.Unary("act", "gelu", X)
	bs.Output(Y)
	gs := bs.MustBuild()

	bd := graph.NewBuilder("Gd", ctx.Clone())
	X0 := bd.Input("r0/X", shape.Shape{Sh, sym.Const(8)})
	X1 := bd.Input("r1/X", shape.Shape{Sh, sym.Const(8)})
	Y0 := bd.Unary("r0/act", "gelu", X0)
	Y1 := bd.Unary("r1/act", "gelu", X1)
	bd.Output(Y0, Y1)
	gd := bd.MustBuild()

	ri := relation.New()
	gdT := func(name string) *expr.Term {
		tt, _ := gd.TensorByName(name)
		return relation.GdLeaf(tt)
	}
	xT, _ := gs.TensorByName("X")
	ri.Add(xT.ID, expr.ConcatI(0, gdT("r0/X"), gdT("r1/X")))

	report, err := NewChecker(Options{}).Check(gs, gd, ri)
	if err != nil {
		t.Fatal(err)
	}
	yT, _ := gs.TensorByName("act.out")
	if len(report.OutputRelation.Get(yT.ID)) == 0 {
		t.Fatal("symbolic refinement failed")
	}
}
