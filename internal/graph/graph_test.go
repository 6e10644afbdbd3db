package graph

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"entangle/internal/expr"
	"entangle/internal/shape"
	"entangle/internal/sym"
)

// figure1Sequential builds G_s of the paper's Figure 1:
// C = matmul(A, B); F = matsub(C, E)  (we spell matsub as sub).
func figure1Sequential(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder("Gs", nil)
	A := b.Input("A", shape.Of(4, 8))
	B := b.Input("B", shape.Of(8, 6))
	E := b.Input("E", shape.Of(4, 6))
	C := b.MatMul("matmul", A, B)
	F := b.Sub("matsub", C, E)
	b.Output(F)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("figure1Sequential: %v", err)
	}
	return g
}

func TestBuilderBasics(t *testing.T) {
	g := figure1Sequential(t)
	if got := g.OperatorCount(); got != 2 {
		t.Fatalf("operator count %d want 2", got)
	}
	if len(g.Inputs) != 3 || len(g.Outputs) != 1 {
		t.Fatalf("io counts %d/%d", len(g.Inputs), len(g.Outputs))
	}
	f, ok := g.TensorByName("matsub.out")
	if !ok {
		t.Fatal("output tensor not found by name")
	}
	if !g.IsOutput(f.ID) {
		t.Fatal("matsub.out should be an output")
	}
	if !g.IsInput(g.Inputs[0]) {
		t.Fatal("input misclassified")
	}
}

func TestBuilderDeferredError(t *testing.T) {
	b := NewBuilder("bad", nil)
	A := b.Input("A", shape.Of(4, 8))
	B := b.Input("B", shape.Of(9, 6)) // inner dim mismatch
	C := b.MatMul("mm", A, B)
	_ = b.Sub("s", C, C) // chained after failure: must not panic
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "matmul") {
		t.Fatalf("expected matmul shape error, got %v", err)
	}
}

func TestDuplicateTensorName(t *testing.T) {
	b := NewBuilder("dup", nil)
	b.Input("A", shape.Of(1))
	b.Input("A", shape.Of(1))
	if _, err := b.Build(); err == nil {
		t.Fatal("duplicate names must fail")
	}
}

func TestTopoSort(t *testing.T) {
	g := figure1Sequential(t)
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0].Label != "matmul" || order[1].Label != "matsub" {
		t.Fatalf("bad order: %v, %v", order[0].Label, order[1].Label)
	}
}

func TestProducers(t *testing.T) {
	b := NewBuilder("producers", nil)
	A := b.Input("A", shape.Of(2, 3))
	B := b.Input("B", shape.Of(2, 3))
	x := b.Add("x", A, B)              // node 0: graph inputs only
	y := b.Unary("y", "relu", A)       // node 1
	ar := b.AllReduce("ar", x, y)      // node 2: two outputs
	b.Output(b.Add("d", ar[0], ar[1])) // node 3: both outputs of ar
	b.Output(b.Mul("s", x, x))         // node 4: x twice
	g := b.MustBuild()
	// A topological order that is not ID order: y, x, s, ar, d.
	order := []*Node{g.Nodes[1], g.Nodes[0], g.Nodes[4], g.Nodes[2], g.Nodes[3]}
	want := [][]int{
		{},     // y reads graph input A
		{},     // x reads graph inputs A, B
		{1},    // s reads x twice
		{1, 0}, // ar reads x then y
		{3},    // d reads two outputs of ar
	}
	got := g.Producers(order)
	if len(got) != len(want) {
		t.Fatalf("Producers: %d lists, want %d", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Errorf("Producers of %s (position %d) = %v, want %v", order[i].Label, i, got[i], want[i])
		}
	}
}

func TestConsumers(t *testing.T) {
	g := figure1Sequential(t)
	c, _ := g.TensorByName("matmul.out")
	cons := g.Consumers(c.ID)
	if len(cons) != 1 || cons[0].Label != "matsub" {
		t.Fatalf("consumers of C: %v", cons)
	}
}

func TestValidate(t *testing.T) {
	g := figure1Sequential(t)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// corrupt a shape and revalidate
	f, _ := g.TensorByName("matsub.out")
	g.Tensors[f.ID].Shape = shape.Of(9, 9)
	if err := g.Validate(); err == nil {
		t.Fatal("corrupted shape must fail validation")
	}
}

func TestCollectiveBuilderAndExpr(t *testing.T) {
	b := NewBuilder("Gd", nil)
	x0 := b.Input("x0", shape.Of(4, 8))
	x1 := b.Input("x1", shape.Of(4, 8))
	ar := b.AllReduce("ar", x0, x1)
	rs := b.ReduceScatter("rs", 0, x0, x1)
	ag := b.AllGather("ag", 1, x0, x1)
	b.Output(ar...)
	b.Output(rs...)
	b.Output(ag...)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	arNode := g.Node(g.Tensor(ar[0]).Producer)
	e, err := g.OutputExpr(arNode, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "sum(x0, x1)" {
		t.Fatalf("allreduce expr %q", e)
	}

	rsNode := g.Node(g.Tensor(rs[1]).Producer)
	e, err = g.OutputExpr(rsNode, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "sum(x0, x1)[2:4 @0]" {
		t.Fatalf("reducescatter expr %q", e)
	}
	if !e.Clean() {
		t.Fatal("reducescatter expansion must be clean")
	}

	agNode := g.Node(g.Tensor(ag[0]).Producer)
	e, err = g.OutputExpr(agNode, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "concat(x0, x1, dim=1)" {
		t.Fatalf("allgather expr %q", e)
	}
}

func TestOutputExprOrdinary(t *testing.T) {
	g := figure1Sequential(t)
	mm := g.Nodes[0]
	e, err := g.OutputExpr(mm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "matmul(A, B)" {
		t.Fatalf("expr %q", e)
	}
	if _, err := g.OutputExpr(mm, 1); err == nil {
		t.Fatal("out-of-range output index must fail")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := figure1Sequential(t)
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Name != g.Name || g2.OperatorCount() != g.OperatorCount() {
		t.Fatalf("round trip lost structure: %s/%d", g2.Name, g2.OperatorCount())
	}
	if len(g2.Inputs) != 3 || len(g2.Outputs) != 1 {
		t.Fatalf("round trip io %d/%d", len(g2.Inputs), len(g2.Outputs))
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestJSONSymbolicRoundTrip(t *testing.T) {
	ctx := sym.NewContext()
	S := sym.Var("S")
	ctx.AssumeGE(S, sym.Const(2))
	b := NewBuilder("symg", ctx)
	x := b.Input("x", shape.Shape{S, sym.Const(8)})
	y := b.Unary("act", "gelu", x)
	b.Output(y)
	g := b.MustBuild()

	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	in := g2.Tensor(g2.Inputs[0])
	if in.Shape[0].String() != "S" {
		t.Fatalf("symbolic dim lost: %s", in.Shape[0])
	}
	if !g2.Ctx.ProveGE(S, sym.Const(2)) {
		t.Fatal("assumptions lost in round trip")
	}
}

func TestJSONErrors(t *testing.T) {
	bad := []string{
		`{`,
		`{"name":"g","inputs":[{"name":"a","shape":["@@"]}]}`,
		`{"name":"g","inputs":[],"nodes":[{"op":"add","inputs":["zz","zz"],"outputs":["o"]}],"outputs":[]}`,
		`{"name":"g","inputs":[],"nodes":[],"outputs":["nope"]}`,
	}
	for i, s := range bad {
		g := &Graph{}
		if err := g.UnmarshalJSON([]byte(s)); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestCycleDetection(t *testing.T) {
	// Construct a cyclic graph by hand (builders cannot produce one).
	g := New("cyc", nil)
	id0, _ := g.addTensor("a", shape.Of(1), NodeID(0), 0)
	id1, _ := g.addTensor("b", shape.Of(1), NodeID(1), 0)
	g.Nodes = append(g.Nodes,
		&Node{ID: 0, Op: expr.OpIdentity, Inputs: []TensorID{id1}, Outputs: []TensorID{id0}, Label: "n0"},
		&Node{ID: 1, Op: expr.OpIdentity, Inputs: []TensorID{id0}, Outputs: []TensorID{id1}, Label: "n1"},
	)
	if _, err := g.TopoSort(); err == nil {
		t.Fatal("cycle must be detected")
	}
}

func TestClone(t *testing.T) {
	g := figure1Sequential(t)
	c := g.Clone()
	if c.OperatorCount() != g.OperatorCount() || len(c.Tensors) != len(g.Tensors) {
		t.Fatal("clone lost structure")
	}
	// Mutating the clone must not affect the original.
	c.Outputs = nil
	c.Nodes[0].Inputs[0] = 99
	if len(g.Outputs) == 0 || g.Nodes[0].Inputs[0] == 99 {
		t.Fatal("clone aliases original")
	}
	if _, ok := c.TensorByName("matmul.out"); !ok {
		t.Fatal("clone lost name index")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAppend(t *testing.T) {
	g := figure1Sequential(t)
	f, _ := g.TensorByName("matsub.out")
	id, err := g.Append(expr.OpIdentity, "extra", "extra.out", "", nil, f.ID)
	if err != nil {
		t.Fatal(err)
	}
	if g.Tensor(id).Name != "extra.out" {
		t.Fatal("appended tensor wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Appending a shape-invalid node fails.
	a, _ := g.TensorByName("A")
	b, _ := g.TensorByName("B")
	if _, err := g.Append(expr.OpAdd, "bad", "bad.out", "", nil, a.ID, b.ID); err == nil {
		t.Fatal("shape-invalid append must fail")
	}
	// Duplicate output name fails.
	if _, err := g.Append(expr.OpIdentity, "dup", "extra.out", "", nil, f.ID); err == nil {
		t.Fatal("duplicate name append must fail")
	}
}

// TestValidateDanglingReferences: a reference to a tensor or node that
// does not exist is an error from Validate, never a panic.
func TestValidateDanglingReferences(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(g *Graph)
		want string
	}{
		{"graph output", func(g *Graph) { g.Outputs = append(g.Outputs, 99) }, "output 1 is missing tensor 99"},
		{"node input", func(g *Graph) { g.Nodes[1].Inputs[0] = 99 }, `node "matsub" references missing tensor 99`},
		{"node output", func(g *Graph) {
			g.Tensors[g.Nodes[0].Outputs[0]].Producer = NoProducer // so the producer links hold
			g.Nodes[0].Outputs[0] = -1
		}, `node "matmul" output 0 is missing tensor -1`},
		{"producer", func(g *Graph) { g.Tensors[2].Producer = 7 }, "produced by missing node 7"},
	} {
		g := figure1Sequential(t).Clone()
		c.edit(g)
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate says %v, want %q", c.name, err, c.want)
		}
	}
}

// TestBuildChecksOutputs: an output that names no tensor is Build's
// error, as the builder's deferred-error contract has it.
func TestBuildChecksOutputs(t *testing.T) {
	b := NewBuilder("g", nil)
	x := b.Input("x", shape.Of(4))
	b.Output(b.Identity("id", x) + 5)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "output 0 is missing tensor 6") {
		t.Fatalf("Build says %v", err)
	}
}
