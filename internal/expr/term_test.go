package expr

import (
	"strings"
	"testing"

	"entangle/internal/sym"
)

func leaf(id int, name string) *Term { return Tensor(id, name) }

func TestCleanClassification(t *testing.T) {
	a, b := leaf(1, "A"), leaf(2, "B")
	cases := []struct {
		term *Term
		want bool
	}{
		{ConcatI(0, a, b), true},
		{SliceI(a, 0, 0, 4), true},
		{Sum(a, b), true},
		{Add(a, b), true},
		{Transpose(a, sym.Const(0), sym.Const(1)), true},
		{Reshape(a, []sym.Expr{sym.Const(4), sym.Const(2)}), true},
		{Pad(a, sym.Const(0), sym.Const(0), sym.Const(2)), true},
		{New(OpIdentity, nil, "", a), true},
		{MatMul(a, b), false},
		{Div(a, b), false},
		{Scale(a, 1, 2), false},
		{Mul(a, b), false},
		{Unary("gelu", a), false},
		{ConcatI(0, a, MatMul(a, b)), false}, // unclean subterm
		{Sum(SliceI(a, 0, 0, 2), SliceI(b, 0, 0, 2)), true},
	}
	for i, c := range cases {
		if got := c.term.Clean(); got != c.want {
			t.Errorf("case %d (%s): Clean()=%v want %v", i, c.term, got, c.want)
		}
	}
}

func TestArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("matmul with 1 arg must panic")
		}
	}()
	New(OpMatMul, nil, "", leaf(1, "A"))
}

func TestVariadicNeedsArg(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("sum with 0 args must panic")
		}
	}()
	New(OpSum, nil, "")
}

func TestSingletonCollapse(t *testing.T) {
	a := leaf(1, "A")
	if Sum(a) != a {
		t.Fatal("Sum of one term should collapse")
	}
	if Concat(sym.Const(0), a) != a {
		t.Fatal("Concat of one term should collapse")
	}
}

func TestLeaves(t *testing.T) {
	a, b, c := leaf(1, "A"), leaf(2, "B"), leaf(3, "C")
	e := Sum(MatMul(a, b), MatMul(a, c))
	var got []int
	e.EachLeaf(func(tid int) { got = append(got, tid) })
	want := []int{1, 2, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("leaves %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("leaves %v want %v", got, want)
		}
	}
}

func TestSize(t *testing.T) {
	a, b := leaf(1, "A"), leaf(2, "B")
	if a.Size() != 0 {
		t.Fatal("leaf size 0")
	}
	if MatMul(a, b).Size() != 1 {
		t.Fatal("matmul size 1")
	}
	if Sum(MatMul(a, b), MatMul(b, a)).Size() != 3 {
		t.Fatal("sum of matmuls size 3")
	}
}

func TestStringForms(t *testing.T) {
	a, b := leaf(1, "A"), leaf(2, "B")
	cases := map[string]*Term{
		"sum(A, B)":                       Sum(a, b),
		"concat(A, B, dim=0)":             ConcatI(0, a, b),
		"A[0:4 @1]":                       SliceI(a, 1, 0, 4),
		"gelu(A)":                         Unary("gelu", a),
		"scale(A, 1/2)":                   Scale(a, 1, 2),
		"transpose(A, 0, 1)":              Transpose(a, sym.Const(0), sym.Const(1)),
		"softmax(A, dim=1)":               Softmax(a, sym.Const(1)),
		"reducesum(A, dim=0)":             ReduceSum(a, sym.Const(0)),
		"pad(A, dim=0,pad=(0,3))":         Pad(a, sym.Const(0), sym.Const(0), sym.Const(3)),
		"reshape(A, shape=[2,3])":         Reshape(a, []sym.Expr{sym.Const(2), sym.Const(3)}),
		"rope(A, B, B)":                   RoPE(a, b, b),
		"embedding_shard(A, B, offset=0)": New(OpEmbeddingShard, []sym.Expr{sym.Const(0)}, "", a, b),
	}
	for want, term := range cases {
		if got := term.String(); got != want {
			t.Errorf("String() = %q want %q", got, want)
		}
	}
}

func TestMapRebuild(t *testing.T) {
	a, b := leaf(1, "A"), leaf(2, "B")
	e := Sum(MatMul(a, b), a)
	// rename leaf 1 to X via Map
	r := e.Map(func(n *Term) *Term {
		if n.IsLeaf() && n.TID == 1 {
			return Tensor(1, "X")
		}
		return n
	})
	if !strings.Contains(r.String(), "X") || strings.Contains(e.String(), "X") {
		t.Fatalf("map rebuild wrong: %s / %s", r, e)
	}
}

func TestCollectiveClassification(t *testing.T) {
	if !Collective(OpAllReduce) || !Collective(OpReduceScatter) || !Collective(OpAllGather) {
		t.Fatal("collectives misclassified")
	}
	if Collective(OpMatMul) {
		t.Fatal("matmul is not a collective")
	}
}

// The vocabulary's arities and clean set, as the tables they were before
// Arity and CleanOp became switches: OpOf, Arity and CleanOp must agree
// with them operator for operator.
func TestVocabularyTable(t *testing.T) {
	arity := map[Op]int{
		OpTensor: 0, OpConcat: -1, OpSlice: 1, OpTranspose: 1, OpReshape: 1,
		OpPad: 1, OpIdentity: 1, OpSum: -1, OpAdd: 2, OpSub: 2, OpMul: 2,
		OpDiv: 2, OpScale: 1, OpUnary: 1, OpMatMul: 2, OpReduceSum: 1,
		OpSoftmax: 1, OpLayerNorm: 3, OpRMSNorm: 2, OpEmbedding: 2,
		OpEmbeddingShard: 2, OpRoPE: 3, OpAttention: 3, OpMSELoss: 2,
		OpSquaredError: 2, OpRouter: 2, OpAuxLoss: 1,
		OpFusedAddRMSNorm: 3, OpFusedSiluMul: 2,
		OpAllReduce: -1, OpReduceScatter: -1, OpAllGather: -1,
	}
	clean := map[Op]bool{OpTensor: true, OpConcat: true, OpSlice: true, OpTranspose: true,
		OpReshape: true, OpPad: true, OpIdentity: true, OpSum: true, OpAdd: true}
	if len(knownOps) != len(arity) || len(vocabulary) != len(arity) {
		t.Fatalf("vocabulary has %d operators (%d spellings), want %d", len(knownOps), len(vocabulary), len(arity))
	}
	for op, want := range arity {
		if got, ok := Arity(op); !ok || got != want {
			t.Errorf("Arity(%s) = %d, %t; want %d, true", op, got, ok, want)
		}
		if got := OpOf([]byte(op)); got != op {
			t.Errorf("OpOf(%q) = %q", op, got)
		}
		if CleanOp(op) != clean[op] {
			t.Errorf("CleanOp(%s) = %t, want %t", op, CleanOp(op), clean[op])
		}
	}
	if _, ok := Arity("conv2d"); ok || CleanOp("conv2d") {
		t.Error("an unknown operator has an arity or is clean")
	}
}

func TestElementwiseAndCommutative(t *testing.T) {
	if !Elementwise(OpAdd) || !Elementwise(OpUnary) || Elementwise(OpMatMul) || Elementwise(OpConcat) {
		t.Fatal("elementwise classification wrong")
	}
	if !Commutative(OpAdd) || !Commutative(OpMul) || Commutative(OpSub) || Commutative(OpDiv) {
		t.Fatal("commutative classification wrong")
	}
}
