package graph

import (
	"fmt"
	"slices"

	"entangle/internal/expr"
	"entangle/internal/shape"
	"entangle/internal/sym"
)

// Builder constructs graphs fluently with shape inference at every
// step. It is this repository's stand-in for TorchDynamo/torch.fx
// graph capture: model code "runs" against the builder and the DAG is
// recorded. Errors are deferred: the first error poisons the builder
// and is returned by Build, so model code can chain calls without
// per-call error handling.
type Builder struct {
	g    *Graph
	err  error
	auto int // for auto-generated names
	// inShapes is MultiOp's view of its operands' shapes, reused from
	// one node to the next (shape.Infer keeps none of it).
	inShapes []shape.Shape
	// The graph's tensors, nodes and their input and output ID lists are
	// cut from these slabs. A slab that runs short is replaced, never
	// grown in place, so nothing handed out moves.
	tensors []Tensor
	nodes   []Node
	ids     []TensorID
	// unnamed is one more than the last tensor declared without a name
	// (0: none); madeUp marks the tensors whose names the builder made up.
	unnamed TensorID
	madeUp  map[TensorID]bool
}

// NewBuilder returns a builder for a graph with the given name.
func NewBuilder(name string, ctx *sym.Context) *Builder {
	return &Builder{g: New(name, ctx)}
}

// Ctx returns the symbolic context of the graph under construction.
func (b *Builder) Ctx() *sym.Context { return b.g.Ctx }

// Grow reserves room for tensors more tensors and nodes more nodes,
// whose input and output lists hold ids tensor IDs between them, so a
// caller that knows its graph's size up front (a decoder) has each cut
// from one allocation.
func (b *Builder) Grow(tensors, nodes, ids int) {
	reserve(&b.tensors, tensors)
	reserve(&b.nodes, nodes)
	reserve(&b.ids, ids)
	b.g.Tensors = slices.Grow(b.g.Tensors, tensors)
	b.g.Nodes = slices.Grow(b.g.Nodes, nodes)
	if len(b.g.byName) == 0 {
		b.g.byName = make(map[string]TensorID, tensors)
	}
}

// reserve makes room for n more elements in *slab.
func reserve[T any](slab *[]T, n int) {
	if cap(*slab)-len(*slab) < n {
		*slab = make([]T, 0, n)
	}
}

// take cuts n elements from *slab, first replacing a slab too short
// for them with one twice its size (at least 16 elements). The result's
// capacity is its length: an append to it cannot reach its neighbours.
func take[T any](slab *[]T, n int) []T {
	s := *slab
	if cap(s)-len(s) < n {
		s = make([]T, 0, max(n, 2*cap(s), 16))
	}
	*slab = s[:len(s)+n]
	return s[len(s) : len(s)+n : len(s)+n]
}

// idList copies ids into the ID slab. An empty list stays as it was
// given, nil or not, and keeps nothing of the caller's.
func (b *Builder) idList(ids []TensorID) []TensorID {
	if len(ids) == 0 {
		if ids == nil {
			return nil
		}
		return []TensorID{}
	}
	out := take(&b.ids, len(ids))
	copy(out, ids)
	return out
}

// declare notes that tensor id was declared with name.
func (b *Builder) declare(name string, id TensorID) {
	if name == "" {
		if b.madeUp == nil {
			b.madeUp = map[TensorID]bool{}
		}
		b.unnamed, b.madeUp[id] = id+1, true
	}
}

// Declared resolves name as a document declaring the graph's tensors
// means it — a decoder's one name table: the tensor declared with that
// name, or for "" the last one declared without a name. A name the
// builder made up for an unnamed tensor names nothing.
func (b *Builder) Declared(name string) (TensorID, bool) {
	if name == "" {
		return b.unnamed - 1, b.unnamed > 0
	}
	id, ok := b.g.byName[name]
	return id, ok && !b.madeUp[id]
}

// Err returns the first recorded error.
func (b *Builder) Err() error { return b.err }

// Fail records an external error, poisoning the builder; Build will
// return it. Strategy helpers use it to defer their own failures.
func (b *Builder) Fail(err error) {
	if b.err == nil && err != nil {
		b.err = err
	}
}

func (b *Builder) fail(format string, args ...any) TensorID {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
	return 0
}

// Input declares a graph input tensor.
func (b *Builder) Input(name string, sh shape.Shape) TensorID {
	if b.err != nil {
		return 0
	}
	id, err := b.g.addTensorAt(&take(&b.tensors, 1)[0], name, sh, NoProducer, 0)
	if err != nil {
		return b.fail("%v", err)
	}
	b.declare(name, id)
	b.g.Inputs = append(b.g.Inputs, id)
	return id
}

// Output marks a tensor as a graph output.
func (b *Builder) Output(ids ...TensorID) {
	if b.err != nil {
		return
	}
	b.g.Outputs = append(b.g.Outputs, ids...)
}

// Op appends a single-output operator node and returns its output
// tensor. label may be empty; outName may be empty for an
// auto-generated name.
func (b *Builder) Op(op expr.Op, label, outName string, str string, ints []sym.Expr, inputs ...TensorID) TensorID {
	outs := b.MultiOp(op, label, []string{outName}, str, ints, inputs...)
	if b.err != nil {
		return 0
	}
	return outs[0]
}

// MultiOp appends an operator node with len(outNames) outputs.
func (b *Builder) MultiOp(op expr.Op, label string, outNames []string, str string, ints []sym.Expr, inputs ...TensorID) []TensorID {
	n := b.addNode(op, label, outNames, str, ints, inputs)
	if n == nil {
		return nil
	}
	// Return a copy: callers routinely overwrite entries of the
	// returned slice (x[r] = nextOp(...)), which must not reach the
	// node's own output list.
	return b.idList(n.Outputs)
}

// AddNode appends an operator node as MultiOp does, for a caller that
// finds the outputs by name (Declared) and so needs no copy of their
// IDs: a decoder. It returns the builder's first error.
func (b *Builder) AddNode(op expr.Op, label string, outNames []string, str string, ints []sym.Expr, inputs []TensorID) error {
	b.addNode(op, label, outNames, str, ints, inputs)
	return b.err
}

// addNode is MultiOp returning the node itself (nil once the builder
// has failed); the node's input list is a copy of inputs.
func (b *Builder) addNode(op expr.Op, label string, outNames []string, str string, ints []sym.Expr, inputs []TensorID) *Node {
	if b.err != nil {
		return nil
	}
	b.inShapes = b.inShapes[:0]
	for _, in := range inputs {
		if !b.g.hasTensor(in) {
			b.fail("graph %s: op %s input %d missing", b.g.Name, op, in)
			return nil
		}
		b.inShapes = append(b.inShapes, b.g.Tensors[in].Shape)
	}
	outShapes, err := shape.Infer(op, str, ints, b.inShapes, b.g.Ctx)
	if err != nil {
		b.fail("graph %s: %s (%s): %v", b.g.Name, op, label, err)
		return nil
	}
	if len(outShapes) != len(outNames) {
		b.fail("graph %s: %s (%s): %d outputs inferred, %d names given", b.g.Name, op, label, len(outShapes), len(outNames))
		return nil
	}
	nid := NodeID(len(b.g.Nodes))
	if label == "" {
		label = fmt.Sprintf("%s_%d", op, nid)
	}
	n := &take(&b.nodes, 1)[0]
	*n = Node{ID: nid, Op: op, Str: str, Ints: ints, Inputs: b.idList(inputs), Label: label, Outputs: []TensorID{}}
	if len(outNames) > 0 {
		n.Outputs = take(&b.ids, len(outNames))
	}
	for i, declared := range outNames {
		name := declared
		if name == "" {
			name = fmt.Sprintf("%s_out%d", label, b.auto)
			b.auto++
		}
		tid, err := b.g.addTensorAt(&take(&b.tensors, 1)[0], name, outShapes[i], nid, i)
		if err != nil {
			b.fail("%v", err)
			return nil
		}
		b.declare(declared, tid)
		n.Outputs[i] = tid
	}
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

// Convenience wrappers for common operators. Each takes a label used
// in bug-localization output; the output tensor name is derived from it.

func (b *Builder) MatMul(label string, a, c TensorID) TensorID {
	return b.Op(expr.OpMatMul, label, label+".out", "", nil, a, c)
}

func (b *Builder) Add(label string, a, c TensorID) TensorID {
	return b.Op(expr.OpAdd, label, label+".out", "", nil, a, c)
}

func (b *Builder) Sub(label string, a, c TensorID) TensorID {
	return b.Op(expr.OpSub, label, label+".out", "", nil, a, c)
}

func (b *Builder) Mul(label string, a, c TensorID) TensorID {
	return b.Op(expr.OpMul, label, label+".out", "", nil, a, c)
}

func (b *Builder) Div(label string, a, c TensorID) TensorID {
	return b.Op(expr.OpDiv, label, label+".out", "", nil, a, c)
}

func (b *Builder) Scale(label string, a TensorID, num, den int64) TensorID {
	return b.Op(expr.OpScale, label, label+".out", "", []sym.Expr{sym.Const(num), sym.Const(den)}, a)
}

func (b *Builder) Unary(label, fn string, a TensorID) TensorID {
	return b.Op(expr.OpUnary, label, label+".out", fn, nil, a)
}

func (b *Builder) Concat(label string, dim sym.Expr, args ...TensorID) TensorID {
	return b.Op(expr.OpConcat, label, label+".out", "", []sym.Expr{dim}, args...)
}

func (b *Builder) Slice(label string, a TensorID, dim, begin, end sym.Expr) TensorID {
	return b.Op(expr.OpSlice, label, label+".out", "", []sym.Expr{dim, begin, end}, a)
}

func (b *Builder) SliceI(label string, a TensorID, dim, begin, end int64) TensorID {
	return b.Slice(label, a, sym.Const(dim), sym.Const(begin), sym.Const(end))
}

func (b *Builder) Transpose(label string, a TensorID, d0, d1 int64) TensorID {
	return b.Op(expr.OpTranspose, label, label+".out", "", []sym.Expr{sym.Const(d0), sym.Const(d1)}, a)
}

func (b *Builder) Reshape(label string, a TensorID, sh shape.Shape) TensorID {
	return b.Op(expr.OpReshape, label, label+".out", "", sh, a)
}

func (b *Builder) Pad(label string, a TensorID, dim, before, after sym.Expr) TensorID {
	return b.Op(expr.OpPad, label, label+".out", "", []sym.Expr{dim, before, after}, a)
}

func (b *Builder) Softmax(label string, a TensorID, dim int64) TensorID {
	return b.Op(expr.OpSoftmax, label, label+".out", "", []sym.Expr{sym.Const(dim)}, a)
}

func (b *Builder) ReduceSum(label string, a TensorID, dim int64) TensorID {
	return b.Op(expr.OpReduceSum, label, label+".out", "", []sym.Expr{sym.Const(dim)}, a)
}

func (b *Builder) LayerNorm(label string, x, w, bias TensorID) TensorID {
	return b.Op(expr.OpLayerNorm, label, label+".out", "", nil, x, w, bias)
}

func (b *Builder) RMSNorm(label string, x, w TensorID) TensorID {
	return b.Op(expr.OpRMSNorm, label, label+".out", "", nil, x, w)
}

func (b *Builder) Embedding(label string, table, ids TensorID) TensorID {
	return b.Op(expr.OpEmbedding, label, label+".out", "", nil, table, ids)
}

func (b *Builder) EmbeddingShard(label string, table, ids TensorID, offset sym.Expr) TensorID {
	return b.Op(expr.OpEmbeddingShard, label, label+".out", "", []sym.Expr{offset}, table, ids)
}

func (b *Builder) RoPE(label string, x, cos, sin TensorID) TensorID {
	return b.Op(expr.OpRoPE, label, label+".out", "", nil, x, cos, sin)
}

func (b *Builder) Attention(label string, q, k, v TensorID, heads int64) TensorID {
	return b.Op(expr.OpAttention, label, label+".out", "", []sym.Expr{sym.Const(heads)}, q, k, v)
}

func (b *Builder) MSELoss(label string, pred, target TensorID) TensorID {
	return b.Op(expr.OpMSELoss, label, label+".out", "", nil, pred, target)
}

func (b *Builder) SquaredError(label string, pred, target TensorID) TensorID {
	return b.Op(expr.OpSquaredError, label, label+".out", "", nil, pred, target)
}

func (b *Builder) Router(label string, x, w TensorID) TensorID {
	return b.Op(expr.OpRouter, label, label+".out", "", nil, x, w)
}

func (b *Builder) AuxLoss(label string, probs TensorID) TensorID {
	return b.Op(expr.OpAuxLoss, label, label+".out", "", nil, probs)
}

func (b *Builder) Identity(label string, a TensorID) TensorID {
	return b.Op(expr.OpIdentity, label, label+".out", "", nil, a)
}

func (b *Builder) AllReduce(label string, shards ...TensorID) []TensorID {
	names := make([]string, len(shards))
	for i := range names {
		names[i] = fmt.Sprintf("%s.out%d", label, i)
	}
	return b.MultiOp(expr.OpAllReduce, label, names, "", nil, shards...)
}

func (b *Builder) ReduceScatter(label string, dim int64, shards ...TensorID) []TensorID {
	names := make([]string, len(shards))
	for i := range names {
		names[i] = fmt.Sprintf("%s.out%d", label, i)
	}
	return b.MultiOp(expr.OpReduceScatter, label, names, "", []sym.Expr{sym.Const(dim)}, shards...)
}

func (b *Builder) AllGather(label string, dim int64, shards ...TensorID) []TensorID {
	names := make([]string, len(shards))
	for i := range names {
		names[i] = fmt.Sprintf("%s.out%d", label, i)
	}
	return b.MultiOp(expr.OpAllGather, label, names, "", []sym.Expr{sym.Const(dim)}, shards...)
}

// Build returns the constructed graph, or the first error recorded.
// The graph is valid by construction — every node's inputs existed
// before it, so the node list is a topological order, and its output
// shapes are the ones shape.Infer gave — which leaves only the declared
// outputs to check.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if err := b.g.checkOutputs(); err != nil {
		return nil, err
	}
	return b.g, nil
}

// MustBuild is Build that panics on error; for tests and examples.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// Graph exposes the partially built graph (used by strategies that
// need to inspect shapes mid-construction). It is for reading: an edit
// through it voids what Build relies on.
func (b *Builder) Graph() *Graph { return b.g }
