// Package graph defines the computation-graph IR that ENTANGLE checks:
// a DAG whose vertices are operators (computation or communication
// kernels) and whose edges are tensors (§3.2). Both the sequential
// specification G_s and distributed implementation G_d are values of
// this type; they arrive either from the fluent Builder (our stand-in
// for TorchDynamo capture), the JSON codec, or the HLO front end.
package graph

import (
	"fmt"
	"slices"

	"entangle/internal/expr"
	"entangle/internal/shape"
	"entangle/internal/sym"
)

// TensorID identifies a tensor (edge) within one graph.
type TensorID int

// NodeID identifies an operator (vertex) within one graph.
type NodeID int

// NoProducer marks graph-input tensors.
const NoProducer NodeID = -1

// Tensor is an edge of the computation graph.
type Tensor struct {
	ID       TensorID
	Name     string // unique within the graph
	Shape    shape.Shape
	Producer NodeID // NoProducer for graph inputs
	OutIndex int    // which output of Producer
}

// Node is an operator application.
type Node struct {
	ID      NodeID
	Op      expr.Op
	Str     string     // e.g. activation name for OpUnary
	Ints    []sym.Expr // operator attributes
	Inputs  []TensorID
	Outputs []TensorID
	// Label is a human-readable position, e.g. "layer0/attn/qkv_matmul";
	// RefinementError reports it for bug localization (§6.2).
	Label string
}

// Graph is a computation graph with distinguished inputs and outputs.
type Graph struct {
	Name    string
	Nodes   []*Node
	Tensors []*Tensor
	Inputs  []TensorID
	Outputs []TensorID

	// Ctx carries assumptions about the symbolic scalars appearing in
	// shapes and attributes (§5, "Handling Symbolic Scalars").
	Ctx *sym.Context

	byName map[string]TensorID
}

// New returns an empty graph with the given name and symbolic context
// (nil means an empty context).
func New(name string, ctx *sym.Context) *Graph {
	if ctx == nil {
		ctx = sym.NewContext()
	}
	return &Graph{Name: name, Ctx: ctx, byName: map[string]TensorID{}}
}

// Tensor returns the tensor with the given ID.
func (g *Graph) Tensor(id TensorID) *Tensor {
	if int(id) < 0 || int(id) >= len(g.Tensors) {
		panic(fmt.Sprintf("graph %s: tensor id %d out of range", g.Name, id))
	}
	return g.Tensors[id]
}

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(g.Nodes) {
		panic(fmt.Sprintf("graph %s: node id %d out of range", g.Name, id))
	}
	return g.Nodes[id]
}

// TensorByName looks a tensor up by its unique name.
func (g *Graph) TensorByName(name string) (*Tensor, bool) {
	id, ok := g.byName[name]
	if !ok {
		return nil, false
	}
	return g.Tensors[id], true
}

// addTensor appends a tensor, enforcing name uniqueness.
func (g *Graph) addTensor(name string, sh shape.Shape, prod NodeID, outIdx int) (TensorID, error) {
	return g.addTensorAt(new(Tensor), name, sh, prod, outIdx)
}

// addTensorAt is addTensor with the tensor stored in t.
func (g *Graph) addTensorAt(t *Tensor, name string, sh shape.Shape, prod NodeID, outIdx int) (TensorID, error) {
	if name == "" {
		name = fmt.Sprintf("t%d", len(g.Tensors))
	}
	if _, dup := g.byName[name]; dup {
		return 0, fmt.Errorf("graph %s: duplicate tensor name %q", g.Name, name)
	}
	id := TensorID(len(g.Tensors))
	*t = Tensor{ID: id, Name: name, Shape: sh, Producer: prod, OutIndex: outIdx}
	g.Tensors = append(g.Tensors, t)
	g.byName[name] = id
	return id, nil
}

// IsInput reports whether id is a graph input.
func (g *Graph) IsInput(id TensorID) bool { return g.Tensor(id).Producer == NoProducer }

// IsOutput reports whether id is a graph output.
func (g *Graph) IsOutput(id TensorID) bool {
	for _, o := range g.Outputs {
		if o == id {
			return true
		}
	}
	return false
}

// Consumers returns the nodes that read tensor id.
func (g *Graph) Consumers(id TensorID) []*Node {
	var out []*Node
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			if in == id {
				out = append(out, n)
				break
			}
		}
	}
	return out
}

// TopoSort returns the nodes in a topological order; it fails if the
// graph has a cycle or dangling tensor references. The order is the
// breadth-first one: nodes with no produced input first, as declared,
// then each node as its last produced input becomes available.
func (g *Graph) TopoSort() ([]*Node, error) {
	// Consumers per tensor in compressed rows: cons[start[t]:start[t+1]]
	// are the nodes reading tensor t, once per read, in node order.
	start := make([]int, len(g.Tensors)+2)
	indeg := make([]int, len(g.Nodes))
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			if int(in) < 0 || int(in) >= len(g.Tensors) {
				return nil, fmt.Errorf("graph %s: node %s references missing tensor %d", g.Name, n.Label, in)
			}
			if g.Tensors[in].Producer != NoProducer {
				indeg[n.ID]++
			}
			start[in+2]++
		}
	}
	for t := 2; t < len(start); t++ {
		start[t] += start[t-1]
	}
	// start[t+1] is now where t's row begins; filling the rows advances
	// it to where the row ends, which is where start[t+1] belongs.
	cons := make([]NodeID, start[len(start)-1])
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			cons[start[in+1]] = n.ID
			start[in+1]++
		}
	}
	order := make([]*Node, 0, len(g.Nodes))
	for _, n := range g.Nodes {
		if indeg[n.ID] == 0 {
			order = append(order, n)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, out := range order[head].Outputs {
			if int(out) < 0 || int(out) >= len(g.Tensors) {
				continue
			}
			for _, c := range cons[start[out]:start[out+1]] {
				if indeg[c]--; indeg[c] == 0 {
					order = append(order, g.Nodes[c])
				}
			}
		}
	}
	if len(order) != len(g.Nodes) {
		return nil, fmt.Errorf("graph %s: cycle detected (%d of %d nodes ordered)", g.Name, len(order), len(g.Nodes))
	}
	return order, nil
}

// Producers is the DAG of operators over positions in order, a
// topological order of g: for each position, the positions of the
// nodes producing its inputs, each producer once and in input order.
// An input that is a graph input has no producer.
func (g *Graph) Producers(order []*Node) [][]int {
	pos := make([]int, len(g.Nodes))
	reads := 0
	for i, v := range order {
		pos[v.ID] = i
		reads += len(v.Inputs)
	}
	flat := make([]int, 0, reads)
	out := make([][]int, len(order))
	for i, v := range order {
		start := len(flat)
		for _, in := range v.Inputs {
			if p := g.Tensors[in].Producer; p != NoProducer && !slices.Contains(flat[start:], pos[p]) {
				flat = append(flat, pos[p])
			}
		}
		out[i] = flat[start:len(flat):len(flat)]
	}
	return out
}

// Validate checks structural invariants: tensor/node ID consistency,
// references in range, producer links, acyclicity, and re-derivable
// output shapes. A Builder's graph holds them by construction (Build
// checks only its outputs); Validate is for graphs assembled or edited
// outside one — Clone plus Append, autodiff, a model's re-appended
// outputs.
func (g *Graph) Validate() error {
	for i, t := range g.Tensors {
		if int(t.ID) != i {
			return fmt.Errorf("graph %s: tensor %q has inconsistent id", g.Name, t.Name)
		}
		if t.Producer != NoProducer {
			if !g.hasNode(t.Producer) {
				return fmt.Errorf("graph %s: tensor %q produced by missing node %d", g.Name, t.Name, t.Producer)
			}
			n := g.Nodes[t.Producer]
			if t.OutIndex >= len(n.Outputs) || n.Outputs[t.OutIndex] != t.ID {
				return fmt.Errorf("graph %s: tensor %q producer link broken", g.Name, t.Name)
			}
		}
	}
	var inShapes []shape.Shape // reused: shape.Infer keeps none of it
	for i, n := range g.Nodes {
		if int(n.ID) != i {
			return fmt.Errorf("graph %s: node %q has inconsistent id", g.Name, n.Label)
		}
		inShapes = inShapes[:0]
		for _, in := range n.Inputs {
			if !g.hasTensor(in) {
				return fmt.Errorf("graph %s: node %q references missing tensor %d", g.Name, n.Label, in)
			}
			inShapes = append(inShapes, g.Tensors[in].Shape)
		}
		outs, err := shape.Infer(n.Op, n.Str, n.Ints, inShapes, g.Ctx)
		if err != nil {
			return fmt.Errorf("graph %s: node %q: %v", g.Name, n.Label, err)
		}
		if len(outs) != len(n.Outputs) {
			return fmt.Errorf("graph %s: node %q: %d inferred outputs, %d declared", g.Name, n.Label, len(outs), len(n.Outputs))
		}
		for j, out := range n.Outputs {
			if !g.hasTensor(out) {
				return fmt.Errorf("graph %s: node %q output %d is missing tensor %d", g.Name, n.Label, j, out)
			}
			if !g.Tensors[out].Shape.Equal(outs[j], g.Ctx) {
				return fmt.Errorf("graph %s: node %q output %d shape %s, inferred %s",
					g.Name, n.Label, j, g.Tensors[out].Shape, outs[j])
			}
		}
	}
	if err := g.checkOutputs(); err != nil {
		return err
	}
	_, err := g.TopoSort()
	return err
}

// checkOutputs reports a graph output that names no tensor.
func (g *Graph) checkOutputs() error {
	for i, o := range g.Outputs {
		if !g.hasTensor(o) {
			return fmt.Errorf("graph %s: output %d is missing tensor %d", g.Name, i, o)
		}
	}
	return nil
}

func (g *Graph) hasTensor(id TensorID) bool { return 0 <= id && int(id) < len(g.Tensors) }
func (g *Graph) hasNode(id NodeID) bool     { return 0 <= id && int(id) < len(g.Nodes) }

// OutputExpr returns the expression defining output outIdx of node n in
// terms of n's input tensors as leaves. Collective kernels are
// expanded into their clean-operator semantics so relation expressions
// never contain opaque communication ops:
//
//	allreduce:      out_i = sum(in_0 … in_{R-1})
//	reducescatter:  out_i = slice(sum(in…), dim, i·c, (i+1)·c)
//	allgather:      out_i = concat(in…, dim)
func (g *Graph) OutputExpr(n *Node, outIdx int) (*expr.Term, error) {
	leaves := make([]*expr.Term, len(n.Inputs))
	for i, in := range n.Inputs {
		t := g.Tensor(in)
		leaves[i] = expr.Tensor(int(t.ID), t.Name)
	}
	return g.outputExpr(n, outIdx, leaves)
}

// OutputExprs is OutputExpr for every output of n at once, over the
// given input leaves (one per input, in order). Outputs that carry the
// same value — all outputs of an allreduce or of an allgather — share
// one term.
func (g *Graph) OutputExprs(n *Node, leaves []*expr.Term) ([]*expr.Term, error) {
	outs := make([]*expr.Term, len(n.Outputs))
	for i := range outs {
		if i > 0 && (n.Op == expr.OpAllReduce || n.Op == expr.OpAllGather) {
			outs[i] = outs[0]
			continue
		}
		t, err := g.outputExpr(n, i, leaves)
		if err != nil {
			return nil, err
		}
		outs[i] = t
	}
	return outs, nil
}

func (g *Graph) outputExpr(n *Node, outIdx int, leaves []*expr.Term) (*expr.Term, error) {
	switch n.Op {
	case expr.OpAllReduce:
		return expr.Sum(leaves...), nil
	case expr.OpAllGather:
		return expr.Concat(n.Ints[0], leaves...), nil
	case expr.OpReduceScatter:
		sumT := expr.Sum(leaves...)
		d := n.Ints[0]
		dv, ok := d.IsConst()
		if !ok {
			return nil, fmt.Errorf("graph %s: reducescatter with symbolic dim", g.Name)
		}
		inShape := g.Tensor(n.Inputs[0]).Shape
		di := int(dv)
		if di < 0 {
			di += len(inShape)
		}
		chunk, ok := inShape[di].DivConst(int64(len(n.Inputs)))
		if !ok {
			return nil, fmt.Errorf("graph %s: reducescatter extent %s not divisible", g.Name, inShape[di])
		}
		begin := chunk.MulConst(int64(outIdx))
		end := chunk.MulConst(int64(outIdx + 1))
		return expr.Slice(sumT, sym.Const(int64(di)), begin, end), nil
	default:
		if outIdx != 0 {
			return nil, fmt.Errorf("graph %s: %s has a single output", g.Name, n.Op)
		}
		return expr.New(n.Op, n.Ints, n.Str, leaves...), nil
	}
}

// OperatorCount returns the number of operator nodes (the paper reports
// |G_s|+|G_d| alongside Figure 3).
func (g *Graph) OperatorCount() int { return len(g.Nodes) }

// Clone returns a deep copy of the graph (shapes and attribute
// expressions are immutable and shared; the symbolic context is
// copied). The expectation checker (§4.4) appends nodes to clones so
// callers' graphs stay untouched.
func (g *Graph) Clone() *Graph {
	n := New(g.Name, g.Ctx.Clone())
	n.Tensors = make([]*Tensor, len(g.Tensors))
	for i, t := range g.Tensors {
		ct := *t
		n.Tensors[i] = &ct
		n.byName[t.Name] = t.ID
	}
	n.Nodes = make([]*Node, len(g.Nodes))
	for i, nd := range g.Nodes {
		cn := *nd
		cn.Inputs = append([]TensorID(nil), nd.Inputs...)
		cn.Outputs = append([]TensorID(nil), nd.Outputs...)
		n.Nodes[i] = &cn
	}
	n.Inputs = append([]TensorID(nil), g.Inputs...)
	n.Outputs = append([]TensorID(nil), g.Outputs...)
	return n
}

// Append adds a node computing op over existing tensors, inferring the
// output shape; it returns the new output tensor's ID. Used to splice
// user-expectation expressions (§4.4) into a graph.
func (g *Graph) Append(op expr.Op, label, outName, str string, ints []sym.Expr, inputs ...TensorID) (TensorID, error) {
	inShapes := make([]shape.Shape, len(inputs))
	for i, in := range inputs {
		inShapes[i] = g.Tensor(in).Shape
	}
	outs, err := shape.Infer(op, str, ints, inShapes, g.Ctx)
	if err != nil {
		return 0, err
	}
	if len(outs) != 1 {
		return 0, fmt.Errorf("graph %s: Append requires single-output op, %s has %d", g.Name, op, len(outs))
	}
	nid := NodeID(len(g.Nodes))
	tid, err := g.addTensor(outName, outs[0], nid, 0)
	if err != nil {
		return 0, err
	}
	g.Nodes = append(g.Nodes, &Node{ID: nid, Op: op, Str: str, Ints: ints, Inputs: inputs, Outputs: []TensorID{tid}, Label: label})
	return tid, nil
}

// RegisterTensorName records a name→ID mapping for a tensor appended
// outside the Builder (autodiff's backward-graph inputs).
func RegisterTensorName(g *Graph, name string, id TensorID) {
	if g.byName == nil {
		g.byName = map[string]TensorID{}
	}
	g.byName[name] = id
}
