package graph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"entangle/internal/expr"
	"entangle/internal/jsonspan"
	"entangle/internal/shape"
	"entangle/internal/sym"
)

// The JSON format is the capture-interchange format: external
// frontends (like the paper's TorchDynamo and XLA capture utilities)
// emit it, and cmd/entangle consumes it. Symbolic scalars are encoded
// in their textual linear form ("2*S+1").

type jsonTensor struct {
	Name  string   `json:"name"`
	Shape []string `json:"shape"`
}

type jsonNode struct {
	Op      string   `json:"op"`
	Str     string   `json:"str,omitempty"`
	Ints    []string `json:"ints,omitempty"`
	Inputs  []string `json:"inputs"`
	Outputs []string `json:"outputs"`
	Label   string   `json:"label,omitempty"`
}

type jsonGraph struct {
	Name        string       `json:"name"`
	Inputs      []jsonTensor `json:"inputs"`
	Nodes       []jsonNode   `json:"nodes"`
	Outputs     []string     `json:"outputs"`
	Assumptions []jsonIneq   `json:"assumptions,omitempty"`
}

type jsonIneq struct {
	// GE means Lhs ≥ Rhs.
	Lhs string `json:"lhs"`
	Rhs string `json:"rhs"`
}

func encodeShape(s shape.Shape) []string {
	out := make([]string, len(s))
	for i, d := range s {
		out[i] = d.String()
	}
	return out
}

// MarshalJSON encodes the graph in the interchange format.
func (g *Graph) MarshalJSON() ([]byte, error) {
	jg := jsonGraph{Name: g.Name}
	for _, in := range g.Inputs {
		t := g.Tensor(in)
		jg.Inputs = append(jg.Inputs, jsonTensor{Name: t.Name, Shape: encodeShape(t.Shape)})
	}
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	for _, n := range order {
		jn := jsonNode{Op: string(n.Op), Str: n.Str, Label: n.Label}
		for _, e := range n.Ints {
			jn.Ints = append(jn.Ints, e.String())
		}
		for _, in := range n.Inputs {
			jn.Inputs = append(jn.Inputs, g.Tensor(in).Name)
		}
		for _, out := range n.Outputs {
			jn.Outputs = append(jn.Outputs, g.Tensor(out).Name)
		}
		jg.Nodes = append(jg.Nodes, jn)
	}
	for _, o := range g.Outputs {
		jg.Outputs = append(jg.Outputs, g.Tensor(o).Name)
	}
	for _, a := range g.Ctx.Assumptions() {
		jg.Assumptions = append(jg.Assumptions, jsonIneq{Lhs: a.String(), Rhs: "0"})
	}
	return json.MarshalIndent(jg, "", "  ")
}

// UnmarshalJSON decodes a graph from the interchange format and
// validates it. The text is read once, by a span scanner that checks
// its syntax and indexes every string the build needs as a sub-slice
// of data; the graph is then built from the index in dependency order
// (assumptions, inputs, nodes, outputs) wherever the text put them.
//
// What a document means is what encoding/json made of it for the
// struct MarshalJSON encodes: unknown members are ignored, a member's
// name matches under case folding, null leaves a string as it was and
// empties a list, a repeated member replaces the earlier one, and
// anything after the graph object is an error.
func (g *Graph) UnmarshalJSON(data []byte) error {
	s := jsonspan.New(data)
	// The index is sized from counts over the text: a string holds two
	// quotes and a member name is a string before a colon, so what is
	// left bounds the strings the lists can hold; a tensor has a shape
	// and a node an op. A text that fools a count costs a regrowth.
	quotes, colons := bytes.Count(data, []byte{'"'}), bytes.Count(data, []byte{':'})
	x := spans{
		inputs: make([]tensorSpans, 0, bytes.Count(data, []byte(`"shape"`))),
		nodes:  make([]nodeSpans, 0, bytes.Count(data, []byte(`"op"`))),
		strs:   make([][]byte, 0, max(quotes/2-colons, 0)),
	}
	if err := x.graph(s); err != nil {
		return err
	}
	if err := s.End(); err != nil {
		return err
	}
	built, err := x.build()
	if err != nil {
		return err
	}
	*g = *built
	return nil
}

// spans is the span index of one graph document: every string a build
// reads, unquoted but not yet copied, in the shape of the document.
type spans struct {
	name        []byte
	inputs      []tensorSpans
	nodes       []nodeSpans
	outputs     list
	assumptions []ineqSpans
	// strs holds the elements of every string list back to back.
	strs [][]byte
}

// list is one string list: strs[lo:hi].
type list struct{ lo, hi int }

type tensorSpans struct {
	name  []byte
	shape list
}

type nodeSpans struct {
	op, str, label        []byte
	ints, inputs, outputs list
}

type ineqSpans struct{ lhs, rhs []byte }

// str reads a string member: a null leaves dst as it was.
func str(s *jsonspan.Scanner, dst *[]byte) error {
	v, ok, err := s.String()
	if ok {
		*dst = v
	}
	return err
}

// list reads a list-of-strings member; a null element is "".
func (x *spans) list(s *jsonspan.Scanner, dst *list) error {
	lo := len(x.strs)
	err := s.Array(func() error {
		v, _, err := s.String()
		x.strs = append(x.strs, v)
		return err
	})
	*dst = list{lo, len(x.strs)}
	return err
}

func (x *spans) graph(s *jsonspan.Scanner) error {
	return s.Object(func(key []byte) error {
		switch jsonspan.Field(key, "name", "inputs", "nodes", "outputs", "assumptions") {
		case 0:
			return str(s, &x.name)
		case 1:
			x.inputs = x.inputs[:0]
			return s.Array(func() error {
				x.inputs = append(x.inputs, tensorSpans{})
				return x.tensor(s, &x.inputs[len(x.inputs)-1])
			})
		case 2:
			x.nodes = x.nodes[:0]
			return s.Array(func() error {
				x.nodes = append(x.nodes, nodeSpans{})
				return x.node(s, &x.nodes[len(x.nodes)-1])
			})
		case 3:
			return x.list(s, &x.outputs)
		case 4:
			x.assumptions = x.assumptions[:0]
			return s.Array(func() error {
				x.assumptions = append(x.assumptions, ineqSpans{})
				a := &x.assumptions[len(x.assumptions)-1]
				return s.Object(func(key []byte) error {
					switch jsonspan.Field(key, "lhs", "rhs") {
					case 0:
						return str(s, &a.lhs)
					case 1:
						return str(s, &a.rhs)
					}
					return s.Skip()
				})
			})
		}
		return s.Skip()
	})
}

func (x *spans) tensor(s *jsonspan.Scanner, t *tensorSpans) error {
	return s.Object(func(key []byte) error {
		switch jsonspan.Field(key, "name", "shape") {
		case 0:
			return str(s, &t.name)
		case 1:
			return x.list(s, &t.shape)
		}
		return s.Skip()
	})
}

func (x *spans) node(s *jsonspan.Scanner, n *nodeSpans) error {
	return s.Object(func(key []byte) error {
		switch jsonspan.Field(key, "op", "str", "ints", "inputs", "outputs", "label") {
		case 0:
			return str(s, &n.op)
		case 1:
			return str(s, &n.str)
		case 2:
			return x.list(s, &n.ints)
		case 3:
			return x.list(s, &n.inputs)
		case 4:
			return x.list(s, &n.outputs)
		case 5:
			return str(s, &n.label)
		}
		return s.Skip()
	})
}

// scalar parses one symbolic scalar; a plain decimal, what almost every
// dimension and attribute is, without the trip through a string.
func scalar(b []byte) (sym.Expr, error) {
	if 0 < len(b) && len(b) <= 18 {
		var v int64
		for _, c := range b {
			if c < '0' || c > '9' {
				return sym.Parse(string(b))
			}
			v = v*10 + int64(c-'0')
		}
		return sym.Const(v), nil
	}
	return sym.Parse(string(b))
}

func (l list) len() int { return l.hi - l.lo }

// build assembles the graph the index describes. The index knows the
// graph's size, so its tensors, nodes, ID lists and scalars are each cut
// from one allocation.
func (x *spans) build() (*Graph, error) {
	ctx := sym.NewContext()
	for _, a := range x.assumptions {
		lhs, err := sym.Parse(string(a.lhs))
		if err != nil {
			return nil, fmt.Errorf("graph json: assumption lhs: %v", err)
		}
		rhs, err := sym.Parse(string(a.rhs))
		if err != nil {
			return nil, fmt.Errorf("graph json: assumption rhs: %v", err)
		}
		ctx.AssumeGE(lhs, rhs)
	}
	tensors, ids, scalars, chars := len(x.inputs), 0, 0, len(x.name)
	for _, in := range x.inputs {
		scalars += in.shape.len()
		chars += len(in.name)
	}
	for _, jn := range x.nodes {
		tensors += jn.outputs.len()
		ids += jn.inputs.len() + jn.outputs.len()
		scalars += jn.ints.len()
		chars += len(jn.label) + len(jn.str)
		for _, name := range x.strs[jn.outputs.lo:jn.outputs.hi] {
			chars += len(name)
		}
	}
	// Every name, label and str the graph keeps is cut from one string.
	var text strings.Builder
	text.Grow(chars)
	keep := func(b []byte) string {
		start := text.Len()
		text.Write(b)
		return text.String()[start:]
	}
	b := NewBuilder(keep(x.name), ctx)
	b.Grow(tensors, len(x.nodes), ids)
	b.g.Inputs = slices.Grow(b.g.Inputs, len(x.inputs))
	b.g.Outputs = slices.Grow(b.g.Outputs, x.outputs.len())
	exprs := make([]sym.Expr, 0, scalars)
	parse := func(l list) ([]sym.Expr, error) {
		if l.len() == 0 {
			return nil, nil
		}
		for _, s := range x.strs[l.lo:l.hi] {
			e, err := scalar(s)
			if err != nil {
				return nil, err
			}
			exprs = append(exprs, e)
		}
		return exprs[len(exprs)-l.len() : len(exprs) : len(exprs)], nil
	}

	// Builder.Declared, without a string per name.
	lookup := func(name []byte) (TensorID, bool) {
		if len(name) == 0 {
			return b.Declared("")
		}
		id, ok := b.g.byName[string(name)]
		return id, ok && !b.madeUp[id]
	}

	for _, in := range x.inputs {
		sh, err := parse(in.shape)
		if err != nil {
			return nil, fmt.Errorf("graph json: input %q: %v", in.name, err)
		}
		if sh == nil {
			sh = shape.Shape{}
		}
		b.Input(keep(in.name), sh)
	}
	var inputs []TensorID
	var outNames []string
	for _, jn := range x.nodes {
		ints, err := parse(jn.ints)
		if err != nil {
			return nil, fmt.Errorf("graph json: node %q attr: %v", jn.label, err)
		}
		inputs = inputs[:0]
		for _, name := range x.strs[jn.inputs.lo:jn.inputs.hi] {
			id, ok := lookup(name)
			if !ok {
				return nil, fmt.Errorf("graph json: node %q input %q undefined", jn.label, name)
			}
			inputs = append(inputs, id)
		}
		if inputs == nil {
			inputs = []TensorID{}
		}
		outNames = outNames[:0]
		for _, name := range x.strs[jn.outputs.lo:jn.outputs.hi] {
			outNames = append(outNames, keep(name))
		}
		if err := b.AddNode(expr.OpOf(jn.op), keep(jn.label), outNames, keep(jn.str), ints, inputs); err != nil {
			return nil, err
		}
	}
	for _, name := range x.strs[x.outputs.lo:x.outputs.hi] {
		id, ok := lookup(name)
		if !ok {
			return nil, fmt.Errorf("graph json: output %q undefined", name)
		}
		b.Output(id)
	}
	return b.Build()
}

// Write encodes the graph to w.
func (g *Graph) Write(w io.Writer) error {
	data, err := g.MarshalJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// Read decodes a graph from r.
func Read(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	g := &Graph{}
	if err := g.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return g, nil
}
