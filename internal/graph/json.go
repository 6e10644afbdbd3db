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
// validates it: an Index reads the text once, and Build makes the graph
// of it.
//
// What a document means is what encoding/json made of it for the
// struct MarshalJSON encodes: unknown members are ignored, a member's
// name matches under case folding, null leaves a string as it was and
// empties a list, a repeated member replaces the earlier one, and
// anything after the graph object is an error.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var x Index
	s := jsonspan.New(data)
	if err := x.Read(s); err != nil {
		return err
	}
	if err := s.End(); err != nil {
		return err
	}
	built, err := x.Build()
	if err != nil {
		return err
	}
	*g = *built
	return nil
}

// Index is the span index of one graph document: every string a build
// reads, in the shape of the document. A string stands where it is in
// the text the index read, unquoted but not copied; one with an escape
// or a byte outside ASCII is unquoted into the index's side buffer. The
// index reads the text until Build, so the text must not change before
// then; nothing a build returns refers to the index or the text.
type Index struct {
	text        []byte
	side        bytes.Buffer
	name        ref
	inputs      []tensorSpans
	nodes       []nodeSpans
	outputs     list
	assumptions []ineqSpans
	// strs holds the elements of every string list back to back.
	strs []ref
}

// ref is one string of an index: n bytes at off in the text, or in the
// side buffer when off has inSide set.
type ref struct{ off, n uint32 }

// inSide marks a ref into the side buffer. It also bounds the text an
// index reads, so that every offset fits a ref.
const inSide uint32 = 1 << 31

// list is one string list: strs[lo:hi].
type list struct{ lo, hi uint32 }

type tensorSpans struct {
	name  ref
	shape list
}

type nodeSpans struct {
	op, str, label        ref
	ints, inputs, outputs list
}

type ineqSpans struct{ lhs, rhs ref }

// Read reads the graph value the scanner rests on into x, replacing
// what x held. Only the index's own errors are Read's: a value the
// graph's build rejects is Build's to report.
func (x *Index) Read(s *jsonspan.Scanner) error {
	// Room for a small graph, so that no list grows from one element.
	*x = Index{text: s.Data(), inputs: make([]tensorSpans, 0, 16), nodes: make([]nodeSpans, 0, 32), strs: make([]ref, 0, 128)}
	if uint64(len(x.text)) >= uint64(inSide) {
		return fmt.Errorf("graph json: a text of %d bytes is past the index's %d", len(x.text), inSide-1)
	}
	return x.graph(s)
}

// bytes returns the string r.
func (x *Index) bytes(r ref) []byte {
	if r.off&inSide != 0 {
		return x.side.Bytes()[r.off&^inSide:][:r.n]
	}
	return x.text[r.off:][:r.n]
}

// literal reads a string value: a null leaves dst as it was.
func (x *Index) literal(s *jsonspan.Scanner, dst *ref) error {
	lo, hi, plain, ok, err := s.Literal()
	switch {
	case !ok:
	case plain:
		*dst = ref{uint32(lo), uint32(hi - lo)}
	default:
		start := x.side.Len()
		jsonspan.Unquote(&x.side, x.text[lo:hi])
		*dst = ref{uint32(start) | inSide, uint32(x.side.Len() - start)}
	}
	return err
}

// list reads a list-of-strings member; a null element is "".
func (x *Index) list(s *jsonspan.Scanner, dst *list) error {
	lo := len(x.strs)
	err := s.Array(func() error {
		x.strs = append(x.strs, ref{})
		return x.literal(s, &x.strs[len(x.strs)-1])
	})
	*dst = list{uint32(lo), uint32(len(x.strs))}
	return err
}

func (x *Index) graph(s *jsonspan.Scanner) error {
	return s.Object(func(key []byte) error {
		switch jsonspan.Field(key, "name", "inputs", "nodes", "outputs", "assumptions") {
		case 0:
			return x.literal(s, &x.name)
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
						return x.literal(s, &a.lhs)
					case 1:
						return x.literal(s, &a.rhs)
					}
					return s.Skip()
				})
			})
		}
		return s.Skip()
	})
}

func (x *Index) tensor(s *jsonspan.Scanner, t *tensorSpans) error {
	return s.Object(func(key []byte) error {
		switch jsonspan.Field(key, "name", "shape") {
		case 0:
			return x.literal(s, &t.name)
		case 1:
			return x.list(s, &t.shape)
		}
		return s.Skip()
	})
}

func (x *Index) node(s *jsonspan.Scanner, n *nodeSpans) error {
	return s.Object(func(key []byte) error {
		switch jsonspan.Field(key, "op", "str", "ints", "inputs", "outputs", "label") {
		case 0:
			return x.literal(s, &n.op)
		case 1:
			return x.literal(s, &n.str)
		case 2:
			return x.list(s, &n.ints)
		case 3:
			return x.list(s, &n.inputs)
		case 4:
			return x.list(s, &n.outputs)
		case 5:
			return x.literal(s, &n.label)
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

func (l list) len() int { return int(l.hi - l.lo) }

// Build assembles the graph x describes, in dependency order
// (assumptions, inputs, nodes, outputs) wherever the text put them. The
// index knows the graph's size, so its tensors, nodes, ID lists and
// scalars are each cut from one allocation, and every name, label and
// str it keeps is copied into one string.
func (x *Index) Build() (*Graph, error) {
	ctx := sym.NewContext()
	for _, a := range x.assumptions {
		lhs, err := sym.Parse(string(x.bytes(a.lhs)))
		if err != nil {
			return nil, fmt.Errorf("graph json: assumption lhs: %v", err)
		}
		rhs, err := sym.Parse(string(x.bytes(a.rhs)))
		if err != nil {
			return nil, fmt.Errorf("graph json: assumption rhs: %v", err)
		}
		ctx.AssumeGE(lhs, rhs)
	}
	tensors, ids, scalars, chars := len(x.inputs), 0, 0, int(x.name.n)
	for _, in := range x.inputs {
		scalars += in.shape.len()
		chars += int(in.name.n)
	}
	for _, jn := range x.nodes {
		tensors += jn.outputs.len()
		ids += jn.inputs.len() + jn.outputs.len()
		scalars += jn.ints.len()
		chars += int(jn.label.n + jn.str.n)
		for _, name := range x.strs[jn.outputs.lo:jn.outputs.hi] {
			chars += int(name.n)
		}
	}
	var text strings.Builder
	text.Grow(chars)
	keep := func(r ref) string {
		start := text.Len()
		text.Write(x.bytes(r))
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
			e, err := scalar(x.bytes(s))
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
			return nil, fmt.Errorf("graph json: input %q: %v", x.bytes(in.name), err)
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
			return nil, fmt.Errorf("graph json: node %q attr: %v", x.bytes(jn.label), err)
		}
		inputs = inputs[:0]
		for _, name := range x.strs[jn.inputs.lo:jn.inputs.hi] {
			id, ok := lookup(x.bytes(name))
			if !ok {
				return nil, fmt.Errorf("graph json: node %q input %q undefined", x.bytes(jn.label), x.bytes(name))
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
		if err := b.AddNode(expr.OpOf(x.bytes(jn.op)), keep(jn.label), outNames, keep(jn.str), ints, inputs); err != nil {
			return nil, err
		}
	}
	for _, name := range x.strs[x.outputs.lo:x.outputs.hi] {
		id, ok := lookup(x.bytes(name))
		if !ok {
			return nil, fmt.Errorf("graph json: output %q undefined", x.bytes(name))
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
