// Package hlo implements a text front end for an HLO-flavoured IR —
// the role of the paper's 377-line XLA-to-intermediate-format
// translator used for the Transformers-NeuronX Llama-3 workload (§5).
// The printer emits computation graphs in HLO-module syntax; the
// parser reads them back into graph.Graph, mapping HLO operator names
// (dot, concatenate, slice, broadcast-free subset) onto the shared
// operator vocabulary so, as the paper observes, HLO models "reuse
// many of the popular lemmas".
package hlo

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"entangle/internal/expr"
	"entangle/internal/graph"
	"entangle/internal/shape"
	"entangle/internal/sym"
)

// opToHLO maps internal operators to HLO-ish mnemonics.
var opToHLO = map[expr.Op]string{
	expr.OpMatMul:          "dot",
	expr.OpAdd:             "add",
	expr.OpSub:             "subtract",
	expr.OpMul:             "multiply",
	expr.OpDiv:             "divide",
	expr.OpSum:             "add-many",
	expr.OpScale:           "scale",
	expr.OpUnary:           "map",
	expr.OpIdentity:        "copy",
	expr.OpConcat:          "concatenate",
	expr.OpSlice:           "slice",
	expr.OpPad:             "pad",
	expr.OpTranspose:       "transpose",
	expr.OpReshape:         "reshape",
	expr.OpReduceSum:       "reduce-add",
	expr.OpSoftmax:         "softmax",
	expr.OpLayerNorm:       "layer-norm",
	expr.OpRMSNorm:         "rms-norm",
	expr.OpEmbedding:       "gather-rows",
	expr.OpEmbeddingShard:  "gather-rows-shard",
	expr.OpRoPE:            "rotary",
	expr.OpAttention:       "sdpa",
	expr.OpMSELoss:         "mse",
	expr.OpSquaredError:    "squared-error",
	expr.OpRouter:          "router",
	expr.OpAuxLoss:         "aux-loss",
	expr.OpFusedAddRMSNorm: "fused-add-rms-norm",
	expr.OpFusedSiluMul:    "fused-silu-mul",
	expr.OpAllReduce:       "all-reduce",
	expr.OpReduceScatter:   "reduce-scatter",
	expr.OpAllGather:       "all-gather",
}

var hloToOp = func() map[string]expr.Op {
	m := make(map[string]expr.Op, len(opToHLO))
	for k, v := range opToHLO {
		m[v] = k
	}
	return m
}()

// Print writes g as an HLO-flavoured module:
//
//	HloModule gpt-seq
//	%ids = f32[8] parameter(0)
//	%embed.out = f32[8,16] gather-rows(%emb_w, %ids)
//	%t = f32[4,4] slice(%x), ints={0,0,4}
//	ROOT %tuple = (…) tuple(%logits)
func Print(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "HloModule %s\n", g.Name)
	for _, a := range g.Ctx.Assumptions() {
		fmt.Fprintf(bw, "// assume %s >= 0\n", a)
	}
	for i, in := range g.Inputs {
		t := g.Tensor(in)
		fmt.Fprintf(bw, "%%%s = f32%s parameter(%d)\n", t.Name, shapeText(t.Shape), i)
	}
	order, err := g.TopoSort()
	if err != nil {
		return err
	}
	for _, n := range order {
		mn, ok := opToHLO[n.Op]
		if !ok {
			return fmt.Errorf("hlo: no mnemonic for %q", n.Op)
		}
		args := make([]string, len(n.Inputs))
		for i, in := range n.Inputs {
			args[i] = "%" + g.Tensor(in).Name
		}
		for oi, out := range n.Outputs {
			t := g.Tensor(out)
			fmt.Fprintf(bw, "%%%s = f32%s %s(%s)", t.Name, shapeText(t.Shape), mn, strings.Join(args, ", "))
			var attrs []string
			if len(n.Ints) > 0 {
				var ints []string
				for _, e := range n.Ints {
					ints = append(ints, e.String())
				}
				attrs = append(attrs, "ints={"+strings.Join(ints, ",")+"}")
			}
			if n.Str != "" {
				attrs = append(attrs, fmt.Sprintf("fn=%q", n.Str))
			}
			if len(n.Outputs) > 1 {
				attrs = append(attrs, fmt.Sprintf("out=%d", oi))
			}
			if n.Label != "" && oi == 0 {
				attrs = append(attrs, fmt.Sprintf("label=%q", n.Label))
			}
			if len(attrs) > 0 {
				fmt.Fprintf(bw, ", %s", strings.Join(attrs, ", "))
			}
			fmt.Fprintln(bw)
		}
	}
	roots := make([]string, len(g.Outputs))
	for i, o := range g.Outputs {
		roots[i] = "%" + g.Tensor(o).Name
	}
	fmt.Fprintf(bw, "ROOT %%result = tuple(%s)\n", strings.Join(roots, ", "))
	return bw.Flush()
}

func shapeText(s shape.Shape) string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = d.String()
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// maxLine bounds one line of a module: a longer one is an error, not
// an allocation.
const maxLine = 1 << 20

// parsedLine is one instruction before graph assembly.
type parsedLine struct {
	name, mn, fn, label string
	lo, hi              int32 // operands: parser.args[lo:hi]
	shape, ints         span
	out                 int
	param               int // ≥0 for parameters
}

// span is the scalars parser.exprs[lo:hi].
type span struct{ lo, hi int32 }

// parser is one module being read: its instructions in order, their
// operand names back to back. Everything it keeps of the text is a
// substring of it.
type parser struct {
	name  string
	ctx   *sym.Context
	lines []parsedLine
	args  []string
	roots []string
	// exprs holds every line's shape and attribute scalars back to back;
	// the graph's shapes and attribute lists are cut from it.
	exprs []sym.Expr
}

// scalars returns the scalars of s, nil for none.
func (p *parser) scalars(s span) []sym.Expr {
	if s.lo == s.hi {
		return nil
	}
	return p.exprs[s.lo:s.hi:s.hi]
}

// Parse reads an HLO-flavoured module back into a graph.
func Parse(r io.Reader) (*graph.Graph, error) {
	var text strings.Builder
	if _, err := io.Copy(&text, r); err != nil {
		return nil, err
	}
	return ParseString(text.String())
}

// scalarCount bounds the scalars of a module's shapes and ints lists:
// one per list and one per comma inside one.
func scalarCount(src string) int {
	n, depth := 0, 0
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case '[', '{':
			depth++
			n++
		case ']', '}':
			depth--
		case ',':
			if depth > 0 {
				n++
			}
		}
	}
	return n
}

// ParseString is Parse over a module already in memory.
func ParseString(src string) (*graph.Graph, error) {
	// Every line is at most one instruction, and every operand is a %name
	// that does not start a line.
	p := &parser{ctx: sym.NewContext(), lines: make([]parsedLine, 0, strings.Count(src, "\n")+1),
		args:  make([]string, 0, strings.Count(src, "%")-strings.Count(src, "\n%")),
		exprs: make([]sym.Expr, 0, scalarCount(src))}
	for lineNo := 1; src != ""; lineNo++ {
		var line string
		line, src, _ = strings.Cut(src, "\n")
		if len(line) >= maxLine {
			return nil, fmt.Errorf("hlo:%d: line longer than %d bytes", lineNo, maxLine-1)
		}
		if err := p.line(strings.TrimSpace(line)); err != nil {
			return nil, fmt.Errorf("hlo:%d: %v", lineNo, err)
		}
	}
	return p.assemble()
}

func (p *parser) line(line string) error {
	switch {
	case line == "":
	case line == "HloModule":
		p.name = ""
	case strings.HasPrefix(line, "HloModule "):
		p.name = strings.TrimSpace(line[len("HloModule "):])
	case strings.HasPrefix(line, "// assume "):
		e, err := sym.Parse(strings.TrimSuffix(line[len("// assume "):], " >= 0"))
		if err != nil {
			return err
		}
		p.ctx.AssumeGE(e, sym.Const(0))
	case strings.HasPrefix(line, "//"):
	case strings.HasPrefix(line, "ROOT "):
		open := strings.Index(line, "tuple(")
		if open < 0 || !strings.HasSuffix(line, ")") {
			return fmt.Errorf("malformed ROOT")
		}
		inner := line[open+len("tuple(") : len(line)-1]
		for more := strings.TrimSpace(inner) != ""; more; {
			var root string
			root, inner, more = strings.Cut(inner, ",")
			p.roots = append(p.roots, strings.TrimPrefix(strings.TrimSpace(root), "%"))
		}
	case strings.HasPrefix(line, "%"):
		return p.instruction(line)
	default:
		return fmt.Errorf("unrecognized line %q", line)
	}
	return nil
}

func (p *parser) instruction(line string) error {
	pl := parsedLine{param: -1, out: -1, lo: int32(len(p.args)), hi: int32(len(p.args))}
	eq := strings.Index(line, " = ")
	if eq < 0 {
		return fmt.Errorf("missing '='")
	}
	pl.name = line[1:eq]
	rest := line[eq+3:]
	if !strings.HasPrefix(rest, "f32[") {
		return fmt.Errorf("missing shape")
	}
	close := strings.IndexByte(rest, ']')
	if close < 0 {
		return fmt.Errorf("unterminated shape")
	}
	if dims := rest[len("f32["):close]; dims != "" {
		pl.shape.lo = int32(len(p.exprs))
		for more := true; more; {
			var d string
			d, dims, more = strings.Cut(dims, ",")
			e, err := sym.Parse(d)
			if err != nil {
				return err
			}
			p.exprs = append(p.exprs, e)
		}
		pl.shape.hi = int32(len(p.exprs))
	}
	rest = strings.TrimSpace(rest[close+1:])
	open := strings.IndexByte(rest, '(')
	if open < 0 {
		return fmt.Errorf("missing operand list")
	}
	pl.mn = strings.TrimSpace(rest[:open])
	closeIdx := -1
	for i, depth := open, 0; i < len(rest) && closeIdx < 0; i++ {
		switch rest[i] {
		case '(':
			depth++
		case ')':
			if depth--; depth == 0 {
				closeIdx = i
			}
		}
	}
	if closeIdx < 0 {
		return fmt.Errorf("unterminated operand list")
	}
	operands := strings.TrimSpace(rest[open+1 : closeIdx])
	if pl.mn == "parameter" {
		idx, err := strconv.Atoi(operands)
		if err != nil {
			return fmt.Errorf("bad parameter index %q", operands)
		}
		pl.param = idx
		p.lines = append(p.lines, pl)
		return nil
	}
	for more := operands != ""; more; {
		var a string
		a, operands, more = strings.Cut(operands, ",")
		if a = strings.TrimSpace(a); !strings.HasPrefix(a, "%") {
			return fmt.Errorf("operand %q not a reference", a)
		}
		p.args = append(p.args, a[1:])
	}
	pl.hi = int32(len(p.args))
	attrs := strings.TrimPrefix(strings.TrimSpace(rest[closeIdx+1:]), ",")
	for attrs != "" {
		var kv string
		kv, attrs = cutAttr(attrs)
		switch {
		case strings.HasPrefix(kv, "ints={"):
			inner := strings.TrimSuffix(kv[len("ints={"):], "}")
			if pl.ints.lo == pl.ints.hi { // a repeated ints= extends the first
				pl.ints = span{int32(len(p.exprs)), int32(len(p.exprs))}
			}
			for more := inner != ""; more; {
				var t string
				t, inner, more = strings.Cut(inner, ",")
				e, err := sym.Parse(t)
				if err != nil {
					return err
				}
				p.exprs = append(p.exprs, e)
				pl.ints.hi = int32(len(p.exprs))
			}
		case strings.HasPrefix(kv, "fn="):
			pl.fn = unquote(kv[len("fn="):])
		case strings.HasPrefix(kv, "out="):
			out, err := strconv.Atoi(kv[len("out="):])
			if err != nil {
				return fmt.Errorf("bad output index %q", kv[len("out="):])
			}
			pl.out = out
		case strings.HasPrefix(kv, "label="):
			pl.label = unquote(kv[len("label="):])
		case kv == "":
		default:
			return fmt.Errorf("unknown attribute %q", kv)
		}
	}
	p.lines = append(p.lines, pl)
	return nil
}

// cutAttr splits "ints={1,2}, fn=\"x\"" at its first comma outside
// braces and quotes; inside quotes a backslash escapes, as Print's %q
// writes them.
func cutAttr(s string) (attr, rest string) {
	depth, quoted := 0, false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			quoted = !quoted
		case quoted:
			if c == '\\' {
				i++
			}
		case c == '{':
			depth++
		case c == '}':
			depth--
		case c == ',' && depth == 0:
			return strings.TrimSpace(s[:i]), s[i+1:]
		}
	}
	return strings.TrimSpace(s), ""
}

// unquote reads an fn= or label= value: the string Print quoted, or,
// for text no printer wrote, whatever stands between the quotes.
func unquote(v string) string {
	if len(v) >= 2 && v[0] == '"' {
		if s, err := strconv.Unquote(v); err == nil {
			return s
		}
	}
	return strings.Trim(v, `"`)
}

func (p *parser) assemble() (*graph.Graph, error) {
	b := graph.NewBuilder(p.name, p.ctx)

	// Parameters first, in declared order.
	var params []*parsedLine
	for i := range p.lines {
		if p.lines[i].param >= 0 {
			params = append(params, &p.lines[i])
		}
	}
	// Every line is one tensor and at most one node, whose input list is
	// its operands.
	ops := len(p.lines) - len(params)
	b.Grow(len(p.lines), ops, len(p.args)+ops)
	slices.SortStableFunc(params, func(a, b *parsedLine) int { return cmp.Compare(a.param, b.param) })
	for _, pl := range params {
		b.Input(pl.name, p.scalars(pl.shape))
	}

	// A multi-output instruction appears once per output with out=N:
	// consecutive lines with the same mnemonic and operands, up to the
	// next out=0, are one node.
	var outNames []string
	var inputs []graph.TensorID
	for i := 0; i < len(p.lines); i++ {
		pl := &p.lines[i]
		if pl.param >= 0 {
			continue
		}
		op, ok := hloToOp[pl.mn]
		if !ok {
			return nil, fmt.Errorf("hlo: unknown mnemonic %q", pl.mn)
		}
		args := p.args[pl.lo:pl.hi]
		outNames = append(outNames[:0], pl.name)
		if pl.out >= 0 {
			for ; i+1 < len(p.lines); i++ {
				next := &p.lines[i+1]
				if next.out <= 0 || next.mn != pl.mn || !slices.Equal(p.args[next.lo:next.hi], args) {
					break
				}
				outNames = append(outNames, next.name)
			}
		}
		inputs = inputs[:0]
		for _, a := range args {
			id, ok := b.Declared(a)
			if !ok {
				return nil, fmt.Errorf("hlo: %%%s references undefined %%%s", pl.name, a)
			}
			inputs = append(inputs, id)
		}
		if err := b.AddNode(op, pl.label, outNames, pl.fn, p.scalars(pl.ints), inputs); err != nil {
			return nil, err
		}
	}
	for _, root := range p.roots {
		id, ok := b.Declared(root)
		if !ok {
			return nil, fmt.Errorf("hlo: ROOT references undefined %%%s", root)
		}
		b.Output(id)
	}
	return b.Build()
}
