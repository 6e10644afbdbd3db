package hlo

import (
	"bytes"
	"strings"
	"testing"
	"unicode"

	"entangle/internal/core"
	"entangle/internal/expr"
	"entangle/internal/graph"
	"entangle/internal/models"
	"entangle/internal/relation"
	"entangle/internal/shape"
	"entangle/internal/sym"
)

func roundTrip(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := Print(&buf, g); err != nil {
		t.Fatalf("print: %v", err)
	}
	g2, err := Parse(&buf)
	if err != nil {
		t.Fatalf("parse: %v\nmodule:\n%s", err, buf.String())
	}
	if g2.OperatorCount() != g.OperatorCount() {
		t.Fatalf("round trip node count %d want %d", g2.OperatorCount(), g.OperatorCount())
	}
	if len(g2.Inputs) != len(g.Inputs) || len(g2.Outputs) != len(g.Outputs) {
		t.Fatalf("round trip io mismatch")
	}
	return g2
}

func TestRoundTripSimple(t *testing.T) {
	b := graph.NewBuilder("m", nil)
	x := b.Input("x", shape.Of(4, 8))
	w := b.Input("w", shape.Of(8, 2))
	y := b.MatMul("mm", x, w)
	z := b.Unary("act", "gelu", y)
	b.Output(z)
	g := b.MustBuild()
	g2 := roundTrip(t, g)
	n := g2.Nodes[1]
	if n.Str != "gelu" {
		t.Fatalf("fn attribute lost: %q", n.Str)
	}
	if n.Label != "act" {
		t.Fatalf("label lost: %q", n.Label)
	}
}

func TestRoundTripCollectives(t *testing.T) {
	b := graph.NewBuilder("m", nil)
	x0 := b.Input("x0", shape.Of(4, 8))
	x1 := b.Input("x1", shape.Of(4, 8))
	rs := b.ReduceScatter("rs", 0, x0, x1)
	ag := b.AllGather("ag", 0, rs...)
	b.Output(ag...)
	g := b.MustBuild()
	g2 := roundTrip(t, g)
	if g2.Nodes[0].Op != "reducescatter" || len(g2.Nodes[0].Outputs) != 2 {
		t.Fatalf("multi-output instruction lost: %+v", g2.Nodes[0])
	}
}

func TestRoundTripSymbolic(t *testing.T) {
	ctx := sym.NewContext()
	S := sym.Var("S")
	ctx.AssumeGE(S, sym.Const(2))
	b := graph.NewBuilder("m", ctx)
	x := b.Input("x", shape.Shape{S, sym.Const(8)})
	y := b.Unary("act", "relu", x)
	b.Output(y)
	g := b.MustBuild()
	g2 := roundTrip(t, g)
	if !g2.Ctx.ProveGE(S, sym.Const(2)) {
		t.Fatal("assumptions lost")
	}
}

func TestLlamaThroughHLO(t *testing.T) {
	// The paper's NeuronX path: capture Llama-3 via the HLO format,
	// then verify refinement on the parsed graphs.
	b, err := models.Llama(models.Options{TP: 2})
	if err != nil {
		t.Fatal(err)
	}
	gs2 := roundTrip(t, b.Gs)
	gd2 := roundTrip(t, b.Gd)
	// Tensor IDs are preserved by reconstruction order (inputs first,
	// topological nodes after) only if the original graph was built
	// the same way; rebuild the input relation by name to be safe.
	ri := rebuildRelationByName(t, b, gs2, gd2)
	report, err := core.NewChecker(core.Options{}).Check(gs2, gd2, ri)
	if err != nil {
		t.Fatalf("llama via HLO: %v", err)
	}
	if !report.OutputRelation.Complete(gs2.Outputs) {
		t.Fatal("incomplete output relation")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"HloModule m\n%x = f32[2] bogus-op(%y)\nROOT %r = tuple(%x)\n",
		"HloModule m\n%x f32[2] parameter(0)\n",
		"HloModule m\n%x = f32[2] parameter(0)\nROOT %r = tuple(%nope)\n",
		"HloModule m\n%x = f32[2 parameter(0)\n",
		"garbage\n",
		// An index is a whole decimal number, not a prefix of one.
		"HloModule m\n%x = f32[2] parameter(0zz)\nROOT %r = tuple(%x)\n",
		"HloModule m\n%x = f32[2] parameter(0)\n%y = f32[2] all-reduce(%x), out=1x\nROOT %r = tuple(%y)\n",
		// A line is bounded however the text arrives.
		"HloModule m\n// " + strings.Repeat("x", 1<<20) + "\n%x = f32[2] parameter(0)\nROOT %r = tuple(%x)\n",
	}
	for i, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Errorf("case %d should fail", i)
		} else if !strings.HasPrefix(err.Error(), "hlo") {
			t.Errorf("case %d: error %q does not say where it is from", i, err)
		}
	}
	// And what is not an error: CRLF line ends, a last line without its
	// newline, a comment just under the line bound.
	for i, c := range []string{
		"HloModule m\r\n%x = f32[2] parameter(0)\r\nROOT %r = tuple(%x)\r\n",
		"HloModule m\n%x = f32[2] parameter(0)\nROOT %r = tuple(%x)",
		"HloModule m\n// " + strings.Repeat("x", 1<<20-4) + "\n%x = f32[2] parameter(0)\nROOT %r = tuple(%x)\n",
	} {
		g, err := Parse(strings.NewReader(c))
		if err != nil {
			t.Errorf("accepted case %d: %v", i, err)
		} else if g.Name != "m" || len(g.Inputs) != 1 || len(g.Outputs) != 1 || g.Tensor(g.Outputs[0]).Name != "x" {
			t.Errorf("accepted case %d parsed as %+v", i, g)
		}
	}
}

// FuzzHLOParse: no text makes the parser panic, and a module it accepts
// is one the printer can write and the parser read back as the same
// module — same text, so same names, shapes, attributes and order.
// Tensor names are the exception the format has always had: it writes
// them bare, so one with a space, a comma or a parenthesis in it (a
// name derived from such a label included) is not held to this.
func FuzzHLOParse(f *testing.F) {
	for _, build := range []func() (*models.Built, error){
		func() (*models.Built, error) { return models.Llama(models.Options{TP: 2}) },
		func() (*models.Built, error) { return models.Regression(models.Options{GradAccum: 2}) },
	} {
		b, err := build()
		if err != nil {
			f.Fatal(err)
		}
		for _, g := range []*graph.Graph{b.Gs, b.Gd} {
			var text bytes.Buffer
			if err := Print(&text, g); err != nil {
				f.Fatal(err)
			}
			f.Add(text.String())
		}
	}
	f.Add("HloModule m\n// assume S-2 >= 0\n%x = f32[S,8] parameter(0)\n%y = f32[S,8] map(%x), fn=\"re\\\"lu\", label=\"a,{b\"\nROOT %r = tuple(%y)\n")
	f.Add("%x0 = f32[4,8] parameter(1)\n%x1 = f32[4,8] parameter(0)\n%a = f32[2,8] reduce-scatter(%x0, %x1), ints={0}, out=0\n%b = f32[2,8] reduce-scatter(%x0, %x1), ints={0}, out=1\n")
	f.Add("HloModule m\n%x f32[2] parameter(0)\n")
	// An empty ints list, and one repeated: the second extends the first.
	f.Add("%x = f32[4,8] parameter(0)\n%y = f32[4,8] copy(%x), ints={}\n%z = f32[2,8] slice(%y), ints={0,0}, ints={2}\nROOT %r = tuple(%z)\n")
	f.Fuzz(func(t *testing.T, src string) {
		g, err := ParseString(src)
		if err != nil {
			return
		}
		for _, tensor := range g.Tensors {
			if strings.ContainsAny(tensor.Name, ",()") || strings.ContainsFunc(tensor.Name, unicode.IsSpace) {
				return
			}
		}
		var first, second bytes.Buffer
		if err := Print(&first, g); err != nil {
			t.Fatalf("an accepted module does not print: %v", err)
		}
		g2, err := ParseString(first.String())
		if err != nil {
			t.Fatalf("the printed module does not parse: %v\n%s", err, first.String())
		}
		if err := Print(&second, g2); err != nil {
			t.Fatal(err)
		}
		if first.String() != second.String() {
			t.Fatalf("the module changed on its way through the text:\n%s\nbecame\n%s", first.String(), second.String())
		}
	})
}

// rebuildRelationByName re-keys b.Ri against re-parsed graphs:
// tensor IDs shift in the round trip (the parser declares all
// parameters first), so both the relation keys and the leaf
// references are re-resolved by tensor name.
func rebuildRelationByName(t *testing.T, b *models.Built, gs2, gd2 *graph.Graph) *relation.Relation {
	t.Helper()
	ri2 := relation.New()
	for _, id := range b.Ri.Tensors() {
		oldT := b.Gs.Tensor(id)
		newT, ok := gs2.TensorByName(oldT.Name)
		if !ok {
			t.Fatalf("re-parsed G_s lost tensor %q", oldT.Name)
		}
		for _, m := range b.Ri.Get(id) {
			m2 := m.Map(func(l *expr.Term) *expr.Term {
				if !l.IsLeaf() {
					return l
				}
				gdT, ok := gd2.TensorByName(l.Name)
				if !ok {
					t.Fatalf("re-parsed G_d lost tensor %q", l.Name)
				}
				return relation.GdLeaf(gdT)
			})
			ri2.Add(newT.ID, m2)
		}
	}
	return ri2
}
