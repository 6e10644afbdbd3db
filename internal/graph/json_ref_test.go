package graph_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"entangle/internal/bench"
	"entangle/internal/expr"
	"entangle/internal/graph"
	"entangle/internal/shape"
	"entangle/internal/sym"
)

// The reference decoder: the interchange format read by encoding/json
// into a struct and built from it, as Graph.UnmarshalJSON did before it
// read spans. It decides what a document means; the tests below hold
// the span decoder to it.
//
// One thing is not encoding/json's own: a list is a fresh, which a
// repeated member replaces. encoding/json decodes a repeated array
// member into the earlier one's elements, so fields and elements of
// the overwritten copy show through the new one (golang/go#21092) —
// an accident nobody's capture depends on, and not reproduced.
type fresh[T any] []T

func (l *fresh[T]) UnmarshalJSON(data []byte) error {
	var v []T
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	*l = v
	return nil
}

type refTensor struct {
	Name  string        `json:"name"`
	Shape fresh[string] `json:"shape"`
}

type refNode struct {
	Op      string        `json:"op"`
	Str     string        `json:"str,omitempty"`
	Ints    fresh[string] `json:"ints,omitempty"`
	Inputs  fresh[string] `json:"inputs"`
	Outputs fresh[string] `json:"outputs"`
	Label   string        `json:"label,omitempty"`
}

type refIneq struct {
	Lhs string `json:"lhs"`
	Rhs string `json:"rhs"`
}

type refGraph struct {
	Name        string           `json:"name"`
	Inputs      fresh[refTensor] `json:"inputs"`
	Nodes       fresh[refNode]   `json:"nodes"`
	Outputs     fresh[string]    `json:"outputs"`
	Assumptions fresh[refIneq]   `json:"assumptions,omitempty"`
}

func refDecode(data []byte) (*graph.Graph, error) {
	var jg refGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return nil, err
	}
	ctx := sym.NewContext()
	for _, a := range jg.Assumptions {
		lhs, err := sym.Parse(a.Lhs)
		if err != nil {
			return nil, fmt.Errorf("graph json: assumption lhs: %v", err)
		}
		rhs, err := sym.Parse(a.Rhs)
		if err != nil {
			return nil, fmt.Errorf("graph json: assumption rhs: %v", err)
		}
		ctx.AssumeGE(lhs, rhs)
	}
	b := graph.NewBuilder(jg.Name, ctx)
	names := map[string]graph.TensorID{}
	for _, in := range jg.Inputs {
		sh := make(shape.Shape, len(in.Shape))
		for i, s := range in.Shape {
			e, err := sym.Parse(s)
			if err != nil {
				return nil, fmt.Errorf("graph json: input %q: %v", in.Name, err)
			}
			sh[i] = e
		}
		names[in.Name] = b.Input(in.Name, sh)
	}
	for _, jn := range jg.Nodes {
		var ints []sym.Expr
		for _, s := range jn.Ints {
			e, err := sym.Parse(s)
			if err != nil {
				return nil, fmt.Errorf("graph json: node %q attr: %v", jn.Label, err)
			}
			ints = append(ints, e)
		}
		inputs := make([]graph.TensorID, len(jn.Inputs))
		for i, name := range jn.Inputs {
			id, ok := names[name]
			if !ok {
				return nil, fmt.Errorf("graph json: node %q input %q undefined", jn.Label, name)
			}
			inputs[i] = id
		}
		outs := b.MultiOp(expr.Op(jn.Op), jn.Label, jn.Outputs, jn.Str, ints, inputs...)
		if b.Err() != nil {
			return nil, b.Err()
		}
		for i, name := range jn.Outputs {
			names[name] = outs[i]
		}
	}
	for _, name := range jg.Outputs {
		id, ok := names[name]
		if !ok {
			return nil, fmt.Errorf("graph json: output %q undefined", name)
		}
		b.Output(id)
	}
	return b.Build()
}

// agree decodes doc both ways and fails on a different verdict or a
// different graph.
func agree(t *testing.T, what string, doc []byte) {
	t.Helper()
	want, refErr := refDecode(doc)
	got := &graph.Graph{}
	err := got.UnmarshalJSON(doc)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: span decoder says %v, reference says %v\n%s", what, err, refErr, clip(doc))
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: the decoders built different graphs\n%s", what, clip(doc))
	}
}

func clip(doc []byte) []byte {
	if len(doc) > 2000 {
		return append(doc[:2000:2000], "…"...)
	}
	return doc
}

// A value is a JSON document with its members in order, so a test can
// rewrite one without losing what encoding/json would forget.
type value struct {
	members []member // an object's
	elems   []*value // an array's
	scalar  string   // anything else, as written
	kind    byte     // '{', '[' or 0
}

type member struct {
	key string
	val *value
}

func parseValue(t *testing.T, doc []byte) *value {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	var read func() *value
	read = func() *value {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		switch d, _ := tok.(json.Delim); d {
		case '{':
			v := &value{kind: '{'}
			for dec.More() {
				key, _ := dec.Token()
				v.members = append(v.members, member{key.(string), read()})
			}
			dec.Token()
			return v
		case '[':
			v := &value{kind: '['}
			for dec.More() {
				v.elems = append(v.elems, read())
			}
			dec.Token()
			return v
		}
		raw, err := json.Marshal(tok)
		if err != nil {
			t.Fatal(err)
		}
		return &value{scalar: string(raw)}
	}
	return read()
}

// render writes v; key and str say how a member name and a string
// scalar are spelled.
func (v *value) render(b *strings.Builder, key, str func(string) string) {
	switch v.kind {
	case '{':
		b.WriteByte('{')
		for i, m := range v.members {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(key(m.key))
			b.WriteString(": ")
			m.val.render(b, key, str)
		}
		b.WriteByte('}')
	case '[':
		b.WriteByte('[')
		for i, e := range v.elems {
			if i > 0 {
				b.WriteByte(',')
			}
			e.render(b, key, str)
		}
		b.WriteByte(']')
	default:
		if strings.HasPrefix(v.scalar, `"`) {
			b.WriteString(str(v.scalar))
		} else {
			b.WriteString(v.scalar)
		}
	}
}

// walk visits every object of v once; f may rewrite the object it is
// handed.
func (v *value) walk(f func(*value)) {
	var objects []*value
	var collect func(*value)
	collect = func(v *value) {
		if v.kind == '{' {
			objects = append(objects, v)
		}
		for _, m := range v.members {
			collect(m.val)
		}
		for _, e := range v.elems {
			collect(e)
		}
	}
	collect(v)
	for _, o := range objects {
		f(o)
	}
}

func quoted(s string) string {
	raw, _ := json.Marshal(s)
	return string(raw)
}

// escaped spells the literal lit with its first character as a \u escape.
func escaped(lit string) string {
	var s string
	if json.Unmarshal([]byte(lit), &s) != nil || s == "" || s[0] >= 0x80 {
		return lit
	}
	return fmt.Sprintf(`"\u%04x%s`, s[0], quoted(s[1:])[1:])
}

// variants are rewrites of a document that must not change what it
// means — or, where differs is set, must change it the same way for
// both decoders.
var variants = []struct {
	name    string
	rewrite func(*value)
	key     func(string) string
	str     func(string) string
	differs bool
}{
	{name: "as written"},
	{name: "members reversed", rewrite: func(root *value) {
		root.walk(func(o *value) {
			for i, j := 0, len(o.members)-1; i < j; i, j = i+1, j-1 {
				o.members[i], o.members[j] = o.members[j], o.members[i]
			}
		})
	}},
	{name: "names in another case", key: func(k string) string {
		// ſ folds to s and K (the Kelvin sign) to k, as encoding/json has it.
		k = strings.NewReplacer("s", "ſ", "k", "K").Replace(strings.ToUpper(k[:1]) + k[1:])
		return quoted(k)
	}},
	{name: "names and strings escaped", key: func(k string) string { return escaped(quoted(k)) }, str: escaped},
	{name: "members repeated", rewrite: func(root *value) {
		// The first copy is a decoy of the right kind, the last one counts;
		// a null after a string changes nothing.
		root.walk(func(o *value) {
			var out []member
			for _, m := range o.members {
				decoy := &value{scalar: `"decoy"`}
				if m.val.kind == '[' {
					decoy = &value{kind: '[', elems: m.val.elems[:len(m.val.elems)/2]}
				}
				out = append(out, member{m.key, decoy}, m)
				if m.val.kind == 0 {
					out = append(out, member{m.key, &value{scalar: "null"}})
				}
			}
			o.members = out
		})
	}},
	{name: "absent members null, unknown members present", rewrite: func(root *value) {
		root.walk(func(o *value) {
			have := map[string]bool{}
			for _, m := range o.members {
				have[m.key] = true
			}
			for _, k := range []string{"str", "ints", "label", "assumptions", "name"} {
				if !have[k] && (have["op"] || k == "assumptions" && have["nodes"]) {
					o.members = append(o.members, member{k, &value{scalar: "null"}})
				}
			}
			o.members = append(o.members, member{"dtype", &value{kind: '[', elems: []*value{{scalar: "1.5e3"}, {kind: '{'}}}})
		})
	}},
	{name: "tensor names outside ASCII", differs: true, rewrite: func(root *value) {
		root.walk(func(o *value) {
			for _, m := range o.members {
				named := m.val.elems
				if m.key == "name" {
					named = []*value{m.val}
				} else if m.key != "inputs" && m.key != "outputs" {
					continue
				}
				for _, v := range named {
					if v.kind == 0 {
						v.scalar = v.scalar[:len(v.scalar)-1] + `é"`
					}
				}
			}
		})
	}},
	{name: "null elements", differs: true, rewrite: func(root *value) {
		// A null in a list is "", a null in place of a tensor or a node is
		// an empty one: mostly an error, and the same error.
		root.walk(func(o *value) {
			for _, m := range o.members {
				if m.val.kind == '[' && len(m.val.elems) > 0 {
					m.val.elems[len(m.val.elems)-1] = &value{scalar: "null"}
				}
			}
		})
	}},
}

func zooDocs(t testing.TB) map[string][]byte {
	t.Helper()
	docs := map[string][]byte{}
	for _, c := range bench.Zoo() {
		b, err := c.Build()
		if err != nil {
			t.Fatal(err)
		}
		for side, g := range map[string]*graph.Graph{"G_s": b.Gs, "G_d": b.Gd} {
			doc, err := g.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			docs[c.Name+" "+side] = doc
		}
	}
	return docs
}

// TestDecodeMatchesReference: for every graph of the zoo, the document
// MarshalJSON writes and each rewrite of it decode to the reference's
// graph — tensors, nodes, inputs, outputs, assumptions — and every
// prefix of it is refused by both.
func TestDecodeMatchesReference(t *testing.T) {
	same := func(s string) string { return s }
	for name, doc := range zooDocs(t) {
		original := &graph.Graph{}
		if err := original.UnmarshalJSON(doc); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, v := range variants {
			root := parseValue(t, doc)
			if v.rewrite != nil {
				v.rewrite(root)
			}
			key, str := v.key, v.str
			if key == nil {
				key = quoted
			}
			if str == nil {
				str = same
			}
			var b strings.Builder
			root.render(&b, key, str)
			rewritten := []byte(b.String())
			agree(t, name+", "+v.name, rewritten)
			if v.differs {
				continue
			}
			got := &graph.Graph{}
			if err := got.UnmarshalJSON(rewritten); err != nil {
				t.Fatalf("%s, %s: %v\n%s", name, v.name, err, clip(rewritten))
			}
			if !reflect.DeepEqual(got, original) {
				t.Fatalf("%s, %s: not the graph the document as written decodes to\n%s", name, v.name, clip(rewritten))
			}
		}
		for i := 0; i < 64; i++ {
			cut := i * len(doc) / 64
			agree(t, fmt.Sprintf("%s cut at %d", name, cut), doc[:cut])
		}
	}
}

// FuzzGraphDecode: on any bytes at all the span decoder and the
// reference give the same verdict and, when they accept, the same graph.
func FuzzGraphDecode(f *testing.F) {
	docs := zooDocs(f)
	for _, name := range []string{"GPT(2) G_s", "GPT(2) G_d", "Regression(2) G_d", "DataParallel(2) G_s"} {
		f.Add(docs[name])
	}
	for _, seed := range []string{
		// TestJSONErrorMessages' cases
		`{"name":"g","inputs":[`,
		`{"name":"g","inputs":[{"name":"a","shape":["@@"]}],"nodes":[],"outputs":[]}`,
		`{"name":"g","inputs":[{"name":"a","shape":["4"]}],"nodes":[{"op":"frobnicate","label":"n","inputs":["a"],"outputs":["o"]}],"outputs":["o"]}`,
		`{"name":"g","inputs":[],"nodes":[{"op":"add","label":"n","inputs":["zz","zz"],"outputs":["o"]}],"outputs":[]}`,
		`{"name":"g","inputs":[],"nodes":[],"outputs":["nope"]}`,
		`{"name":"g","inputs":[{"name":"a","shape":["4","4"]}],"nodes":[{"op":"transpose","label":"t","ints":["??"],"inputs":["a"],"outputs":["o"]}],"outputs":["o"]}`,
		`{"name":"g","inputs":[],"nodes":[],"outputs":[],"assumptions":[{"lhs":"!!","rhs":"0"}]}`,
		// what encoding/json does that a hand-written reader forgets
		`null`, ` {"Name":"g","NAME":null,"inputs":null} `, `{"inputs":[null],"outputs":[null,"t0"]}`,
		`{"inputs":[{"name":"😀","ſhape":["2*S+1"]}],"assumptions":[{"lhs":"S","rhs":"1"}]}`,
		`{"name":1}`, `{"inputs":{}}`, `{"nodes":[[]]}`, `{"x":[1,2.5e-3,true,false,{"y":"\n"}]} x`, `{"inputs":[],}`,
		`{"inputs":[{"name":"a","shape":["4"]}],"inputs":[{"shape":["8"]}],"outputs":[""]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		agree(t, "fuzz input", doc)
	})
}
