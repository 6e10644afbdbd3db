package main

// Seeded input generator. Every request body is a model-zoo pair from
// internal/models whose tensor extents are drawn per request: extents
// move every cone fingerprint (G_d's digest is part of every key) but
// leave the saturation work of a (family, TP, layers) combination
// unchanged, so the generator yields unlimited distinct-key,
// constant-work inputs. The zoo combinations are emitted in shuffled
// blocks that each contain every combination exactly once, so two
// seeds send the same mix of work in a different order with different
// keys, and a prefix of any length holds nearly the same mix.
//
// Known answers come from construction, never from the checker: zoo
// pairs refine, an add/sum operand swap refines, and the Table-3
// defects are disproved at the operator EXPERIMENTS.md documents.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"entangle/internal/bench"
	"entangle/internal/expr"
	"entangle/internal/graph"
	"entangle/internal/hlo"
	"entangle/internal/models"
	"entangle/internal/server"
)

// family is one model-zoo builder with the parallelism degrees its
// default sizing divides by.
type family struct {
	name  string
	build func(models.Options) (*models.Built, error)
	base  models.Config
	sp    bool // sequence parallelism on top of TP
	hlo   bool // bodies travel as "format":"hlo" (the NeuronX capture path)
	tps   []int
}

var families = []family{
	{"gpt", models.GPT, models.GPTConfig(), true, false, []int{2, 4, 8}},
	{"llama", models.Llama, models.LlamaConfig(), false, true, []int{2, 4, 8}},
	{"qwen2", models.Qwen2, models.LlamaConfig(), false, false, []int{2, 4, 8}},
	{"seedmoe", models.SeedMoE, models.SeedMoEConfig(), false, false, []int{2}},
}

// combo is one (family, TP, layers) point of the zoo; its saturation
// work does not depend on the extents drawn for it.
type combo struct {
	fam    *family
	tp     int
	layers int
}

func (c combo) String() string { return fmt.Sprintf("%s-tp%d-L%d", c.fam.name, c.tp, c.layers) }

// zooCombos lists every combination the generator can emit.
func zooCombos() []combo {
	var out []combo
	for i := range families {
		for _, tp := range families[i].tps {
			for layers := 1; layers <= 3; layers++ {
				out = append(out, combo{&families[i], tp, layers})
			}
		}
	}
	return out
}

// maxMult bounds each extent multiplier; 6^4 extent choices per
// combination is far more than any run draws.
const maxMult = 6

// body is one generated request with its known answer.
type body struct {
	Name string
	Path string // /v1/check or /v1/recheck
	Data []byte
	// Ops is |G_s|; Outputs names the G_s outputs a refined verdict
	// must carry an output relation for.
	Ops     int
	Outputs []string
	// Cone is the edit's downstream cone (itself included) on a
	// /v1/recheck body: exactly these operators must be re-checked.
	Cone int
}

// generator draws bodies from one seeded stream.
type generator struct {
	rng  *rand.Rand
	seen map[string]bool
}

func newGenerator(seed int64) *generator {
	return &generator{rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
}

// draw builds combo c at extents no earlier draw of this generator
// used. The base extents (every multiplier 1) are reserved for the
// known-answer gate.
func (g *generator) draw(c combo) (*models.Built, string, error) {
	for {
		cfg := c.fam.base
		m := [4]int{1 + g.rng.Intn(maxMult), 1 + g.rng.Intn(maxMult), 1 + g.rng.Intn(maxMult), 1 + g.rng.Intn(maxMult)}
		cfg.Seq *= m[0]
		cfg.Hidden *= m[1]
		cfg.FFN *= m[2]
		cfg.Vocab *= m[3]
		cfg.Layers = c.layers
		base := c.fam.base
		base.Layers = c.layers
		name := fmt.Sprintf("%s-s%dh%df%dv%d", c, cfg.Seq, cfg.Hidden, cfg.FFN, cfg.Vocab)
		if cfg == base || g.seen[name] {
			continue
		}
		g.seen[name] = true
		b, err := c.build(cfg)
		return b, name, err
	}
}

func (c combo) build(cfg models.Config) (*models.Built, error) {
	b, err := c.fam.build(models.Options{TP: c.tp, SP: c.fam.sp, Cfg: cfg})
	if err != nil {
		return nil, fmt.Errorf("building %s: %w", c, err)
	}
	return b, nil
}

// blocks returns n combinations as consecutive shuffled copies of the
// whole zoo.
func (g *generator) blocks(n int) []combo {
	zoo := zooCombos()
	out := make([]combo, 0, n+len(zoo))
	for len(out) < n {
		g.rng.Shuffle(len(zoo), func(i, j int) { zoo[i], zoo[j] = zoo[j], zoo[i] })
		out = append(out, zoo...)
	}
	return out[:n]
}

// checkBodies draws n distinct /v1/check bodies.
func (g *generator) checkBodies(n int) ([]*body, error) {
	out := make([]*body, 0, n)
	for _, c := range g.blocks(n) {
		b, name, err := g.draw(c)
		if err != nil {
			return nil, err
		}
		cb, err := checkBody(name, b, c.fam.hlo)
		if err != nil {
			return nil, err
		}
		out = append(out, cb)
	}
	return out, nil
}

// renderRel prints a relation term in the grammar exprparse reads
// (function-style slice, dim= on concat), the translation
// cmd/entangle-graphgen performs for the CLI's sidecar files.
func renderRel(t *expr.Term) string {
	if t.IsLeaf() {
		return t.Name
	}
	args := make([]string, len(t.Args))
	for i, a := range t.Args {
		args[i] = renderRel(a)
	}
	switch t.Op {
	case expr.OpConcat:
		return "concat(" + strings.Join(args, ", ") + ", dim=" + t.Ints[0].String() + ")"
	case expr.OpSum:
		return "sum(" + strings.Join(args, ", ") + ")"
	case expr.OpSlice:
		return fmt.Sprintf("slice(%s, %s, %s, %s)", args[0], t.Ints[0], t.Ints[1], t.Ints[2])
	}
	return t.String()
}

func relationOf(b *models.Built) map[string][]string {
	rel := map[string][]string{}
	for _, id := range b.Ri.Tensors() {
		name := b.Gs.Tensor(id).Name
		for _, m := range b.Ri.Get(id) {
			rel[name] = append(rel[name], renderRel(m))
		}
	}
	return rel
}

// encodeGraph serializes g in the daemon's wire form: graph JSON, or
// HLO text inside a JSON string.
func encodeGraph(g *graph.Graph, asHLO bool) (json.RawMessage, error) {
	if !asHLO {
		return g.MarshalJSON()
	}
	var text bytes.Buffer
	if err := hlo.Print(&text, g); err != nil {
		return nil, err
	}
	return json.Marshal(text.String())
}

func formatOf(asHLO bool) string {
	if asHLO {
		return "hlo"
	}
	return ""
}

func outputNames(g *graph.Graph) []string {
	names := make([]string, len(g.Outputs))
	for i, o := range g.Outputs {
		names[i] = g.Tensor(o).Name
	}
	return names
}

func checkBody(name string, b *models.Built, asHLO bool) (*body, error) {
	gs, err := encodeGraph(b.Gs, asHLO)
	if err != nil {
		return nil, err
	}
	gd, err := encodeGraph(b.Gd, asHLO)
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(server.CheckRequest{Format: formatOf(asHLO), Gs: gs, Gd: gd, Rel: relationOf(b)})
	if err != nil {
		return nil, err
	}
	return &body{Name: name, Path: "/v1/check", Data: data, Ops: b.Gs.OperatorCount(), Outputs: outputNames(b.Gs)}, nil
}

// swapSites lists the operators whose first two operands an edit may
// swap: add and sum only. The swap is elementwise-commutative, so the
// candidate still refines, while cone fingerprints hash operand order,
// so the operator and its downstream cone become dirty. (A mul swap is
// not provable on Llama-3/SeedMoE today: a lemma gap, not an input.)
func swapSites(gs *graph.Graph) []graph.NodeID {
	var sites []graph.NodeID
	for _, v := range gs.Nodes {
		if (v.Op == expr.OpAdd || v.Op == expr.OpSum) && len(v.Inputs) >= 2 && v.Inputs[0] != v.Inputs[1] {
			sites = append(sites, v.ID)
		}
	}
	return sites
}

// downstreamCone counts root and every operator that transitively
// consumes one of its outputs: the set a correct diff re-checks.
func downstreamCone(g *graph.Graph, root graph.NodeID) (int, error) {
	order, err := g.TopoSort()
	if err != nil {
		return 0, err
	}
	cone := map[graph.NodeID]bool{root: true}
	for _, v := range order {
		for _, in := range v.Inputs {
			if p := g.Tensor(in).Producer; p != graph.NoProducer && cone[p] {
				cone[v.ID] = true
				break
			}
		}
	}
	return len(cone), nil
}

// swapOperands returns a copy of gs with the first two operands of
// site exchanged.
func swapOperands(gs *graph.Graph, site graph.NodeID) *graph.Graph {
	cand := gs.Clone()
	n := cand.Node(site)
	n.Inputs[0], n.Inputs[1] = n.Inputs[1], n.Inputs[0]
	return cand
}

// recheckBody builds a /v1/recheck body: base b plus one candidate
// with the operands of site swapped.
func recheckBody(name string, b *models.Built, asHLO bool, site graph.NodeID) (*body, error) {
	cand := swapOperands(b.Gs, site)
	cone, err := downstreamCone(cand, site)
	if err != nil {
		return nil, err
	}
	base, err := encodeGraph(b.Gs, asHLO)
	if err != nil {
		return nil, err
	}
	edited, err := encodeGraph(cand, asHLO)
	if err != nil {
		return nil, err
	}
	gd, err := encodeGraph(b.Gd, asHLO)
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(server.RecheckRequest{Format: formatOf(asHLO), Base: base,
		Candidates: []json.RawMessage{edited}, Gd: gd, Rel: relationOf(b)})
	if err != nil {
		return nil, err
	}
	return &body{Name: fmt.Sprintf("%s@%s", name, cand.Node(site).Label), Path: "/v1/recheck", Data: data,
		Ops: b.Gs.OperatorCount(), Outputs: outputNames(b.Gs), Cone: cone}, nil
}

// defect is one Table-3 bug reachable over /v1/check with the operator
// its 422 must name. Bugs 5, 8 and 9 need CheckExpectation, which the
// daemon does not expose.
type defect struct {
	ID    int
	Body  *body
	Label string
}

// defectLabels is Table 3's "detected at" column (EXPERIMENTS.md) for
// the builds internal/bench/bugs.go uses.
var defectLabels = map[int]string{
	1: "L0/rope",
	2: "L0/auxloss",
	3: "L0/q",
	4: "L0/moe/expert0/fc1",
	6: "mse",
	7: "final_ln",
}

func defects() ([]defect, error) {
	var out []defect
	for _, c := range bench.BugCases() {
		if c.Expectation {
			continue
		}
		b, err := c.Build()
		if err != nil {
			return nil, fmt.Errorf("building bug %d: %w", c.ID, err)
		}
		cb, err := checkBody(fmt.Sprintf("bug%d", c.ID), b, false)
		if err != nil {
			return nil, err
		}
		out = append(out, defect{ID: c.ID, Body: cb, Label: defectLabels[c.ID]})
	}
	return out, nil
}

// gateBodies builds every zoo combination at its base extents, which
// no workload stream uses.
func gateBodies() ([]*body, error) {
	var out []*body
	for _, c := range zooCombos() {
		cfg := c.fam.base
		cfg.Layers = c.layers
		b, err := c.build(cfg)
		if err != nil {
			return nil, err
		}
		cb, err := checkBody(c.String()+"-base", b, c.fam.hlo)
		if err != nil {
			return nil, err
		}
		out = append(out, cb)
	}
	return out, nil
}
