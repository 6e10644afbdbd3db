package fuzz

import (
	"fmt"

	"entangle/internal/det"
	"entangle/internal/graph"
	"entangle/internal/models"
	"entangle/internal/shape"
)

// Family selects the source of the sequential graph a case
// parallelizes.
type Family string

const (
	// FamilyChain generates a random transformer-ish chain of blocks
	// (the richest family: every block kind exposes different
	// strategy rules and defect sites).
	FamilyChain Family = "chain"
	// FamilyGPT parallelizes the internal/models GPT sequential graph.
	FamilyGPT Family = "gpt"
	// FamilySeedMoE parallelizes the SeedMoE sequential graph.
	FamilySeedMoE Family = "seedmoe"
	// FamilyRegression parallelizes the regression sequential graph.
	FamilyRegression Family = "regression"
)

// Families is the canonical family order (flag parsing, bench tables).
var Families = []Family{FamilyChain, FamilyGPT, FamilySeedMoE, FamilyRegression}

// ParseFamilies parses a comma-separated -models flag value.
func ParseFamilies(names []string) ([]Family, error) {
	if len(names) == 0 {
		return Families, nil
	}
	var out []Family
	for _, n := range names {
		found := false
		for _, f := range Families {
			if string(f) == n {
				out = append(out, f)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("fuzz: unknown model family %q (have chain, gpt, seedmoe, regression)", n)
		}
	}
	return out, nil
}

// Chain-family block kinds. Each preserves the [S, H] activation shape
// so blocks compose freely; jointly they exercise every strategy rule
// the composer knows.
const (
	blockUnary     = iota // pointwise activation
	blockFFN              // H→F→H linear pair with a mid activation
	blockRMSNorm          // rmsnorm with a shared weight
	blockResidual         // x + silu(x)
	blockLayerNorm        // layernorm with shared weight and bias
	blockSquare           // square H×H linear
	blockRoPE             // rotary embedding against precomputed tables
	blockAttention        // q/k/v/o projections around attention
	blockSoftmax          // softmax over the hidden dim
	blockScale            // rational rescale
	numBlockKinds
)

// Chain-family heads: what the chain feeds at the end.
const (
	headNone   = iota // output the final activation
	headMSE           // mean-squared-error loss against a target input
	headRouter        // MoE router + auxiliary load-balancing loss
	headSqErr         // summed squared error against a target input
	numHeadKinds
)

// Chain-family dimensions: small enough that the numeric oracle is
// instant, divisible by every supported degree.
const (
	chainS     = 8
	chainH     = 16
	chainF     = 32
	chainHeads = 4
	chainExp   = 4 // router experts
)

// Plan is the complete DNA of one fuzz case: rebuilding from a plan is
// deterministic down to the byte, which is what the shrinker mutates
// and the corpus replays.
type Plan struct {
	// Seed feeds the composer's decision stream (input placement,
	// strategy choice per operator, gather variants).
	Seed uint64 `json:"seed"`
	// Family selects the sequential graph source.
	Family Family `json:"family"`
	// Degree is the parallelism degree R.
	Degree int `json:"degree"`
	// Blocks lists chain-family block kinds (empty for model families).
	Blocks []int `json:"blocks,omitempty"`
	// Head is the chain-family head kind.
	Head int `json:"head,omitempty"`
}

func (p Plan) String() string {
	if p.Family == FamilyChain {
		return fmt.Sprintf("%s/R%d/blocks%v/head%d/seed%d", p.Family, p.Degree, p.Blocks, p.Head, p.Seed)
	}
	return fmt.Sprintf("%s/R%d/seed%d", p.Family, p.Degree, p.Seed)
}

// RandomPlan draws a plan from the master stream. maxDegree bounds the
// parallelism degree: R is 2, or 2 or 4 when maxDegree is 4 or more, so
// a bound above 4 acts as 4. Degrees are powers of two so the fixed
// chain dimensions always divide.
func RandomPlan(rng *det.RNG, families []Family, maxDegree int) Plan {
	p := Plan{
		Seed:   rng.Uint64(),
		Family: families[rng.Intn(len(families))],
		Degree: 2,
	}
	if maxDegree >= 4 && rng.Bool() {
		p.Degree = 4
	}
	if p.Family == FamilyChain {
		depth := 1 + rng.Intn(4)
		for i := 0; i < depth; i++ {
			p.Blocks = append(p.Blocks, rng.Intn(numBlockKinds))
		}
		p.Head = rng.Intn(numHeadKinds)
	}
	return p
}

// BuildSequential constructs the plan's sequential graph G_s.
func BuildSequential(p Plan) (*graph.Graph, error) {
	switch p.Family {
	case FamilyChain:
		return buildChain(p)
	case FamilyGPT:
		b, err := models.GPT(models.Options{TP: 2})
		if err != nil {
			return nil, err
		}
		return b.Gs, nil
	case FamilySeedMoE:
		b, err := models.SeedMoE(models.Options{TP: 2})
		if err != nil {
			return nil, err
		}
		return b.Gs, nil
	case FamilyRegression:
		b, err := models.Regression(models.Options{TP: 2})
		if err != nil {
			return nil, err
		}
		return b.Gs, nil
	}
	return nil, fmt.Errorf("fuzz: unknown family %q", p.Family)
}

// buildChain builds the chain-family G_s from the plan. Block
// parameters (which activation, scale ratio) come from a dedicated
// stream so they never perturb the composer's decision stream.
func buildChain(p Plan) (*graph.Graph, error) {
	rng := det.NewRNG(p.Seed ^ 0xc0ffee_d00d)
	b := graph.NewBuilder("fuzz/chain", nil)
	x := b.Input("x", shape.Of(chainS, chainH))
	cur := x
	acts := []string{"gelu", "silu", "relu", "tanh"}
	for i, kind := range p.Blocks {
		pf := func(s string) string { return fmt.Sprintf("L%d/%s", i, s) }
		switch kind {
		case blockUnary:
			cur = b.Unary(pf("act"), acts[rng.Intn(len(acts))], cur)
		case blockFFN:
			w1 := b.Input(pf("w1"), shape.Of(chainH, chainF))
			w2 := b.Input(pf("w2"), shape.Of(chainF, chainH))
			h := b.MatMul(pf("fc1"), cur, w1)
			a := b.Unary(pf("mid"), acts[rng.Intn(len(acts))], h)
			cur = b.MatMul(pf("fc2"), a, w2)
		case blockRMSNorm:
			w := b.Input(pf("rms_w"), shape.Of(chainH))
			cur = b.RMSNorm(pf("rms"), cur, w)
		case blockResidual:
			u := b.Unary(pf("res_act"), "silu", cur)
			cur = b.Add(pf("res"), cur, u)
		case blockLayerNorm:
			w := b.Input(pf("ln_w"), shape.Of(chainH))
			bias := b.Input(pf("ln_b"), shape.Of(chainH))
			cur = b.LayerNorm(pf("ln"), cur, w, bias)
		case blockSquare:
			w := b.Input(pf("sq_w"), shape.Of(chainH, chainH))
			cur = b.MatMul(pf("sq"), cur, w)
		case blockRoPE:
			cos := b.Input(pf("rope_cos"), shape.Of(chainS, chainH))
			sin := b.Input(pf("rope_sin"), shape.Of(chainS, chainH))
			cur = b.RoPE(pf("rope"), cur, cos, sin)
		case blockAttention:
			wq := b.Input(pf("q_w"), shape.Of(chainH, chainH))
			wk := b.Input(pf("k_w"), shape.Of(chainH, chainH))
			wv := b.Input(pf("v_w"), shape.Of(chainH, chainH))
			wo := b.Input(pf("o_w"), shape.Of(chainH, chainH))
			q := b.MatMul(pf("q"), cur, wq)
			k := b.MatMul(pf("k"), cur, wk)
			v := b.MatMul(pf("v"), cur, wv)
			attn := b.Attention(pf("attn"), q, k, v, chainHeads)
			cur = b.MatMul(pf("o"), attn, wo)
		case blockSoftmax:
			cur = b.Softmax(pf("softmax"), cur, 1)
		case blockScale:
			cur = b.Scale(pf("scale"), cur, 3, 2)
		default:
			return nil, fmt.Errorf("fuzz: unknown block kind %d", kind)
		}
	}
	switch p.Head {
	case headNone:
		b.Output(cur)
	case headMSE:
		target := b.Input("target", shape.Of(chainS, chainH))
		b.Output(b.MSELoss("head/mse", cur, target))
	case headRouter:
		w := b.Input("router_w", shape.Of(chainH, chainExp))
		probs := b.Router("head/router", cur, w)
		b.Output(b.AuxLoss("head/auxloss", probs))
	case headSqErr:
		target := b.Input("target", shape.Of(chainS, chainH))
		b.Output(b.SquaredError("head/sqerr", cur, target))
	default:
		return nil, fmt.Errorf("fuzz: unknown head kind %d", p.Head)
	}
	return b.Build()
}
