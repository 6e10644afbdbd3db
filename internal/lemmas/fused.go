package lemmas

import (
	"entangle/internal/egraph"
	"entangle/internal/expr"
	"entangle/internal/sym"
)

// registerVLLM registers lemmas for fused kernels used by serving
// frameworks (Figure 6's "v"-marked lemmas). The paper adds these when
// verifying Qwen2 under vLLM, whose kernels fuse residual-add with
// RMSNorm and SiLU with the gated multiply. Only the second needs a
// lemma here: tensor parallelism hands the fused add-RMSNorm replicated
// operands, which map by congruence alone.
func registerVLLM(r *Registry) {
	// Shard distribution for fused_silu_mul(gate, up) =
	// mul(silu(gate), up), registered directly, as the paper does,
	// rather than derived through the unfused spelling.
	r.MustRegister(&Lemma{
		Name: "fused-silu-mul-concat", Kind: KindVLLM, Complexity: 4, LOC: 30,
		dists: []dist{{op: expr.OpFusedSiluMul, args: []arg{alongD, alongD}, when: aligned}},
	})
}

// registerHLO registers lemmas for HLO-flavoured operator spellings
// (Figure 6's "h"-marked lemmas). The HLO front end maps most HLO ops
// onto the shared vocabulary — which is why, as the paper observes,
// HLO models "reuse many of the popular lemmas" — but one HLO idiom
// needs its own rule.
func registerHLO(r *Registry) {
	// HLO's dot with a transposed rhs: matmul(x, transpose(w, 0, 1)) =
	// transpose(matmul(w, transpose(x, 0, 1)), 0, 1) for rank-2
	// operands (AᐧBᵀ = (BᐧAᵀ)ᵀ).
	r.MustRegister(&Lemma{
		Name: "hlo-dot-transpose", Kind: KindHLO, Complexity: 5, LOC: 30,
		Rules: []*egraph.Rule{{
			Name: "hlo-dot-transpose",
			LHS: egraph.POp(expr.OpMatMul, nil,
				egraph.PVar("x"),
				egraph.POp(expr.OpTranspose, []egraph.AttrPat{egraph.AInt(0), egraph.AInt(1)}, egraph.PVar("w"))),
			Apply: func(g *egraph.EGraph, m egraph.Match) []egraph.UnionPair {
				xc, wc := m.Subst.ClassOf("x"), m.Subst.ClassOf("w")
				if rk, ok := g.RankOf(xc); !ok || rk != 2 {
					return nil
				}
				if rk, ok := g.RankOf(wc); !ok || rk != 2 {
					return nil
				}
				z, o := sym.Const(0), sym.Const(1)
				xt := addAll(g, expr.OpTranspose, exprs(g, z, o), "", classes(g, xc))
				mm := addAll(g, expr.OpMatMul, nil, "", classes(g, wc, xt))
				c := addAll(g, expr.OpTranspose, exprs(g, z, o), "", classes(g, mm))
				return m.With(c)
			},
		}},
	})
}
