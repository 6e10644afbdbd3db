package lemmas

import (
	"entangle/internal/egraph"
	"entangle/internal/expr"
	"entangle/internal/sym"
)

// registerVLLM registers lemmas for fused kernels used by serving
// frameworks (Figure 6's "v"-marked lemmas). The paper adds these when
// verifying Qwen2 under vLLM, whose kernels fuse residual-add with
// RMSNorm and SiLU with the gated multiply.
func registerVLLM(r *Registry) {
	// fused_add_rmsnorm(x, res, w) = rmsnorm(add(x, res), w): relate
	// the fused kernel to its unfused semantics, both directions.
	r.MustRegister(&Lemma{
		Name: "fused-add-rmsnorm-unfuse", Kind: KindVLLM, Complexity: 3, LOC: 14,
		Rules: []*egraph.Rule{
			egraph.Simple("fused-add-rmsnorm-unfuse",
				egraph.POp(expr.OpFusedAddRMSNorm, nil,
					egraph.PVar("x"), egraph.PVar("r"), egraph.PVar("w")),
				egraph.ROp(expr.OpRMSNorm, nil, "",
					egraph.ROp(expr.OpAdd, nil, "", egraph.RVar("x"), egraph.RVar("r")),
					egraph.RVar("w"))),
			egraph.Simple("fused-add-rmsnorm-fuse",
				egraph.POp(expr.OpRMSNorm, nil,
					egraph.POp(expr.OpAdd, nil, egraph.PVar("x"), egraph.PVar("r")),
					egraph.PVar("w")),
				egraph.ROp(expr.OpFusedAddRMSNorm, nil, "",
					egraph.RVar("x"), egraph.RVar("r"), egraph.RVar("w"))),
		},
	})

	// fused_silu_mul(gate, up) = mul(silu(gate), up).
	r.MustRegister(&Lemma{
		Name: "fused-silu-mul-unfuse", Kind: KindVLLM, Complexity: 3, LOC: 8,
		Rules: []*egraph.Rule{
			egraph.Simple("fused-silu-mul-unfuse",
				egraph.POp(expr.OpFusedSiluMul, nil, egraph.PVar("g"), egraph.PVar("u")),
				egraph.ROp(expr.OpMul, nil, "",
					egraph.ROp(expr.OpUnary, nil, "silu", egraph.RVar("g")),
					egraph.RVar("u"))),
		},
	})

	// Direct shard distribution for the fused kernels: derivable from
	// the unfused lemmas but registered directly, as the paper does,
	// to keep saturation short on serving graphs.
	r.MustRegister(&Lemma{
		Name: "fused-add-rmsnorm-concat", Kind: KindVLLM, Complexity: 5, LOC: 36,
		dists: []dist{{op: expr.OpFusedAddRMSNorm, args: []arg{alongD, alongD, whole},
			when: dimNotLast | aligned}},
	})

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
