package lemmas

import "entangle/internal/expr"

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
