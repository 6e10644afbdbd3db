package lemmas

import (
	"fmt"

	"entangle/internal/egraph"
	"entangle/internal/expr"
	"entangle/internal/sym"
)

// registerCompute registers lemmas about ATen compute operators: how
// matmul, elementwise ops, softmax, normalization layers, embeddings,
// attention, and losses distribute over sharded operands. These are
// the lemmas that let ENTANGLE push the clean shard structure of a
// distributed implementation through each sequential operator.
func registerCompute(r *Registry) {
	registerMatMul(r)
	registerElementwise(r)
	registerScale(r)
	registerSoftmaxNorms(r)
	registerReduceSum(r)
	registerEmbedding(r)
	registerRoPE(r)
	registerRoPEHidden(r)
	registerAttention(r)
	registerMoE(r)
	registerLosses(r)
}

func registerMatMul(r *Registry) {
	// Column-parallel: matmul(x, concat(w_i, last)) =
	// concat(matmul(x, w_i), last). Megatron's ColumnParallelLinear.
	r.MustRegister(&Lemma{
		Name: "matmul-col-parallel", Kind: KindGeneral, Complexity: 4, LOC: 30,
		dists: []dist{{op: expr.OpMatMul, args: []arg{whole, alongD},
			when: dimLast, prep: matmulOutDim}},
	})

	// Row-parallel (the block matmul lemma of §4.1's running example):
	// matmul(concat(x_i, last), concat(w_i, 0)) = sum(matmul(x_i, w_i))
	// when the per-block inner extents agree.
	r.MustRegister(&Lemma{
		Name: "matmul-row-parallel", Kind: KindGeneral, Complexity: 5, LOC: 40,
		dists: []dist{{op: expr.OpMatMul,
			args: []arg{chunked(egraph.AVar("dx")), along0.ofRank(2)},
			when: dimLast | aligned, out: sum}},
	})

	// Batch/row split of the left operand: matmul(concat(x_i, d), w) =
	// concat(matmul(x_i, w), d) for d below the contraction dim.
	// Sequence parallelism's workhorse.
	r.MustRegister(&Lemma{
		Name: "matmul-row-split-lhs", Kind: KindGeneral, Complexity: 4, LOC: 28,
		dists: []dist{{op: expr.OpMatMul, args: []arg{alongD, whole.ofRank(2)},
			when: dimBeforeLast}},
	})

	// Bilinearity over a sum in the left operand.
	r.MustRegister(&Lemma{
		Name: "matmul-sum-lhs", Kind: KindGeneral, Complexity: 3, LOC: 14,
		dists: []dist{{op: expr.OpMatMul, args: []arg{summed, whole}, out: sum}},
	})
}

func registerElementwise(r *Registry) {
	// f(concat(xs, d), concat(ys, d)) = concat(f(x_i, y_i), d) for the
	// binary elementwise operators, when the chunks align pairwise. add
	// has no rule: add-is-sum makes it a sum, which sum-of-concats
	// distributes.
	for _, op := range []expr.Op{expr.OpSub, expr.OpMul} {
		r.MustRegister(&Lemma{
			Name: fmt.Sprintf("%s-concat-distribute", op), Kind: KindGeneral, Complexity: 4, LOC: 30,
			dists: []dist{{op: op, args: []arg{alongD, alongD}, when: aligned}},
		})
	}

	// Broadcast form: mul(y, concat(xs, d)) = concat(mul(y, x_i), d)
	// when y has extent 1 along d (so every chunk sees the same
	// broadcast operand) — e.g. a [1,H] norm weight against sequence
	// shards, or a scalar loss seed against anything. Registered per
	// operand side.
	r.MustRegister(&Lemma{
		Name: "mul-broadcast-concat", Kind: KindGeneral, Complexity: 4, LOC: 34,
		dists: []dist{
			{variant: "/lhs", op: expr.OpMul, args: []arg{alongD, broadcast}},
			{variant: "/rhs", op: expr.OpMul, args: []arg{broadcast, alongD}},
		},
	})

	// Unary elementwise functions distribute over concat on any dim.
	r.MustRegister(&Lemma{
		Name: "unary-concat-distribute", Kind: KindGeneral, Complexity: 3, LOC: 16,
		dists: []dist{{op: expr.OpUnary, args: []arg{alongD}}},
	})
}

func registerScale(r *Registry) {
	r.MustRegister(&Lemma{
		Name: "scale-concat-distribute", Kind: KindGeneral, Complexity: 3, LOC: 16,
		dists: []dist{{op: expr.OpScale, attrs: vars("n", "dn"), args: []arg{alongD}}},
	})

	// Pull a common scaling factor out of a sum:
	// sum(scale(x_i, n, d)) = scale(sum(x_i), n, d). This direction is
	// contractive; the push-in direction would mint ever-finer
	// fractions through classes that contain sums of themselves.
	r.MustRegister(&Lemma{
		Name: "sum-of-equal-scales", Kind: KindGeneral, Complexity: 3, LOC: 30,
		Rules: []*egraph.Rule{{
			Name: "sum-of-equal-scales",
			LHS:  egraph.POpN(expr.OpSum, nil, "xs"),
			Apply: func(g *egraph.EGraph, m egraph.Match) []egraph.UnionPair {
				kids := m.Subst.KidsOf("xs")
				var n, dn sym.Expr
				inner := g.ScratchClasses(len(kids))
				for i, k := range kids {
					found := false
					for it := g.NodesOf(k); it.Valid(); it.Next() {
						nd := it.Node()
						if nd.Op != expr.OpScale {
							continue
						}
						if i == 0 {
							n, dn = nd.Ints[0], nd.Ints[1]
						} else if !nd.Ints[0].Equal(n) || !nd.Ints[1].Equal(dn) {
							continue
						}
						inner[i] = nd.Kids[0]
						found = true
						break
					}
					if !found {
						return nil
					}
				}
				sumC := addAll(g, expr.OpSum, nil, "", inner)
				c := addAll(g, expr.OpScale, exprs(g, n, dn), "", classes(g, sumC))
				return m.With(c)
			},
		}},
	})
}

func registerSoftmaxNorms(r *Registry) {
	// softmax over dim ds distributes over concat on a different dim.
	r.MustRegister(&Lemma{
		Name: "softmax-concat-commutative", Kind: KindGeneral, Complexity: 4, LOC: 26,
		dists: []dist{{op: expr.OpSoftmax, attrs: vars("ds"), args: []arg{alongD}, when: attrNotDim}},
	})

	// layernorm normalizes the last dim: it distributes over concat on
	// any earlier dim, sharing weight and bias.
	r.MustRegister(&Lemma{
		Name: "layernorm-concat-commutative", Kind: KindGeneral, Complexity: 4, LOC: 30,
		dists: []dist{{op: expr.OpLayerNorm, args: []arg{alongD, whole, whole}, when: dimNotLast}},
	})

	// The paper's worked example (§6.5): RMSNorm(concat(X1,X2,0), W) =
	// concat(RMSNorm(X1,W), RMSNorm(X2,W), 0) — complexity 5.
	r.MustRegister(&Lemma{
		Name: "rmsnorm-concat-commutative", Kind: KindGeneral, Complexity: 5, LOC: 28,
		dists: []dist{{op: expr.OpRMSNorm, args: []arg{alongD, whole}, when: dimNotLast}},
	})
}

func registerReduceSum(r *Registry) {
	// reducesum over the concat dim sums the per-chunk reductions.
	r.MustRegister(&Lemma{
		Name: "reducesum-concat-same-dim", Kind: KindGeneral, Complexity: 4, LOC: 22,
		dists: []dist{{op: expr.OpReduceSum, attrs: vars("dr"), args: []arg{alongD},
			when: attrIsDim, out: sum}},
	})
}

func registerEmbedding(r *Registry) {
	// Vocabulary parallelism: a lookup in a row-partitioned table is
	// the sum of masked per-shard lookups (out-of-shard ids yield 0).
	r.MustRegister(&Lemma{
		Name: "embedding-vocab-parallel", Kind: KindGeneral, Complexity: 4, LOC: 30,
		dists: []dist{{op: expr.OpEmbedding, args: []arg{along0.ofRank(2), whole},
			when: aligned, part: vocabShard, out: sum}},
	})

	// Hidden-dim parallelism: a column-partitioned table concatenates
	// per-shard lookups along the output's last dim.
	r.MustRegister(&Lemma{
		Name: "embedding-hidden-parallel", Kind: KindGeneral, Complexity: 4, LOC: 26,
		dists: []dist{{op: expr.OpEmbedding, args: []arg{along1, whole}, prep: afterIDs}},
	})

	// Sequence split of the ids: lookups are per-token independent.
	r.MustRegister(&Lemma{
		Name: "embedding-seq-split", Kind: KindGeneral, Complexity: 4, LOC: 18,
		dists: []dist{{op: expr.OpEmbedding, args: []arg{whole, alongD}}},
	})
}

func registerRoPE(r *Registry) {
	// Sequence parallelism for rotary embeddings: each sequence shard
	// must use the matching slice of the precomputed cos/sin tables —
	// the lemma whose violation is §6.2's bug 1.
	r.MustRegister(&Lemma{
		Name: "rope-seq-split", Kind: KindGeneral, Complexity: 6, LOC: 38,
		dists: []dist{{op: expr.OpRoPE, args: []arg{along0, whole, whole},
			when: aligned, part: ropeSpan}},
	})
}

func registerRoPEHidden(r *Registry) {
	// Tensor parallelism for rotary embeddings: under the
	// adjacent-pair convention, splitting the hidden dim on even
	// boundaries (chunks must respect rotation pairs) commutes with
	// rotation when cos/sin are split the same way.
	r.MustRegister(&Lemma{
		Name: "rope-hidden-split", Kind: KindGeneral, Complexity: 6, LOC: 34,
		dists: []dist{{op: expr.OpRoPE, args: []arg{along1, along1, along1}, when: evenChunks}},
	})
}

func registerAttention(r *Registry) {
	// Head parallelism: attention over hidden-concatenated head groups
	// equals the concatenation of per-group attention with
	// proportionally fewer heads. The FlashAttention-style fused
	// kernel assumption (§3.3) makes this a single lemma.
	r.MustRegister(&Lemma{
		Name: "attention-head-parallel", Kind: KindGeneral, Complexity: 8, LOC: 44,
		dists: []dist{{op: expr.OpAttention, attrs: vars("h"),
			args: []arg{alongD, alongD, alongD},
			when: dimLast | equalChunks, prep: headsPerGroup}},
	})

	// Attention is per-row independent in q: a sequence split of q
	// (with full k, v) concatenates. Used by sequence parallelism.
	r.MustRegister(&Lemma{
		Name: "attention-query-seq-split", Kind: KindGeneral, Complexity: 5, LOC: 26,
		dists: []dist{{op: expr.OpAttention, attrs: vars("h"),
			args: []arg{along0, whole, whole}}},
	})
}

func registerMoE(r *Registry) {
	// Router probabilities are per-token: sequence splits commute.
	r.MustRegister(&Lemma{
		Name: "router-seq-split", Kind: KindGeneral, Complexity: 4, LOC: 18,
		dists: []dist{{op: expr.OpRouter, args: []arg{along0, whole}}},
	})

	// The auxiliary load-balancing loss over a token split is the mean
	// of per-shard losses: scale(sum(auxloss_i), 1, k) for k equal
	// shards. Omitting the 1/k scaling is §6.2's bug 2 shape.
	r.MustRegister(&Lemma{
		Name: "auxloss-token-split", Kind: KindGeneral, Complexity: 4, LOC: 26,
		dists: []dist{{op: expr.OpAuxLoss, args: []arg{along0}, when: equalChunks, out: mean}},
	})
}

func registerLosses(r *Registry) {
	// Sum-of-squares error is additive over aligned batch splits.
	r.MustRegister(&Lemma{
		Name: "sqerr-batch-split", Kind: KindGeneral, Complexity: 4, LOC: 30,
		dists: []dist{{op: expr.OpSquaredError, args: []arg{along0, along0}, when: aligned, out: sum}},
	})

	// Mean-squared error over k equal batch shards is the scaled sum
	// of per-shard means — gradient accumulation's loss-scaling lemma
	// (§6.2's bug 6 omits the 1/k).
	r.MustRegister(&Lemma{
		Name: "mse-batch-split", Kind: KindGeneral, Complexity: 5, LOC: 36,
		dists: []dist{{op: expr.OpMSELoss, args: []arg{along0, along0}, when: equalChunks, out: mean}},
	})
}
