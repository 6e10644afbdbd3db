// Package expr defines the symbolic tensor-expression language used by
// ENTANGLE. Expressions are trees of operator applications over tensor
// leaves; they are what relations map tensors to (§3.2 of the paper),
// what lemmas rewrite (§4.2), and what the e-graph stores as ENodes.
package expr

// Op identifies an operator in the expression language. The vocabulary
// mirrors the subset of PyTorch's ATen IR exercised by the paper's
// models, plus the collective-communication kernels used by
// distribution strategies.
type Op string

// Tensor-manipulation and compute operators.
const (
	// OpTensor is a leaf: a reference to a named tensor in some
	// computation graph.
	OpTensor Op = "tensor"

	// Clean rearrangement operators (§3.2, clean expressions part i).
	OpConcat    Op = "concat"    // Ints[0] = dim; variadic args
	OpSlice     Op = "slice"     // Ints[0]=dim, Ints[1]=begin, Ints[2]=end (half-open)
	OpTranspose Op = "transpose" // Ints[0], Ints[1] = swapped dims
	OpReshape   Op = "reshape"   // Ints = target shape
	OpPad       Op = "pad"       // Ints[0]=dim, Ints[1]=before, Ints[2]=after (zero fill)
	OpIdentity  Op = "identity"  // single arg

	// Clean reduction operators (§3.2, clean expressions part ii).
	OpSum Op = "sum" // variadic elementwise sum (the effect of all-reduce)

	// Elementwise arithmetic (Add is also accepted as clean: it is the
	// binary form of OpSum).
	OpAdd   Op = "add"
	OpSub   Op = "sub"
	OpMul   Op = "mul"
	OpDiv   Op = "div"
	OpScale Op = "scale" // multiply by rational constant Ints[0]/Ints[1]
	OpUnary Op = "unary" // Str = activation name: gelu, silu, relu, exp, sqrt, neg

	// Linear algebra and NN kernels.
	OpMatMul    Op = "matmul"
	OpReduceSum Op = "reducesum" // Ints[0]=dim; keeps dim with size 1
	OpSoftmax   Op = "softmax"   // Ints[0]=dim
	OpLayerNorm Op = "layernorm" // args: x, weight, bias; normalizes last dim
	OpRMSNorm   Op = "rmsnorm"   // args: x, weight; normalizes last dim
	OpEmbedding Op = "embedding" // args: table, ids
	// OpEmbeddingShard is a vocabulary-parallel embedding lookup over a
	// shard of the table: out-of-range ids contribute zeros.
	// args: tableShard, ids; Ints[0]=vocab offset of shard.
	OpEmbeddingShard Op = "embedding_shard"
	OpRoPE           Op = "rope"      // args: x, cos, sin (rotary embedding)
	OpAttention      Op = "attention" // fused SDPA; args q, k, v; Ints[0]=#heads
	OpMSELoss        Op = "mse"       // args: pred, target → [1] tensor (mean)
	OpSquaredError   Op = "sqerr"     // args: pred, target → [1] tensor (sum of squares)
	OpRouter         Op = "router"    // MoE router probabilities; args x, weight
	OpAuxLoss        Op = "auxloss"   // MoE load-balance loss; arg: router probs

	// Fused kernels found in serving frameworks (vLLM) and HLO graphs;
	// the v/h lemma families relate them to their unfused forms.
	OpFusedAddRMSNorm Op = "fused_add_rmsnorm" // args: x, residual, weight
	OpFusedSiluMul    Op = "fused_silu_mul"    // args: gate, up → silu(gate)⊙up
)

// Collective-communication kernels. These appear only as graph nodes in
// distributed implementations; when folded into the e-graph their
// semantics are expanded into clean operators (see graph.NodeOutputExpr),
// so they never appear inside relation expressions.
const (
	OpAllReduce     Op = "allreduce"     // R in, R out: every output = sum(inputs)
	OpReduceScatter Op = "reducescatter" // Ints[0]=dim; output i = slice_i(sum(inputs))
	OpAllGather     Op = "allgather"     // Ints[0]=dim; every output = concat(inputs)
)

// CleanOp reports whether op may appear in a clean expression (§3.2):
// element rearrangement plus tensor-combining reductions. Extraction
// asks it of every node it costs, so it is a switch, not a map.
func CleanOp(op Op) bool {
	switch op {
	case OpTensor, OpConcat, OpSlice, OpTranspose, OpReshape, OpPad, OpIdentity, OpSum, OpAdd:
		return true
	}
	return false
}

// Commutative reports whether the operator's arguments may be permuted.
func Commutative(op Op) bool {
	switch op {
	case OpAdd, OpMul, OpSum:
		return true
	}
	return false
}

// Elementwise reports whether the operator applies independently per
// element (same-shaped inputs and output), which licenses distribution
// over concat along any dimension.
func Elementwise(op Op) bool {
	switch op {
	case OpAdd, OpSub, OpMul, OpDiv, OpScale, OpUnary, OpIdentity, OpSum:
		return true
	}
	return false
}

// knownOps is the vocabulary: every operator Arity knows.
var knownOps = [...]Op{
	OpTensor, OpConcat, OpSlice, OpTranspose, OpReshape, OpPad, OpIdentity, OpSum,
	OpAdd, OpSub, OpMul, OpDiv, OpScale, OpUnary,
	OpMatMul, OpReduceSum, OpSoftmax, OpLayerNorm, OpRMSNorm, OpEmbedding,
	OpEmbeddingShard, OpRoPE, OpAttention, OpMSELoss, OpSquaredError, OpRouter, OpAuxLoss,
	OpFusedAddRMSNorm, OpFusedSiluMul,
	OpAllReduce, OpReduceScatter, OpAllGather,
}

// vocabulary is every known operator by its spelling.
var vocabulary = func() map[string]Op {
	m := make(map[string]Op, len(knownOps))
	for _, op := range knownOps {
		m[string(op)] = op
	}
	return m
}()

// OpOf returns the operator text spells: a known one without copying
// text, so a decoder pays nothing per node for its operator names.
func OpOf(text []byte) Op {
	if op, ok := vocabulary[string(text)]; ok {
		return op
	}
	return Op(text)
}

// Arity returns the operator's argument count (-1 when variadic, ≥1)
// and whether the operator is known.
func Arity(op Op) (int, bool) {
	switch op {
	case OpTensor:
		return 0, true
	case OpSlice, OpTranspose, OpReshape, OpPad, OpIdentity, OpScale, OpUnary,
		OpReduceSum, OpSoftmax, OpAuxLoss:
		return 1, true
	case OpAdd, OpSub, OpMul, OpDiv, OpMatMul, OpRMSNorm, OpEmbedding,
		OpEmbeddingShard, OpMSELoss, OpSquaredError, OpRouter, OpFusedSiluMul:
		return 2, true
	case OpLayerNorm, OpRoPE, OpAttention, OpFusedAddRMSNorm:
		return 3, true
	case OpConcat, OpSum, OpAllReduce, OpReduceScatter, OpAllGather:
		return -1, true
	}
	return 0, false
}

// Unordered reports whether the operator's kid order does not matter:
// its kids are a multiset, so every permutation of them is one term.
func Unordered(op Op) bool { return op == OpSum }

// Collective reports whether op is a multi-output communication kernel.
func Collective(op Op) bool {
	switch op {
	case OpAllReduce, OpReduceScatter, OpAllGather:
		return true
	}
	return false
}
