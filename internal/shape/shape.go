// Package shape implements symbolic shape inference for every operator
// in the expression language. The refinement checker and the graph
// builder use it to validate graphs (the paper validates lemmas "e.g.,
// by checking correct shapes and types", §5) and lemma side conditions.
package shape

import (
	"fmt"

	"entangle/internal/expr"
	"entangle/internal/sym"
)

// Shape is a tensor shape: one symbolic extent per dimension.
type Shape []sym.Expr

// Of builds a shape from constant extents.
func Of(dims ...int64) Shape {
	s := make(Shape, len(dims))
	for i, d := range dims {
		s[i] = sym.Const(d)
	}
	return s
}

// Clone returns an independent copy.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// Equal reports whether two shapes are provably equal under ctx.
func (s Shape) Equal(o Shape, ctx *sym.Context) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if !ctx.ProveEQ(s[i], o[i]) {
			return false
		}
	}
	return true
}

// String renders e.g. "[4,S,H]".
func (s Shape) String() string {
	out := "["
	for i, d := range s {
		if i > 0 {
			out += ","
		}
		out += d.String()
	}
	return out + "]"
}

// Concrete evaluates every extent; it fails if any symbol is unbound.
func (s Shape) Concrete(env map[sym.Symbol]int64) ([]int, error) {
	out := make([]int, len(s))
	for i, d := range s {
		v, err := d.Eval(env)
		if err != nil {
			return nil, err
		}
		if v < 0 {
			return nil, fmt.Errorf("shape: negative extent %d in dim %d", v, i)
		}
		out[i] = int(v)
	}
	return out, nil
}

// Infer computes the output shapes of an operator application.
// For single-output operators the result has length 1; collectives
// produce one shape per output (== len(inputs)).
func Infer(op expr.Op, str string, ints []sym.Expr, in []Shape, ctx *sym.Context) ([]Shape, error) {
	one := func(s Shape, err error) ([]Shape, error) {
		if err != nil {
			return nil, err
		}
		return []Shape{s}, nil
	}
	switch op {
	case expr.OpIdentity, expr.OpScale, expr.OpUnary, expr.OpSoftmax, expr.OpRoPE:
		if err := needArgs(op, in, 1, 3); err != nil {
			return nil, err
		}
		return one(in[0].Clone(), nil)
	case expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpDiv:
		if len(in) != 2 {
			return nil, arityErr(op, in)
		}
		return one(broadcastBinary(op, in[0], in[1], ctx))
	case expr.OpSum:
		if len(in) == 0 {
			return nil, arityErr(op, in)
		}
		for _, s := range in[1:] {
			if !in[0].Equal(s, ctx) {
				return nil, fmt.Errorf("shape: sum operands differ: %s vs %s", in[0], s)
			}
		}
		return one(in[0].Clone(), nil)
	case expr.OpConcat:
		return one(inferConcat(ints, in, ctx))
	case expr.OpSlice:
		return one(inferSlice(ints, in, ctx))
	case expr.OpTranspose:
		return one(inferTranspose(ints, in, ctx))
	case expr.OpReshape:
		return one(inferReshape(ints, in, ctx))
	case expr.OpPad:
		return one(inferPad(ints, in, ctx))
	case expr.OpMatMul:
		return one(inferMatMul(in, ctx))
	case expr.OpReduceSum:
		return one(inferReduceSum(ints, in, ctx))
	case expr.OpLayerNorm:
		if len(in) != 3 {
			return nil, arityErr(op, in)
		}
		return one(in[0].Clone(), nil)
	case expr.OpRMSNorm:
		if len(in) != 2 {
			return nil, arityErr(op, in)
		}
		return one(in[0].Clone(), nil)
	case expr.OpFusedAddRMSNorm:
		if len(in) != 3 {
			return nil, arityErr(op, in)
		}
		if !in[0].Equal(in[1], ctx) {
			return nil, fmt.Errorf("shape: fused_add_rmsnorm x/residual differ: %s vs %s", in[0], in[1])
		}
		return one(in[0].Clone(), nil)
	case expr.OpFusedSiluMul:
		if len(in) != 2 {
			return nil, arityErr(op, in)
		}
		if !in[0].Equal(in[1], ctx) {
			return nil, fmt.Errorf("shape: fused_silu_mul operands differ: %s vs %s", in[0], in[1])
		}
		return one(in[0].Clone(), nil)
	case expr.OpEmbedding, expr.OpEmbeddingShard:
		return one(inferEmbedding(op, in))
	case expr.OpAttention:
		if len(in) != 3 {
			return nil, arityErr(op, in)
		}
		if !in[1].Equal(in[2], ctx) {
			return nil, fmt.Errorf("shape: attention k/v differ: %s vs %s", in[1], in[2])
		}
		if len(in[0]) != len(in[1]) || !ctx.ProveEQ(in[0][len(in[0])-1], in[1][len(in[1])-1]) {
			if ctx.ProveNE(in[0][len(in[0])-1], in[1][len(in[1])-1]) {
				return nil, fmt.Errorf("shape: attention q/k hidden dims differ: %s vs %s", in[0], in[1])
			}
		}
		return one(in[0].Clone(), nil)
	case expr.OpMSELoss, expr.OpSquaredError:
		if len(in) != 2 {
			return nil, arityErr(op, in)
		}
		if !in[0].Equal(in[1], ctx) {
			return nil, fmt.Errorf("shape: %s operands differ: %s vs %s", op, in[0], in[1])
		}
		return one(Of(1), nil)
	case expr.OpAuxLoss:
		if len(in) != 1 {
			return nil, arityErr(op, in)
		}
		return one(Of(1), nil)
	case expr.OpRouter:
		return one(inferMatMul(in, ctx)) // x[·,h] × w[h,e] → [·,e]
	case expr.OpAllReduce:
		return inferAllReduce(in, ctx)
	case expr.OpReduceScatter:
		return inferReduceScatter(ints, in, ctx)
	case expr.OpAllGather:
		return inferAllGather(ints, in, ctx)
	}
	return nil, fmt.Errorf("shape: unknown operator %q", op)
}

// broadcastBinary resolves the output shape of a binary elementwise
// op: dimensions must be provably equal, or one side provably 1
// (PyTorch-style broadcasting restricted to equal ranks).
func broadcastBinary(op expr.Op, a, b Shape, ctx *sym.Context) (Shape, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("shape: %s rank %d vs %d", op, len(a), len(b))
	}
	out := make(Shape, len(a))
	for i := range a {
		switch {
		case ctx.ProveEQ(a[i], b[i]):
			out[i] = a[i]
		case ctx.ProveEQ(a[i], sym.Const(1)):
			out[i] = b[i]
		case ctx.ProveEQ(b[i], sym.Const(1)):
			out[i] = a[i]
		default:
			return nil, fmt.Errorf("shape: %s operands differ at dim %d: %s vs %s", op, i, a, b)
		}
	}
	return out, nil
}

func arityErr(op expr.Op, in []Shape) error {
	return fmt.Errorf("shape: %s got %d inputs", op, len(in))
}

func needArgs(op expr.Op, in []Shape, lo, hi int) error {
	if len(in) < lo || len(in) > hi {
		return arityErr(op, in)
	}
	return nil
}

// DimIndex resolves a dimension attribute against a tensor's rank: a
// constant, counted from the back when negative.
func DimIndex(d sym.Expr, rank int) (int, error) {
	v, ok := d.IsConst()
	if !ok {
		return 0, fmt.Errorf("shape: symbolic dimension index %s unsupported", d)
	}
	if v < 0 {
		v += int64(rank)
	}
	if v < 0 || int(v) >= rank {
		return 0, fmt.Errorf("shape: dim %d out of range for rank %d", v, rank)
	}
	return int(v), nil
}

func inferConcat(ints []sym.Expr, in []Shape, ctx *sym.Context) (Shape, error) {
	if len(ints) != 1 || len(in) == 0 {
		return nil, fmt.Errorf("shape: concat needs dim attr and ≥1 input")
	}
	d, err := DimIndex(ints[0], len(in[0]))
	if err != nil {
		return nil, err
	}
	out := in[0].Clone()
	total := in[0][d]
	for _, s := range in[1:] {
		if len(s) != len(in[0]) {
			return nil, fmt.Errorf("shape: concat rank mismatch %s vs %s", in[0], s)
		}
		for i := range s {
			if i == d {
				continue
			}
			if !ctx.ProveEQ(s[i], in[0][i]) {
				return nil, fmt.Errorf("shape: concat dim %d mismatch %s vs %s", i, in[0], s)
			}
		}
		total = total.Add(s[d])
	}
	out[d] = total
	return out, nil
}

func inferSlice(ints []sym.Expr, in []Shape, ctx *sym.Context) (Shape, error) {
	if len(ints) != 3 || len(in) != 1 {
		return nil, fmt.Errorf("shape: slice needs (dim,begin,end) and 1 input")
	}
	d, err := DimIndex(ints[0], len(in[0]))
	if err != nil {
		return nil, err
	}
	begin, end := ints[1], ints[2]
	if ctx.ProveGT(sym.Const(0), begin) {
		return nil, fmt.Errorf("shape: slice begin %s < 0", begin)
	}
	if ctx.ProveGT(begin, end) {
		return nil, fmt.Errorf("shape: slice begin %s > end %s", begin, end)
	}
	if ctx.ProveGT(end, in[0][d]) {
		return nil, fmt.Errorf("shape: slice end %s exceeds extent %s", end, in[0][d])
	}
	out := in[0].Clone()
	out[d] = end.Sub(begin)
	return out, nil
}

func inferTranspose(ints []sym.Expr, in []Shape, _ *sym.Context) (Shape, error) {
	if len(ints) != 2 || len(in) != 1 {
		return nil, fmt.Errorf("shape: transpose needs (d0,d1) and 1 input")
	}
	d0, err := DimIndex(ints[0], len(in[0]))
	if err != nil {
		return nil, err
	}
	d1, err := DimIndex(ints[1], len(in[0]))
	if err != nil {
		return nil, err
	}
	out := in[0].Clone()
	out[d0], out[d1] = out[d1], out[d0]
	return out, nil
}

func inferReshape(ints []sym.Expr, in []Shape, _ *sym.Context) (Shape, error) {
	if len(in) != 1 || len(ints) == 0 {
		return nil, fmt.Errorf("shape: reshape needs target shape and 1 input")
	}
	// Element-count preservation is only checkable when both shapes are
	// fully concrete (symbolic products are non-linear).
	inProd, outProd := int64(1), int64(1)
	allConst := true
	for _, d := range in[0] {
		if v, ok := d.IsConst(); ok {
			inProd *= v
		} else {
			allConst = false
		}
	}
	for _, d := range ints {
		if v, ok := d.IsConst(); ok {
			outProd *= v
		} else {
			allConst = false
		}
	}
	if allConst && inProd != outProd {
		return nil, fmt.Errorf("shape: reshape %s → %v changes element count", in[0], Shape(ints))
	}
	return Shape(ints).Clone(), nil
}

func inferPad(ints []sym.Expr, in []Shape, _ *sym.Context) (Shape, error) {
	if len(ints) != 3 || len(in) != 1 {
		return nil, fmt.Errorf("shape: pad needs (dim,before,after) and 1 input")
	}
	d, err := DimIndex(ints[0], len(in[0]))
	if err != nil {
		return nil, err
	}
	out := in[0].Clone()
	out[d] = out[d].Add(ints[1]).Add(ints[2])
	return out, nil
}

func inferMatMul(in []Shape, ctx *sym.Context) (Shape, error) {
	if len(in) != 2 {
		return nil, fmt.Errorf("shape: matmul needs 2 inputs")
	}
	a, b := in[0], in[1]
	if len(a) < 2 || len(b) < 2 {
		return nil, fmt.Errorf("shape: matmul ranks %d,%d < 2", len(a), len(b))
	}
	k1, k2 := a[len(a)-1], b[len(b)-2]
	if !ctx.ProveEQ(k1, k2) {
		// Only reject when provably unequal; otherwise accept (the
		// symbolic context may simply lack the needed facts).
		if ctx.ProveNE(k1, k2) {
			return nil, fmt.Errorf("shape: matmul inner dims %s ≠ %s", k1, k2)
		}
	}
	// Batched: broadcast leading dims from the higher-rank side.
	lead := a[:len(a)-2]
	if len(b) > len(a) {
		lead = b[:len(b)-2]
	}
	out := make(Shape, 0, len(lead)+2)
	out = append(out, lead.Clone()...)
	out = append(out, a[len(a)-2], b[len(b)-1])
	return out, nil
}

func inferReduceSum(ints []sym.Expr, in []Shape, _ *sym.Context) (Shape, error) {
	if len(ints) != 1 || len(in) != 1 {
		return nil, fmt.Errorf("shape: reducesum needs dim and 1 input")
	}
	d, err := DimIndex(ints[0], len(in[0]))
	if err != nil {
		return nil, err
	}
	out := in[0].Clone()
	out[d] = sym.Const(1)
	return out, nil
}

func inferEmbedding(op expr.Op, in []Shape) (Shape, error) {
	if len(in) != 2 {
		return nil, fmt.Errorf("shape: %s needs (table, ids)", op)
	}
	table, ids := in[0], in[1]
	if len(table) != 2 {
		return nil, fmt.Errorf("shape: %s table must be rank 2, got %s", op, table)
	}
	out := ids.Clone()
	out = append(out, table[1])
	return out, nil
}

func inferAllReduce(in []Shape, ctx *sym.Context) ([]Shape, error) {
	if len(in) == 0 {
		return nil, fmt.Errorf("shape: allreduce needs ≥1 input")
	}
	for _, s := range in[1:] {
		if !in[0].Equal(s, ctx) {
			return nil, fmt.Errorf("shape: allreduce shards differ: %s vs %s", in[0], s)
		}
	}
	out := make([]Shape, len(in))
	for i := range in {
		out[i] = in[0].Clone()
	}
	return out, nil
}

func inferReduceScatter(ints []sym.Expr, in []Shape, ctx *sym.Context) ([]Shape, error) {
	if len(ints) != 1 || len(in) == 0 {
		return nil, fmt.Errorf("shape: reducescatter needs dim and ≥1 input")
	}
	d, err := DimIndex(ints[0], len(in[0]))
	if err != nil {
		return nil, err
	}
	for _, s := range in[1:] {
		if !in[0].Equal(s, ctx) {
			return nil, fmt.Errorf("shape: reducescatter shards differ")
		}
	}
	chunk, ok := in[0][d].DivConst(int64(len(in)))
	if !ok {
		return nil, fmt.Errorf("shape: reducescatter extent %s not divisible by %d ranks", in[0][d], len(in))
	}
	out := make([]Shape, len(in))
	for i := range in {
		s := in[0].Clone()
		s[d] = chunk
		out[i] = s
	}
	return out, nil
}

func inferAllGather(ints []sym.Expr, in []Shape, ctx *sym.Context) ([]Shape, error) {
	if len(ints) != 1 || len(in) == 0 {
		return nil, fmt.Errorf("shape: allgather needs dim and ≥1 input")
	}
	d, err := DimIndex(ints[0], len(in[0]))
	if err != nil {
		return nil, err
	}
	total := in[0][d]
	for _, s := range in[1:] {
		if len(s) != len(in[0]) {
			return nil, fmt.Errorf("shape: allgather rank mismatch")
		}
		for i := range s {
			if i != d && !ctx.ProveEQ(s[i], in[0][i]) {
				return nil, fmt.Errorf("shape: allgather dim %d mismatch", i)
			}
		}
		total = total.Add(s[d])
	}
	out := make([]Shape, len(in))
	for i := range in {
		s := in[0].Clone()
		s[d] = total
		out[i] = s
	}
	return out, nil
}
