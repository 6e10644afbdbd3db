package expr

import (
	"fmt"
	"strings"

	"entangle/internal/sym"
)

// Term is an immutable expression tree node. Leaves (Op == OpTensor)
// carry the referenced tensor's numeric ID and name; interior nodes
// carry the operator, its integer/symbolic attributes (Ints), an
// optional string attribute (Str, e.g. the activation name of OpUnary),
// and argument subterms.
type Term struct {
	Op   Op
	Str  string
	Ints []sym.Expr
	Args []*Term

	// TID and Name identify the referenced tensor for OpTensor leaves.
	TID  int
	Name string
}

// Tensor builds a leaf term referencing tensor id with a display name.
func Tensor(id int, name string) *Term {
	return &Term{Op: OpTensor, TID: id, Name: name}
}

// New builds an interior term. It panics on arity violations, which are
// programming errors in lemma or builder code.
func New(op Op, ints []sym.Expr, str string, args ...*Term) *Term {
	if a, ok := Arity(op); ok {
		if a >= 0 && len(args) != a {
			panic(fmt.Sprintf("expr: %s expects %d args, got %d", op, a, len(args)))
		}
		if a == -1 && len(args) == 0 {
			panic(fmt.Sprintf("expr: variadic %s needs ≥1 arg", op))
		}
	}
	for i, a := range args {
		if a == nil {
			panic(fmt.Sprintf("expr: %s arg %d is nil", op, i))
		}
	}
	return &Term{Op: op, Str: str, Ints: ints, Args: args}
}

// Convenience constructors for the common operators.

func MatMul(a, b *Term) *Term { return New(OpMatMul, nil, "", a, b) }
func Add(a, b *Term) *Term    { return New(OpAdd, nil, "", a, b) }
func Sub(a, b *Term) *Term    { return New(OpSub, nil, "", a, b) }
func Mul(a, b *Term) *Term    { return New(OpMul, nil, "", a, b) }
func Div(a, b *Term) *Term    { return New(OpDiv, nil, "", a, b) }

// Sum builds a variadic elementwise sum; a single argument collapses to
// that argument.
func Sum(args ...*Term) *Term {
	if len(args) == 1 {
		return args[0]
	}
	return New(OpSum, nil, "", args...)
}

// Concat concatenates args along dim; a single argument collapses.
func Concat(dim sym.Expr, args ...*Term) *Term {
	if len(args) == 1 {
		return args[0]
	}
	return New(OpConcat, []sym.Expr{dim}, "", args...)
}

// ConcatI is Concat with a constant dimension.
func ConcatI(dim int64, args ...*Term) *Term { return Concat(sym.Const(dim), args...) }

func Slice(a *Term, dim, begin, end sym.Expr) *Term {
	return New(OpSlice, []sym.Expr{dim, begin, end}, "", a)
}

// SliceI is Slice with constant attributes.
func SliceI(a *Term, dim, begin, end int64) *Term {
	return Slice(a, sym.Const(dim), sym.Const(begin), sym.Const(end))
}

func Transpose(a *Term, d0, d1 sym.Expr) *Term {
	return New(OpTranspose, []sym.Expr{d0, d1}, "", a)
}

func Reshape(a *Term, shape []sym.Expr) *Term { return New(OpReshape, shape, "", a) }

func Pad(a *Term, dim, before, after sym.Expr) *Term {
	return New(OpPad, []sym.Expr{dim, before, after}, "", a)
}

// Scale multiplies a by the rational constant num/den.
func Scale(a *Term, num, den int64) *Term {
	return New(OpScale, []sym.Expr{sym.Const(num), sym.Const(den)}, "", a)
}

func Unary(name string, a *Term) *Term { return New(OpUnary, nil, name, a) }

func ReduceSum(a *Term, dim sym.Expr) *Term { return New(OpReduceSum, []sym.Expr{dim}, "", a) }
func Softmax(a *Term, dim sym.Expr) *Term   { return New(OpSoftmax, []sym.Expr{dim}, "", a) }

func LayerNorm(x, w, b *Term) *Term { return New(OpLayerNorm, nil, "", x, w, b) }
func RMSNorm(x, w *Term) *Term      { return New(OpRMSNorm, nil, "", x, w) }
func RoPE(x, cos, sin *Term) *Term  { return New(OpRoPE, nil, "", x, cos, sin) }

// IsLeaf reports whether t references a tensor.
func (t *Term) IsLeaf() bool { return t.Op == OpTensor }

// Clean reports whether every operator in t is permitted in a clean
// expression (§3.2).
func (t *Term) Clean() bool {
	if !CleanOp(t.Op) {
		return false
	}
	for _, a := range t.Args {
		if !a.Clean() {
			return false
		}
	}
	return true
}

// EachLeaf calls f with the tensor ID of every leaf of t, left to right,
// once per occurrence.
func (t *Term) EachLeaf(f func(tid int)) {
	if t.IsLeaf() {
		f(t.TID)
		return
	}
	for _, a := range t.Args {
		a.EachLeaf(f)
	}
}

// Size counts the operator applications in t (leaves count 0). The
// paper's "simplest version" pruning picks the expression with the
// smallest number of nested expressions; Size is that measure.
func (t *Term) Size() int {
	if t.IsLeaf() {
		return 0
	}
	n := 1
	for _, a := range t.Args {
		n += a.Size()
	}
	return n
}

// Equal reports structural equality, a term's one identity: leaves by
// tensor ID (the name is display metadata), interior terms by operator,
// string attribute, integer attributes (sym.Expr.Equal) and arguments.
// It is exactly equality of fingerprint.CanonicalTerm(t, nil).
func (t *Term) Equal(o *Term) bool {
	if t == o {
		return true
	}
	if t == nil || o == nil || t.IsLeaf() != o.IsLeaf() {
		return false
	}
	if t.IsLeaf() {
		return t.TID == o.TID
	}
	if t.Op != o.Op || t.Str != o.Str || len(t.Ints) != len(o.Ints) || len(t.Args) != len(o.Args) {
		return false
	}
	for i, e := range t.Ints {
		if !e.Equal(o.Ints[i]) {
			return false
		}
	}
	for i, a := range t.Args {
		if !a.Equal(o.Args[i]) {
			return false
		}
	}
	return true
}

// String renders the term in the paper's notation, e.g.
// "concat(F1, F2, dim=0)" or "sum(C1, C2)".
func (t *Term) String() string {
	if t.IsLeaf() {
		if t.Name != "" {
			return t.Name
		}
		return fmt.Sprintf("t%d", t.TID)
	}
	var parts []string
	for _, a := range t.Args {
		parts = append(parts, a.String())
	}
	switch t.Op {
	case OpConcat:
		parts = append(parts, "dim="+t.Ints[0].String())
	case OpSlice:
		return fmt.Sprintf("%s[%s:%s @%s]", parts[0], t.Ints[1], t.Ints[2], t.Ints[0])
	case OpTranspose:
		parts = append(parts, t.Ints[0].String(), t.Ints[1].String())
	case OpReshape:
		var dims []string
		for _, d := range t.Ints {
			dims = append(dims, d.String())
		}
		parts = append(parts, "shape=["+strings.Join(dims, ",")+"]")
	case OpPad:
		parts = append(parts, fmt.Sprintf("dim=%s,pad=(%s,%s)", t.Ints[0], t.Ints[1], t.Ints[2]))
	case OpScale:
		return fmt.Sprintf("scale(%s, %s/%s)", parts[0], t.Ints[0], t.Ints[1])
	case OpUnary:
		return fmt.Sprintf("%s(%s)", t.Str, parts[0])
	case OpReduceSum, OpSoftmax:
		parts = append(parts, "dim="+t.Ints[0].String())
	case OpEmbeddingShard:
		parts = append(parts, "offset="+t.Ints[0].String())
	}
	return fmt.Sprintf("%s(%s)", t.Op, strings.Join(parts, ", "))
}

// Map applies f bottom-up, rebuilding interior nodes whose children
// changed; f receives each (already-rebuilt) node and returns its
// replacement.
func (t *Term) Map(f func(*Term) *Term) *Term {
	if t.IsLeaf() {
		return f(t)
	}
	changed := false
	args := make([]*Term, len(t.Args))
	for i, a := range t.Args {
		args[i] = a.Map(f)
		if args[i] != a {
			changed = true
		}
	}
	n := t
	if changed {
		n = &Term{Op: t.Op, Str: t.Str, Ints: t.Ints, Args: args}
	}
	return f(n)
}
