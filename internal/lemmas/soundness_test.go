package lemmas

import (
	"fmt"
	"math/rand"
	"testing"

	"entangle/internal/egraph"
	"entangle/internal/expr"
	"entangle/internal/numeric"
	"entangle/internal/shape"
	"entangle/internal/sym"
)

// Lemma-soundness fuzzing: build random well-shaped expressions,
// saturate with the full lemma library, and check numerically that
// every node of every class computes its class's value. This is the
// paper's lemma validation (§5) done end-to-end: any unsound rewrite
// in any lemma composition fails this test.

type fuzzEnv struct {
	rng    *rand.Rand
	shapes map[int]shape.Shape
	vals   map[int]*numeric.Dense
	next   int
}

func (f *fuzzEnv) leaf(dims ...int) *expr.Term {
	id := f.next
	f.next++
	sh := make(shape.Shape, len(dims))
	for i, d := range dims {
		sh[i] = sym.Const(int64(d))
	}
	f.shapes[id] = sh
	f.vals[id] = numeric.Rand(f.rng, dims...)
	return expr.Tensor(id, fmt.Sprintf("t%d", id))
}

// gen builds a random expression with the given concrete shape,
// recursing up to depth.
func (f *fuzzEnv) gen(dims []int, depth int) *expr.Term {
	if depth == 0 || f.rng.Intn(4) == 0 {
		return f.leaf(dims...)
	}
	switch f.rng.Intn(12) {
	case 0: // concat along a random dim
		return f.concat(dims, depth)
	case 1: // slice of something larger
		d := f.rng.Intn(len(dims))
		extra := 1 + f.rng.Intn(3)
		big := append([]int{}, dims...)
		big[d] += extra
		begin := f.rng.Intn(extra + 1)
		return expr.SliceI(f.gen(big, depth-1), int64(d), int64(begin), int64(begin+dims[d]))
	case 2: // sum of 2-3 same-shaped
		n := 2 + f.rng.Intn(2)
		args := make([]*expr.Term, n)
		for i := range args {
			args[i] = f.gen(dims, depth-1)
		}
		return expr.Sum(args...)
	case 3: // elementwise binary
		ops := []func(a, b *expr.Term) *expr.Term{expr.Add, expr.Sub, expr.Mul}
		return ops[f.rng.Intn(len(ops))](f.gen(dims, depth-1), f.gen(dims, depth-1))
	case 4: // matmul (rank-2 only)
		if len(dims) != 2 {
			return f.leaf(dims...)
		}
		k := 1 + f.rng.Intn(4)
		return expr.MatMul(f.gen([]int{dims[0], k}, depth-1), f.gen([]int{k, dims[1]}, depth-1))
	case 5: // unary
		names := []string{"gelu", "silu", "relu", "tanh"}
		return expr.Unary(names[f.rng.Intn(len(names))], f.gen(dims, depth-1))
	case 6: // scale
		num := int64(1 + f.rng.Intn(3))
		den := int64(1 + f.rng.Intn(3))
		return expr.Scale(f.gen(dims, depth-1), num, den)
	case 7: // transpose (round trip keeps the shape contract simple)
		if len(dims) != 2 {
			return f.leaf(dims...)
		}
		z, o := sym.Const(0), sym.Const(1)
		inner := f.gen([]int{dims[1], dims[0]}, depth-1)
		return expr.Transpose(inner, z, o)
	case 8: // softmax over a random dim
		return expr.Softmax(f.split(dims, depth-1), sym.Const(int64(f.rng.Intn(len(dims)))))
	case 9: // reducesum over a random dim, which it keeps at size 1;
		// the rest of the dim is concatenated on
		d := f.rng.Intn(len(dims))
		in := append([]int{}, dims...)
		in[d] = 1 + f.rng.Intn(4)
		sum := expr.ReduceSum(f.split(in, depth-1), sym.Const(int64(d)))
		if dims[d] == 1 {
			return sum
		}
		rest := append([]int{}, dims...)
		rest[d]--
		return expr.ConcatI(int64(d), sum, f.gen(rest, depth-1))
	case 10: // layernorm, its weight and bias sized to the last dim
		h := dims[len(dims)-1]
		return expr.LayerNorm(f.split(dims, depth-1), f.leaf(h), f.leaf(h))
	case 11: // rmsnorm, its weight sized to the last dim
		return expr.RMSNorm(f.split(dims, depth-1), f.leaf(dims[len(dims)-1]))
	}
	return f.leaf(dims...)
}

// concat builds a concat along a random dim, of random expressions
// recursing up to depth-1; a leaf when that dim cannot be cut.
func (f *fuzzEnv) concat(dims []int, depth int) *expr.Term {
	d := f.rng.Intn(len(dims))
	if dims[d] < 2 {
		return f.leaf(dims...)
	}
	cut := 1 + f.rng.Intn(dims[d]-1)
	left := append([]int{}, dims...)
	right := append([]int{}, dims...)
	left[d], right[d] = cut, dims[d]-cut
	return expr.ConcatI(int64(d), f.gen(left, depth-1), f.gen(right, depth-1))
}

// split is the operand of an operator whose dist row is guarded by
// the split dim: a concat half the time, so that the row and its guard
// meet the dims they must tell apart.
func (f *fuzzEnv) split(dims []int, depth int) *expr.Term {
	if depth > 0 && f.rng.Intn(2) == 0 {
		return f.concat(dims, depth)
	}
	return f.gen(dims, depth)
}

func (f *fuzzEnv) eval(t *expr.Term) (*numeric.Dense, error) {
	return numeric.EvalTerm(t, nil, func(tid int) (*numeric.Dense, error) {
		v, ok := f.vals[tid]
		if !ok {
			return nil, fmt.Errorf("missing leaf %d", tid)
		}
		return v, nil
	})
}

func TestFuzzLemmaSoundness(t *testing.T) {
	reg := Default()
	rules := reg.Rules()
	trials := 150
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		f := &fuzzEnv{
			rng:    rand.New(rand.NewSource(int64(1000 + trial))),
			shapes: map[int]shape.Shape{},
			vals:   map[int]*numeric.Dense{},
		}
		dims := []int{1 + f.rng.Intn(4), 1 + f.rng.Intn(4)}
		root := f.gen(dims, 3)

		g := egraph.New(nil)
		g.SetLeafShapeFn(func(tid int) (shape.Shape, bool) {
			s, ok := f.shapes[tid]
			return s, ok
		})
		g.AddTerm(root)
		g.Saturate(rules, egraph.SaturateOpts{MaxIters: 10, MaxNodes: 20_000})
		f.checkClasses(t, trial, g)
	}
}

// checkClasses values every class of g, bottom-up, by one of its nodes
// over its kids' values, and checks that every node of the class
// evaluates to that value. A rewrite that unions two different values
// shows at the class it merged, however deep in the expression, and
// whatever its operators: clean extraction sees only the classes with
// a layout-only representative. A node that does not evaluate (a
// rewrite that built an ill-shaped term) fails too.
func (f *fuzzEnv) checkClasses(t *testing.T, trial int, g *egraph.EGraph) {
	t.Helper()
	vals := map[egraph.ClassID]*numeric.Dense{}
	for grew := true; grew; {
		grew = false
		for _, c := range g.Classes() {
			for it := g.NodesOf(c); vals[c] == nil && it.Valid(); it.Next() {
				if v, ok, err := f.evalNode(g, it.Node(), vals); ok && err == nil {
					vals[c], grew = v, true
				}
			}
		}
	}
	for _, c := range g.Classes() {
		if vals[c] == nil {
			t.Fatalf("trial %d: UNSOUND REWRITE\nno node of class %d evaluates", trial, c)
		}
	}
	for _, c := range g.Classes() {
		want := vals[c]
		for it := g.NodesOf(c); it.Valid(); it.Next() {
			n := it.Node()
			got, _, err := f.evalNode(g, n, vals)
			if err != nil {
				t.Fatalf("trial %d: UNSOUND REWRITE\nclass %d holds %s, which does not evaluate: %v", trial, c, n.Op, err)
			}
			if !numeric.AllClose(want, got, 1e-9) {
				t.Fatalf("trial %d: UNSOUND REWRITE\nclass %d holds %s %s %v over classes %v\nmax diff %g",
					trial, c, n.Op, n.Str, n.Ints, n.Kids, numeric.MaxAbsDiff(want, got))
			}
		}
	}
}

// evalNode evaluates n over its kids' class values; false when a kid
// has none yet.
func (f *fuzzEnv) evalNode(g *egraph.EGraph, n *egraph.ENode, vals map[egraph.ClassID]*numeric.Dense) (*numeric.Dense, bool, error) {
	if n.Op == expr.OpTensor {
		return f.vals[n.TID], true, nil
	}
	kids := make([]*numeric.Dense, len(n.Kids))
	args := make([]*expr.Term, len(n.Kids))
	for i, k := range n.Kids {
		if kids[i] = vals[g.Find(k)]; kids[i] == nil {
			return nil, false, nil
		}
		args[i] = expr.Tensor(i, "")
	}
	v, err := numeric.EvalTerm(&expr.Term{Op: n.Op, Str: n.Str, Ints: n.Ints, Args: args}, nil,
		func(tid int) (*numeric.Dense, error) { return kids[tid], nil })
	return v, true, err
}

// TestFuzzSlicedConcatEquivalences directs the fuzzer at the lemmas
// with the trickiest index arithmetic: random tilings of a tensor,
// random slices over them, saturated and cross-checked.
func TestFuzzSlicedConcatEquivalences(t *testing.T) {
	reg := Default()
	rules := reg.Rules()
	for trial := 0; trial < 120; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		rows := 2 + rng.Intn(6)
		cols := 1 + rng.Intn(4)
		f := &fuzzEnv{rng: rng, shapes: map[int]shape.Shape{}, vals: map[int]*numeric.Dense{}}
		base := f.leaf(rows, cols)

		// random tiling of dim 0
		var pieces []*expr.Term
		at := 0
		for at < rows {
			step := 1 + rng.Intn(rows-at)
			pieces = append(pieces, expr.SliceI(base, 0, int64(at), int64(at+step)))
			at += step
		}
		tiled := expr.ConcatI(0, pieces...)
		lo := rng.Intn(rows)
		hi := lo + 1 + rng.Intn(rows-lo)
		probe := expr.SliceI(tiled, 0, int64(lo), int64(hi))

		want, err := f.eval(probe)
		if err != nil {
			t.Fatal(err)
		}
		g := egraph.New(nil)
		g.SetLeafShapeFn(func(tid int) (shape.Shape, bool) {
			s, ok := f.shapes[tid]
			return s, ok
		})
		cls := g.AddTerm(probe)
		g.Saturate(rules, egraph.SaturateOpts{MaxIters: 12, MaxNodes: 20_000})
		for _, rep := range g.CleanCosts(func(int) bool { return true }).ExtractAll(cls, 8) {
			got, err := f.eval(rep)
			if err != nil {
				t.Fatalf("trial %d: eval %s: %v", trial, rep, err)
			}
			if !numeric.AllClose(want, got, 1e-12) {
				t.Fatalf("trial %d: UNSOUND index arithmetic\nprobe: %s\nvariant: %s",
					trial, probe, rep)
			}
		}
		// The minimal representative should collapse to a single slice
		// of the base tensor (or the base itself).
		for _, rep := range g.CleanCosts(func(tid int) bool { return tid == base.TID }).ExtractAll(cls, 1) {
			got, _ := f.eval(rep)
			if !numeric.AllClose(want, got, 1e-12) {
				t.Fatalf("trial %d: collapsed slice wrong: %s", trial, rep)
			}
		}
	}
}
