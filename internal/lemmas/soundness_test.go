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
// saturate with the full lemma library, extract a (clean or arbitrary)
// representative of the root class, and check numerically that it
// computes the same value as the original expression. This is the
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
	switch f.rng.Intn(8) {
	case 0: // concat along a random dim
		d := f.rng.Intn(len(dims))
		if dims[d] < 2 {
			return f.leaf(dims...)
		}
		cut := 1 + f.rng.Intn(dims[d]-1)
		left := append([]int{}, dims...)
		right := append([]int{}, dims...)
		left[d], right[d] = cut, dims[d]-cut
		return expr.ConcatI(int64(d), f.gen(left, depth-1), f.gen(right, depth-1))
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
	}
	return f.leaf(dims...)
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
		want, err := f.eval(root)
		if err != nil {
			t.Fatalf("trial %d: eval original: %v", trial, err)
		}

		g := egraph.New(nil)
		g.SetLeafShapeFn(func(tid int) (shape.Shape, bool) {
			s, ok := f.shapes[tid]
			return s, ok
		})
		cls := g.AddTerm(root)
		g.Saturate(rules, egraph.SaturateOpts{MaxIters: 10, MaxNodes: 20_000})

		// Any clean representative over the leaves must agree with the
		// original expression's value.
		for _, rep := range g.CleanCosts(func(int) bool { return true }).ExtractAll(cls, 1) {
			got, err := f.eval(rep)
			if err != nil {
				t.Fatalf("trial %d: eval extracted %s: %v", trial, rep, err)
			}
			if !numeric.AllClose(want, got, 1e-9) {
				t.Fatalf("trial %d: UNSOUND REWRITE\noriginal: %s\nextracted: %s\nmax diff %g",
					trial, root, rep, numeric.MaxAbsDiff(want, got))
			}
		}

		// Stronger: every distinct clean representative agrees too.
		for _, rep := range g.CleanCosts(func(int) bool { return true }).ExtractAll(cls, 8) {
			got, err := f.eval(rep)
			if err != nil {
				t.Fatalf("trial %d: eval %s: %v", trial, rep, err)
			}
			if !numeric.AllClose(want, got, 1e-9) {
				t.Fatalf("trial %d: UNSOUND REWRITE\noriginal: %s\nvariant: %s\nmax diff %g",
					trial, root, rep, numeric.MaxAbsDiff(want, got))
			}
		}
	}
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
