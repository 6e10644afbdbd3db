package lemmas

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"entangle/internal/egraph"
	"entangle/internal/expr"
	"entangle/internal/numeric"
	"entangle/internal/shape"
	"entangle/internal/sym"
)

// Per-row numeric validation (§5): every dist row is instantiated on
// random concrete shapes at degrees 2–4, its rule applied once to the
// bare left-hand side, and the right-hand side the interpreter built is
// evaluated against the left through the dense kernels. Nothing else is
// in the e-graph, so a row cannot hide behind another lemma, and ops the
// saturate-extract fuzzer never generates are covered all the same.

// distCase is one concrete instance of a row.
type distCase struct {
	vars map[string]int64 // attribute variables: split dims and op's attributes
	str  string           // a unary's activation
	args [][][]int        // operand → part → shape (one part for a shared operand)
	ids  map[int]int      // operand → exclusive bound of the integer ids it holds
}

// instantiate builds the row's left-hand side over fresh leaves.
func (c distCase) instantiate(t *testing.T, d *dist, rng *rand.Rand) (*fuzzEnv, *expr.Term) {
	t.Helper()
	f := &fuzzEnv{rng: rng, shapes: map[int]shape.Shape{}, vals: map[int]*numeric.Dense{}}
	attr := func(a egraph.AttrPat) sym.Expr {
		if a.Var == "" {
			return a.Lit
		}
		v, ok := c.vars[a.Var]
		if !ok {
			t.Fatalf("case binds no value for ?%s", a.Var)
		}
		return sym.Const(v)
	}
	if len(c.args) != len(d.args) {
		t.Fatalf("case has %d operands, row has %d", len(c.args), len(d.args))
	}
	operands := make([]*expr.Term, len(d.args))
	for i, a := range d.args {
		parts := make([]*expr.Term, len(c.args[i]))
		for j, sh := range c.args[i] {
			parts[j] = f.leaf(sh...)
			if bound := c.ids[i]; bound > 0 {
				f.vals[parts[j].TID] = numeric.RandInts(rng, bound, sh...)
			}
		}
		switch a.split {
		case shared:
			operands[i] = parts[0]
		case chunks:
			operands[i] = expr.New(expr.OpConcat, []sym.Expr{attr(a.dim)}, "", parts...)
		case addends:
			operands[i] = expr.New(expr.OpSum, nil, "", parts...)
		}
	}
	var ints []sym.Expr
	for _, a := range d.attrs {
		ints = append(ints, attr(a))
	}
	return f, expr.New(d.op, ints, c.str, operands...)
}

// applyAtRoot adds lhs to a fresh e-graph and applies rule to the match
// rooted there. With shaped unset the leaves have no shapes.
func applyAtRoot(t *testing.T, f *fuzzEnv, lhs *expr.Term, rule *egraph.Rule, shaped bool) (*egraph.EGraph, []egraph.UnionPair) {
	t.Helper()
	g := egraph.New(nil)
	if shaped {
		g.SetLeafShapeFn(func(tid int) (shape.Shape, bool) {
			s, ok := f.shapes[tid]
			return s, ok
		})
	}
	root := g.AddTerm(lhs)
	for _, m := range g.MatchAll(rule.LHS) {
		if m.Class == root {
			return g, rule.Apply(g, m)
		}
	}
	t.Fatalf("%s: pattern does not match %s", rule.Name, lhs)
	return nil, nil
}

// termOf reads a term back out of classes no union has touched yet.
func termOf(t *testing.T, g *egraph.EGraph, c egraph.ClassID) *expr.Term {
	t.Helper()
	it := g.NodesOf(c)
	n := it.Node()
	if it.Next(); it.Valid() {
		t.Fatalf("class %d holds more than one node", c)
	}
	if n.Op == expr.OpTensor {
		return expr.Tensor(n.TID, n.Name)
	}
	args := make([]*expr.Term, len(n.Kids))
	for i, k := range n.Kids {
		args[i] = termOf(t, g, k)
	}
	return expr.New(n.Op, n.Ints, n.Str, args...)
}

// Shape helpers for the generators. Extents stay in 1..3: the kernels
// are dense and the identities do not depend on size.

func randShape(rng *rand.Rand, rank int) []int {
	s := make([]int, rank)
	for i := range s {
		s[i] = 1 + rng.Intn(3)
	}
	return s
}

func uneven(rng *rand.Rand, k int) []int { return randShape(rng, k) }

func even(k, e int) []int {
	s := make([]int, k)
	for i := range s {
		s[i] = e
	}
	return s
}

func total(exts []int) int {
	n := 0
	for _, e := range exts {
		n += e
	}
	return n
}

func with(base []int, d, e int) []int {
	s := append([]int(nil), base...)
	s[d] = e
	return s
}

// parts splits base along d into one shape per extent.
func parts(base []int, d int, exts []int) [][]int {
	out := make([][]int, len(exts))
	for i, e := range exts {
		out[i] = with(base, d, e)
	}
	return out
}

func single(s ...int) [][]int { return [][]int{s} }

type caseGen func(rng *rand.Rand, k int) distCase

// cut picks a random tensor, a dim of it below rank-keep, and uneven
// chunks along that dim.
func cut(rng *rand.Rand, k, minRank, keep int) (base []int, d int, ps [][]int) {
	base = randShape(rng, minRank+rng.Intn(2))
	d = rng.Intn(len(base) - keep)
	exts := uneven(rng, k)
	return with(base, d, total(exts)), d, parts(base, d, exts)
}

func binaryAligned(rng *rand.Rand, k int) distCase {
	_, d, ps := cut(rng, k, 1, 0)
	return distCase{vars: map[string]int64{"d": int64(d)}, args: [][][]int{ps, ps}}
}

func broadcastCase(concatLeft bool) caseGen {
	return func(rng *rand.Rand, k int) distCase {
		base, d, ps := cut(rng, k, 1, 0)
		c := distCase{vars: map[string]int64{"d": int64(d)}, args: [][][]int{ps, single(with(base, d, 1)...)}}
		if !concatLeft {
			c.args[0], c.args[1] = c.args[1], c.args[0]
		}
		return c
	}
}

// normCase splits x below its last dim; extra whole operands have the
// hidden extent.
func normCase(chunkedArgs, weights int) caseGen {
	return func(rng *rand.Rand, k int) distCase {
		base, d, ps := cut(rng, k, 2, 1)
		c := distCase{vars: map[string]int64{"d": int64(d)}}
		for i := 0; i < chunkedArgs; i++ {
			c.args = append(c.args, ps)
		}
		for i := 0; i < weights; i++ {
			c.args = append(c.args, single(base[len(base)-1]))
		}
		return c
	}
}

// reduceCase has attribute variable attr name a dim equal to (same) or
// different from the split dim.
func reduceCase(attr string, same bool) caseGen {
	return func(rng *rand.Rand, k int) distCase {
		base, d, ps := cut(rng, k, 2, 0)
		other := d
		if !same {
			other = (d + 1 + rng.Intn(len(base)-1)) % len(base)
		}
		return distCase{args: [][][]int{ps},
			vars: map[string]int64{"d": int64(d), attr: int64(other), "n": int64(1 + rng.Intn(3)), "dn": int64(1 + rng.Intn(3))}}
	}
}

// batchSplit splits predictions and targets along dim 0.
func batchSplit(equal bool) caseGen {
	return func(rng *rand.Rand, k int) distCase {
		exts := uneven(rng, k)
		if equal {
			exts = even(k, 1+rng.Intn(3))
		}
		ps := parts([]int{0, 1 + rng.Intn(3)}, 0, exts)
		return distCase{args: [][][]int{ps, ps}}
	}
}

// distCases holds one shape generator per row, keyed by rule name.
var distCases = map[string]caseGen{
	"slice-of-sum": func(rng *rand.Rand, k int) distCase {
		base := randShape(rng, 1+rng.Intn(3))
		d := rng.Intn(len(base))
		b := rng.Intn(base[d])
		e := b + 1 + rng.Intn(base[d]-b)
		return distCase{vars: map[string]int64{"d": int64(d), "b": int64(b), "e": int64(e)},
			args: [][][]int{parts(base, d, even(k, base[d]))}}
	},
	"transpose-concat-commutative": func(rng *rand.Rand, k int) distCase {
		base, d, ps := cut(rng, k, 2, 0)
		a := rng.Intn(len(base))
		return distCase{vars: map[string]int64{"d": int64(d), "a": int64(a), "b": int64((a + 1) % len(base))}, args: [][][]int{ps}}
	},

	"matmul-col-parallel": func(rng *rand.Rand, k int) distCase {
		m, inner := 1+rng.Intn(3), 1+rng.Intn(3)
		x, w := []int{m, inner}, []int{inner, 0}
		switch rng.Intn(3) {
		case 1: // batched x against a shared weight
			x = []int{2, m, inner}
		case 2: // both batched
			x, w = []int{2, m, inner}, []int{2, inner, 0}
		}
		return distCase{vars: map[string]int64{"d": int64(len(w) - 1)},
			args: [][][]int{single(x...), parts(w, len(w)-1, uneven(rng, k))}}
	},
	"matmul-row-parallel": func(rng *rand.Rand, k int) distCase {
		x := append(randShape(rng, 1+rng.Intn(2)), 0)
		exts := uneven(rng, k)
		return distCase{vars: map[string]int64{"dx": int64(len(x) - 1)},
			args: [][][]int{parts(x, len(x)-1, exts), parts([]int{0, 1 + rng.Intn(3)}, 0, exts)}}
	},
	"matmul-row-split-lhs": func(rng *rand.Rand, k int) distCase {
		base, d, ps := cut(rng, k, 2, 1)
		return distCase{vars: map[string]int64{"d": int64(d)},
			args: [][][]int{ps, single(base[len(base)-1], 1+rng.Intn(3))}}
	},
	"matmul-sum-lhs": func(rng *rand.Rand, k int) distCase {
		x, n := randShape(rng, 2), 1+rng.Intn(3)
		return distCase{args: [][][]int{parts(x, 0, even(k, x[0])), single(x[1], n)}}
	},

	"sub-concat-distribute": binaryAligned,
	"mul-concat-distribute": binaryAligned,
	"fused-silu-mul-concat": binaryAligned,

	"mul-broadcast-concat/lhs": broadcastCase(true),
	"mul-broadcast-concat/rhs": broadcastCase(false),

	"unary-concat-distribute": func(rng *rand.Rand, k int) distCase {
		_, d, ps := cut(rng, k, 1, 0)
		names := []string{"gelu", "silu", "relu", "exp", "tanh", "neg", "square"}
		return distCase{vars: map[string]int64{"d": int64(d)}, str: names[rng.Intn(len(names))], args: [][][]int{ps}}
	},
	"scale-concat-distribute": reduceCase("unused", true),

	"softmax-concat-commutative":   reduceCase("ds", false),
	"reducesum-concat-same-dim":    reduceCase("dr", true),
	"layernorm-concat-commutative": normCase(1, 2),
	"rmsnorm-concat-commutative":   normCase(1, 1),

	"embedding-vocab-parallel": func(rng *rand.Rand, k int) distCase {
		exts := uneven(rng, k)
		return distCase{args: [][][]int{parts([]int{0, 1 + rng.Intn(3)}, 0, exts), single(randShape(rng, 1+rng.Intn(2))...)},
			ids: map[int]int{1: total(exts)}}
	},
	"embedding-hidden-parallel": func(rng *rand.Rand, k int) distCase {
		v := 1 + rng.Intn(3)
		return distCase{args: [][][]int{parts([]int{v, 0}, 1, uneven(rng, k)), single(randShape(rng, 1+rng.Intn(2))...)},
			ids: map[int]int{1: v}}
	},
	"embedding-seq-split": func(rng *rand.Rand, k int) distCase {
		_, d, ps := cut(rng, k, 1, 0)
		v := 1 + rng.Intn(3)
		return distCase{vars: map[string]int64{"d": int64(d)}, args: [][][]int{single(v, 1+rng.Intn(3)), ps}, ids: map[int]int{1: v}}
	},

	"rope-seq-split": func(rng *rand.Rand, k int) distCase {
		exts, h := uneven(rng, k), 2*(1+rng.Intn(2))
		table := single(total(exts), h)
		return distCase{args: [][][]int{parts([]int{0, h}, 0, exts), table, table}}
	},
	"rope-hidden-split": func(rng *rand.Rand, k int) distCase {
		exts := uneven(rng, k)
		for i := range exts {
			exts[i] *= 2
		}
		ps := parts([]int{1 + rng.Intn(3), 0}, 1, exts)
		return distCase{args: [][][]int{ps, ps, ps}}
	},

	"attention-head-parallel": func(rng *rand.Rand, k int) distCase {
		perGroup, headDim := 1+rng.Intn(2), 1+rng.Intn(2)
		q := parts([]int{1 + rng.Intn(3), 0}, 1, even(k, perGroup*headDim))
		kv := parts([]int{1 + rng.Intn(3), 0}, 1, even(k, perGroup*headDim))
		return distCase{vars: map[string]int64{"d": 1, "h": int64(k * perGroup)}, args: [][][]int{q, kv, kv}}
	},
	"attention-query-seq-split": func(rng *rand.Rand, k int) distCase {
		heads, headDim := 1+rng.Intn(2), 1+rng.Intn(2)
		kv := single(1+rng.Intn(3), heads*headDim)
		return distCase{vars: map[string]int64{"h": int64(heads)},
			args: [][][]int{parts([]int{0, heads * headDim}, 0, uneven(rng, k)), kv, kv}}
	},

	"router-seq-split": func(rng *rand.Rand, k int) distCase {
		h := 1 + rng.Intn(3)
		return distCase{args: [][][]int{parts([]int{0, h}, 0, uneven(rng, k)), single(h, 1+rng.Intn(3))}}
	},
	"auxloss-token-split": func(rng *rand.Rand, k int) distCase {
		return distCase{args: batchSplit(true)(rng, k).args[:1]}
	},
	"sqerr-batch-split": batchSplit(false),
	"mse-batch-split":   batchSplit(true),
}

// Generators of instances that break a row's side conditions. Each
// draws a left-hand side the pattern matches and the kernels evaluate,
// but that violates one of the row's when flags (a random one, where it
// has several) and keeps the rest. The census below runs them, and the
// valid draws above, through the row with one flag dropped.

// spread is k uneven extents with one of them at least 2, so recut can
// move a unit.
func spread(rng *rand.Rand, k int) []int {
	exts := uneven(rng, k)
	if slices.Max(exts) < 2 {
		exts[0] = 2
	}
	return exts
}

// recut is other extents with the same count and total: one unit moves
// from a chunk of at least 2 to its neighbour.
func recut(rng *rand.Rand, exts []int) []int {
	out := slices.Clone(exts)
	i := rng.Intn(len(out))
	for out[i] < 2 {
		i = (i + 1) % len(out)
	}
	out[i]--
	out[(i+1)%len(out)]++
	return out
}

// misalignedPair cuts two same-shaped operands along one dim at
// different places.
func misalignedPair(rng *rand.Rand, k int) distCase {
	base, exts := randShape(rng, 1+rng.Intn(2)), spread(rng, k)
	d := rng.Intn(len(base))
	return distCase{vars: map[string]int64{"d": int64(d)}, args: [][][]int{parts(base, d, exts), parts(base, d, recut(rng, exts))}}
}

// normLast splits x along its last dim, the one the norm normalizes;
// the weights have the whole hidden extent.
func normLast(weights int) caseGen {
	return func(rng *rand.Rand, k int) distCase {
		base, exts := randShape(rng, 2+rng.Intn(2)), uneven(rng, k)
		d := len(base) - 1
		c := distCase{vars: map[string]int64{"d": int64(d)}, args: [][][]int{parts(base, d, exts)}}
		for i := 0; i < weights; i++ {
			c.args = append(c.args, single(total(exts)))
		}
		return c
	}
}

// distViolations holds, per guarded row, a generator of instances that
// violate its conditions. A row missing here has no instance the
// pattern matches that breaks its flags (its aligned only derives the
// offsets its part hook reads); the census runs its valid draws alone.
var distViolations = map[string]caseGen{
	"matmul-col-parallel": func(rng *rand.Rand, k int) distCase { // dimLast
		m, n, exts := 1+rng.Intn(3), 1+rng.Intn(3), uneven(rng, k)
		if rng.Intn(2) == 0 { // w cut along the contraction dim
			return distCase{vars: map[string]int64{"d": 0}, args: [][][]int{single(m, total(exts)), parts([]int{0, n}, 0, exts)}}
		}
		inner := 1 + rng.Intn(3) // a batched w cut along its batch dim
		return distCase{vars: map[string]int64{"d": 0}, args: [][][]int{single(total(exts), m, inner), parts([]int{0, inner, n}, 0, exts)}}
	},
	"matmul-row-parallel": func(rng *rand.Rand, k int) distCase {
		exts, n := spread(rng, k), 1+rng.Intn(3)
		if rng.Intn(2) == 0 { // aligned: w cut elsewhere than x
			return distCase{vars: map[string]int64{"dx": 1},
				args: [][][]int{parts([]int{1 + rng.Intn(3), 0}, 1, exts), parts([]int{0, n}, 0, recut(rng, exts))}}
		}
		// dimLast: x cut along its rows as w is, square so the left side
		// is well-typed.
		return distCase{vars: map[string]int64{"dx": 0},
			args: [][][]int{parts([]int{0, total(exts)}, 0, exts), parts([]int{0, n}, 0, exts)}}
	},
	"matmul-row-split-lhs": func(rng *rand.Rand, k int) distCase { // dimBeforeLast: x cut along the contraction dim
		exts := uneven(rng, k)
		return distCase{vars: map[string]int64{"d": 1},
			args: [][][]int{parts([]int{1 + rng.Intn(3), 0}, 1, exts), single(total(exts), 1+rng.Intn(3))}}
	},

	"sub-concat-distribute": misalignedPair,
	"mul-concat-distribute": misalignedPair,
	"fused-silu-mul-concat": misalignedPair,

	"softmax-concat-commutative":   reduceCase("ds", true),
	"reducesum-concat-same-dim":    reduceCase("dr", false),
	"layernorm-concat-commutative": normLast(2),
	"rmsnorm-concat-commutative":   normLast(1),

	"rope-hidden-split": func(rng *rand.Rand, k int) distCase { // evenChunks: a cut through a rotation pair
		exts := even(k, 2*(1+rng.Intn(2)))
		exts[0]--
		exts[1]++
		ps := parts([]int{1 + rng.Intn(3), 0}, 1, exts)
		return distCase{args: [][][]int{ps, ps, ps}}
	},
	"attention-head-parallel": func(rng *rand.Rand, k int) distCase {
		perGroup, headDim := 1+rng.Intn(2), 2+rng.Intn(2)
		vars := map[string]int64{"d": 0, "h": int64(k * perGroup)}
		if rng.Intn(2) == 0 { // dimLast: equal sequence chunks of q, k and v
			ps := parts([]int{0, k * perGroup * headDim}, 0, even(k, 1+rng.Intn(2)))
			return distCase{vars: vars, args: [][][]int{ps, ps, ps}}
		}
		// equalChunks: head groups of different widths
		vars["d"] = 1
		exts := recut(rng, even(k, perGroup*headDim))
		q := parts([]int{1 + rng.Intn(3), 0}, 1, exts)
		kv := parts([]int{1 + rng.Intn(3), 0}, 1, exts)
		return distCase{vars: vars, args: [][][]int{q, kv, kv}}
	},

	"auxloss-token-split": func(rng *rand.Rand, k int) distCase { // equalChunks
		return distCase{args: [][][]int{parts([]int{0, 1 + rng.Intn(3)}, 0, recut(rng, even(k, 2)))}}
	},
	"sqerr-batch-split": func(rng *rand.Rand, k int) distCase { // aligned: targets cut elsewhere
		base, exts := []int{0, 1 + rng.Intn(3)}, spread(rng, k)
		return distCase{args: [][][]int{parts(base, 0, exts), parts(base, 0, recut(rng, exts))}}
	},
	"mse-batch-split": func(rng *rand.Rand, k int) distCase { // equalChunks
		ps := parts([]int{0, 1 + rng.Intn(3)}, 0, recut(rng, even(k, 2)))
		return distCase{args: [][][]int{ps, ps}}
	},
}

// eachDist visits every row of the default registry with its rule.
func eachDist(fn func(d *dist, rule *egraph.Rule)) {
	for _, l := range Default().All() {
		for i := range l.dists {
			fn(&l.dists[i], l.Rules[i])
		}
	}
}

func TestDistRowsNumerically(t *testing.T) {
	rows := map[string]bool{}
	eachDist(func(d *dist, rule *egraph.Rule) {
		rows[rule.Name] = true
		gen, ok := distCases[rule.Name]
		if !ok {
			t.Errorf("row %s has no shape generator in distCases", rule.Name)
			return
		}
		shapeFree := d.when&^(attrIsDim|attrNotDim) == 0
		for _, a := range d.args {
			shapeFree = shapeFree && a.rank == 0 && !a.unit
		}
		for k := 2; k <= 4; k++ {
			for trial := 0; trial < 6; trial++ {
				rng := rand.New(rand.NewSource(int64(100*k + trial)))
				f, lhs := gen(rng, k).instantiate(t, d, rng)
				g, pairs := applyAtRoot(t, f, lhs, rule, true)
				if len(pairs) != 1 {
					t.Fatalf("%s, degree %d: did not fire on %s", rule.Name, k, lhs)
				}
				rhs := termOf(t, g, pairs[0].B)
				want, err := f.eval(lhs)
				if err != nil {
					t.Fatalf("%s: eval %s: %v", rule.Name, lhs, err)
				}
				got, err := f.eval(rhs)
				if err != nil {
					t.Fatalf("%s: eval %s: %v", rule.Name, rhs, err)
				}
				if !numeric.AllClose(want, got, 1e-9) {
					t.Fatalf("%s, degree %d: UNSOUND ROW\nlhs: %s\nrhs: %s\nmax diff %g",
						rule.Name, k, lhs, rhs, numeric.MaxAbsDiff(want, got))
				}
				// Fail soft: a condition that reads shapes must decline when
				// there are none to read.
				if _, pairs := applyAtRoot(t, f, lhs, rule, false); !shapeFree && pairs != nil {
					t.Fatalf("%s: fired on %s without leaf shapes", rule.Name, lhs)
				}
			}
		}
	})
	for name := range distCases {
		if !rows[name] {
			t.Errorf("distCases has a generator for %s, which is not a row", name)
		}
	}
}

// distDeclines holds, per guard kind, instances that violate it: the
// pattern matches and the rule must not fire.
var distDeclines = []struct {
	guard, rule string
	c           distCase
}{
	{"dimLast", "matmul-col-parallel", // w split along its rows
		distCase{vars: map[string]int64{"d": 0}, args: [][][]int{single(2, 4), {{2, 3}, {2, 3}}}}},
	{"dimLast", "attention-head-parallel", // a sequence split of q, k and v
		distCase{vars: map[string]int64{"d": 0, "h": 2}, args: [][][]int{{{1, 4}, {1, 4}}, {{1, 4}, {1, 4}}, {{1, 4}, {1, 4}}}}},
	{"dimNotLast", "rmsnorm-concat-commutative", // a split of the normalized dim
		distCase{vars: map[string]int64{"d": 1}, args: [][][]int{{{2, 2}, {2, 2}}, single(4)}}},
	{"dimNotLast", "layernorm-concat-commutative",
		distCase{vars: map[string]int64{"d": 1}, args: [][][]int{{{2, 2}, {2, 2}}, single(4), single(4)}}},
	{"dimBeforeLast", "matmul-row-split-lhs", // a split of the contraction dim
		distCase{vars: map[string]int64{"d": 1}, args: [][][]int{{{2, 2}, {2, 2}}, single(4, 3)}}},
	{"attrIsDim", "reducesum-concat-same-dim",
		distCase{vars: map[string]int64{"d": 0, "dr": 1}, args: [][][]int{{{2, 2}, {2, 2}}}}},
	{"attrIsDim", "reducesum-concat-same-dim",
		distCase{vars: map[string]int64{"d": 1, "dr": 0}, args: [][][]int{{{2, 2}, {2, 2}}}}},
	{"attrNotDim", "softmax-concat-commutative", // softmax over the split dim
		distCase{vars: map[string]int64{"d": 1, "ds": 1}, args: [][][]int{{{2, 2}, {2, 2}}}}},
	{"attrNotDim", "softmax-concat-commutative",
		distCase{vars: map[string]int64{"d": 0, "ds": 0}, args: [][][]int{{{2, 2}, {2, 2}}}}},
	{"aligned", "sub-concat-distribute", // same total, different cuts
		distCase{vars: map[string]int64{"d": 0}, args: [][][]int{{{1, 2}, {3, 2}}, {{2, 2}, {2, 2}}}}},
	{"aligned", "matmul-row-parallel",
		distCase{vars: map[string]int64{"dx": 1}, args: [][][]int{{{2, 1}, {2, 3}}, {{2, 3}, {2, 3}}}}},
	{"aligned", "sqerr-batch-split",
		distCase{args: [][][]int{{{1, 2}, {3, 2}}, {{2, 2}, {2, 2}}}}},
	{"aligned", "fused-silu-mul-concat",
		distCase{vars: map[string]int64{"d": 0}, args: [][][]int{{{1, 2}, {3, 2}}, {{2, 2}, {2, 2}}}}},
	{"equalChunks", "mse-batch-split", // a mean of means over unequal shards
		distCase{args: [][][]int{{{1, 2}, {3, 2}}, {{1, 2}, {3, 2}}}}},
	{"equalChunks", "auxloss-token-split",
		distCase{args: [][][]int{{{1, 2}, {3, 2}}}}},
	{"equalChunks", "attention-head-parallel", // head groups of different widths
		distCase{vars: map[string]int64{"d": 1, "h": 2}, args: [][][]int{{{2, 1}, {2, 3}}, {{2, 1}, {2, 3}}, {{2, 1}, {2, 3}}}}},
	{"evenChunks", "rope-hidden-split", // a cut through a rotation pair
		distCase{args: [][][]int{{{2, 1}, {2, 3}}, {{2, 1}, {2, 3}}, {{2, 1}, {2, 3}}}}},
	{"unit", "mul-broadcast-concat/lhs", // y is not broadcast along the split dim
		distCase{vars: map[string]int64{"d": 0}, args: [][][]int{{{1, 2}, {1, 2}}, single(2, 2)}}},
	{"unit", "mul-broadcast-concat/rhs",
		distCase{vars: map[string]int64{"d": 0}, args: [][][]int{single(2, 2), {{1, 2}, {1, 2}}}}},
	{"rank", "matmul-row-split-lhs", // a batched weight
		distCase{vars: map[string]int64{"d": 1}, args: [][][]int{{{2, 1, 3}, {2, 1, 3}}, single(2, 3, 2)}}},
	{"rank", "matmul-row-parallel",
		distCase{vars: map[string]int64{"dx": 2}, args: [][][]int{{{2, 2, 1}, {2, 2, 1}}, {{1, 1, 3}, {1, 1, 3}}}}},
	{"parts", "mul-concat-distribute", // two chunks against three
		distCase{vars: map[string]int64{"d": 0}, args: [][][]int{{{2, 2}, {2, 2}}, {{1, 2}, {1, 2}, {2, 2}}}}},
	{"prep", "attention-head-parallel", // three heads do not split two ways
		distCase{vars: map[string]int64{"d": 1, "h": 3}, args: [][][]int{{{2, 3}, {2, 3}}, {{2, 3}, {2, 3}}, {{2, 3}, {2, 3}}}}},
}

func TestDistGuardsDecline(t *testing.T) {
	// Every guard kind some row uses needs a violating instance below.
	guards := map[cond]string{dimLast: "dimLast", dimNotLast: "dimNotLast", dimBeforeLast: "dimBeforeLast",
		attrIsDim: "attrIsDim", attrNotDim: "attrNotDim", aligned: "aligned", equalChunks: "equalChunks", evenChunks: "evenChunks"}
	need := map[string]bool{}
	byName := map[string]*dist{}
	rules := map[string]*egraph.Rule{}
	eachDist(func(d *dist, rule *egraph.Rule) {
		byName[rule.Name], rules[rule.Name] = d, rule
		for bit, name := range guards {
			if d.when&bit != 0 {
				need[name] = true
			}
		}
		split := 0
		for _, a := range d.args {
			if a.unit {
				need["unit"] = true
			}
			if a.rank != 0 {
				need["rank"] = true
			}
			if a.split != shared {
				split++
			}
		}
		if split > 1 {
			need["parts"] = true
		}
		if d.prep != nil {
			need["prep"] = true
		}
	})
	for _, n := range distDeclines {
		d, ok := byName[n.rule]
		if !ok {
			t.Errorf("distDeclines names %s, which is not a row", n.rule)
			continue
		}
		delete(need, n.guard)
		rng := rand.New(rand.NewSource(1))
		f, lhs := n.c.instantiate(t, d, rng)
		if _, pairs := applyAtRoot(t, f, lhs, rules[n.rule], true); pairs != nil {
			t.Errorf("%s fired on %s, which violates %s", n.rule, lhs, n.guard)
		}
	}
	var missing []string
	for name := range need {
		missing = append(missing, name)
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("guard kinds with no violating instance in distDeclines: %v", missing)
	}
}

// The guard census: for every row and every when flag it sets, a
// mutant of the row with that flag dropped runs over the row's valid
// draws, then over its violations. equalChunks and evenChunks are
// weakened to aligned, which they include, instead of dropped. The
// mutant is killed when a rewrite it makes evaluates differently from
// its left side (1e-9) or fails to evaluate where the left side does
// (an ill-typed part), or when its Apply panics. The table names what
// killed each mutant first, and testdata/dist_census.txt pins it: a
// flag no instance needs shows as a new survivor and fails the test.
// Regenerate the file with -update only for a change to the rows, the
// generators or the census itself.

// censusFlags names the when flags, in declaration order.
var censusFlags = []struct {
	bit  cond
	name string
}{
	{dimLast, "dimLast"}, {dimNotLast, "dimNotLast"}, {dimBeforeLast, "dimBeforeLast"},
	{attrIsDim, "attrIsDim"}, {attrNotDim, "attrNotDim"},
	{aligned, "aligned"}, {equalChunks, "equalChunks"}, {evenChunks, "evenChunks"},
}

func TestDistGuardCensus(t *testing.T) {
	var table strings.Builder
	fmt.Fprintf(&table, "%-30s %-14s %s\n", "row", "flag", "killed by")
	guarded := map[string]bool{}
	eachDist(func(d *dist, rule *egraph.Rule) {
		guarded[rule.Name] = d.when != 0
		for _, f := range censusFlags {
			if d.when&f.bit == 0 {
				continue
			}
			m := *d
			m.when &^= f.bit
			if f.bit&(equalChunks|evenChunks) != 0 {
				m.when |= aligned
			}
			fmt.Fprintf(&table, "%-30s %-14s %s\n", rule.Name, f.name, census(t, d, rule, m.rule(rule.Name)))
		}
	})
	for name := range distViolations {
		if !guarded[name] {
			t.Errorf("distViolations has a generator for %s, which is not a row with a when flag", name)
		}
	}
	const golden = "testdata/dist_census.txt"
	got := table.String()
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the guard census differs from %s\n--- want ---\n%s--- got ---\n%s", golden, want, got)
	}
	t.Log("\n" + got)
}

// census runs mutant over the row's valid draws and then its violations
// and says what killed it first, or that it survived. On a violation
// the row itself fires on, the row's own rewrite must be sound.
func census(t *testing.T, d *dist, rule, mutant *egraph.Rule) string {
	t.Helper()
	type draws struct {
		what string
		gen  caseGen
	}
	gens := []draws{{"a valid draw", distCases[rule.Name]}}
	if v, ok := distViolations[rule.Name]; ok {
		gens = append(gens, draws{"a violation", v})
	}
	rewrites := 0 // violations the row declines and the mutant rewrites soundly
	for gi, g := range gens {
		for k := 2; k <= 4; k++ {
			for trial := 0; trial < 12; trial++ {
				rng := rand.New(rand.NewSource(int64(1000*gi + 100*k + trial)))
				f, lhs := g.gen(rng, k).instantiate(t, d, rng)
				want, err := f.eval(lhs)
				if err != nil {
					t.Fatalf("%s: %s drew an ill-typed left side %s: %v", rule.Name, g.what, lhs, err)
				}
				row := rewrite(t, f, lhs, rule, want)
				if row != "" && row != "sound" {
					t.Errorf("%s: UNSOUND ROW on %s (%s)", rule.Name, lhs, row)
				}
				switch mut := rewrite(t, f, lhs, mutant, want); mut {
				case "":
				case "sound":
					if row == "" {
						rewrites++
					}
				default:
					return mut + " on " + g.what
				}
			}
		}
	}
	return fmt.Sprintf("SURVIVED (%d rewrites of violations)", rewrites)
}

// rewrite applies rule at lhs's root and judges what it built against
// want: "" when it declines, "sound" when its right side evaluates to
// want, else "numeric", "ill-typed part" or "panic".
func rewrite(t *testing.T, f *fuzzEnv, lhs *expr.Term, rule *egraph.Rule, want *numeric.Dense) (verdict string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			verdict = "panic"
		}
	}()
	g, pairs := applyAtRoot(t, f, lhs, rule, true)
	if pairs == nil {
		return ""
	}
	got, err := evalRecovered(f, termOf(t, g, pairs[0].B))
	switch {
	case err != nil:
		return "ill-typed part"
	case !numeric.AllClose(want, got, 1e-9):
		return "numeric"
	}
	return "sound"
}

// evalRecovered is f.eval with a kernel's panic on shapes it does not
// take returned as an error.
func evalRecovered(f *fuzzEnv, t *expr.Term) (v *numeric.Dense, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f.eval(t)
}
