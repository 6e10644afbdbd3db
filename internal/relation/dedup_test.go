package relation_test

import (
	"math/rand"
	"testing"

	"entangle/internal/expr"
	"entangle/internal/fingerprint"
	"entangle/internal/graph"
	"entangle/internal/relation"
	"entangle/internal/sym"
)

// randomTerm draws from a space small enough that equal terms recur:
// leaves over three G_d tensors under three display names, and sums,
// concats, slices and unaries nested up to depth whose attributes are
// the constant 4 or the symbol S spelled two ways.
func randomTerm(rng *rand.Rand, depth int) *expr.Term {
	if depth == 0 || rng.Intn(3) == 0 {
		return expr.Tensor(relation.GdOffset+rng.Intn(3), []string{"", "x", "y"}[rng.Intn(3)])
	}
	attr := func() sym.Expr {
		switch rng.Intn(3) {
		case 0:
			return sym.Const(4)
		case 1:
			return sym.Var("S")
		}
		return sym.Var("S").MulConst(2).Sub(sym.Var("S")) // S again
	}
	a := randomTerm(rng, depth-1)
	switch rng.Intn(4) {
	case 0:
		return expr.New(expr.OpSum, nil, "", a, randomTerm(rng, depth-1))
	case 1:
		return expr.New(expr.OpConcat, []sym.Expr{attr()}, "", a, randomTerm(rng, depth-1))
	case 2:
		return expr.New(expr.OpSlice, []sym.Expr{sym.Const(0), attr(), attr()}, "", a)
	}
	return expr.New(expr.OpUnary, nil, []string{"gelu", "silu"}[rng.Intn(2)], a)
}

// TestStructuralDedupMatchesKeys: the relation's dedup, an Equal scan,
// keeps exactly the terms a set of keys keeps (a key is a term's
// canonical spelling, fingerprint.CanonicalTerm(t, nil)), for leaves
// that differ only in their name, attributes that are S one way or
// another or 4, and nested arguments; and Equal is key equality.
func TestStructuralDedupMatchesKeys(t *testing.T) {
	key := func(t *expr.Term) string { return fingerprint.CanonicalTerm(t, nil) }
	rng := rand.New(rand.NewSource(7))
	for seq := 0; seq < 300; seq++ {
		r := relation.New()
		keys := map[graph.TensorID]map[string]bool{}
		var drawn []*expr.Term
		for n := rng.Intn(80); n > 0; n-- {
			id, m := graph.TensorID(rng.Intn(2)), randomTerm(rng, 3)
			if keys[id] == nil {
				keys[id] = map[string]bool{}
			}
			fresh := !keys[id][key(m)]
			keys[id][key(m)] = true
			if r.Add(id, m) != fresh {
				t.Fatalf("sequence %d: Add(%d, %s) = %v, its key was fresh: %v", seq, id, m, !fresh, fresh)
			}
			drawn = append(drawn, m)
		}
		for id, set := range keys {
			if got := len(r.Get(id)); got != len(set) {
				t.Fatalf("sequence %d tensor %d: %d mappings, %d keys", seq, id, got, len(set))
			}
		}
		// A clone still knows every term it holds.
		c := r.Clone()
		for _, m := range drawn {
			if c.Add(0, m) && keys[0][key(m)] || c.Add(1, m) && keys[1][key(m)] {
				t.Fatalf("sequence %d: the clone took %s again", seq, m)
			}
		}
		for i, a := range drawn {
			for _, b := range drawn[i:] {
				if a.Equal(b) != (key(a) == key(b)) {
					t.Fatalf("%s Equal %s is %v, their keys %q and %q", a, b, a.Equal(b), key(a), key(b))
				}
			}
		}
	}
}
