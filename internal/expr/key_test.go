package expr_test

import (
	"testing"
	"testing/quick"

	"entangle/internal/expr"
	"entangle/internal/fingerprint"
	"entangle/internal/sym"
)

// A term's key is its canonical spelling, fingerprint.CanonicalTerm(t,
// nil), which is injective (DecodeTerm inverts it). Term.Equal is a
// term's one identity and holds exactly when two keys are equal.

func key(t *expr.Term) string { return fingerprint.CanonicalTerm(t, nil) }

// equalIsKeyEquality reports whether a.Equal(b) says what their keys say.
func equalIsKeyEquality(a, b *expr.Term) bool { return a.Equal(b) == (key(a) == key(b)) }

func TestKeyDistinguishesAttrs(t *testing.T) {
	a := expr.Tensor(1, "A")
	s1 := expr.SliceI(a, 0, 0, 4)
	s2 := expr.SliceI(a, 0, 0, 5)
	s3 := expr.SliceI(a, 1, 0, 4)
	renamed := expr.SliceI(expr.Tensor(1, "renamed"), 0, 0, 4)
	if s1.Equal(s2) || s1.Equal(s3) || !s1.Equal(renamed) {
		t.Fatal("slices must be told apart by their attributes, not their leaves' names")
	}
	if key(s1) == key(s2) || key(s1) == key(s3) || key(s1) != key(renamed) {
		t.Fatal("slice keys must encode attributes and not leaf names")
	}
	u1, u2 := expr.Unary("gelu", a), expr.Unary("silu", a)
	if u1.Equal(u2) || key(u1) == key(u2) {
		t.Fatal("unaries must be told apart by the function name")
	}
}

func TestKeyEqualAgree(t *testing.T) {
	a, b := expr.Tensor(1, "A"), expr.Tensor(2, "B")
	x := expr.Sum(expr.MatMul(a, b), expr.MatMul(b, a))
	y := expr.Sum(expr.MatMul(a, b), expr.MatMul(b, a))
	if !x.Equal(y) || key(x) != key(y) {
		t.Fatal("structurally equal terms must agree on their key")
	}
	z := expr.Sum(expr.MatMul(a, b), expr.MatMul(a, b))
	if x.Equal(z) || !equalIsKeyEquality(x, z) {
		t.Fatal("different terms must not be Equal")
	}
}

// Property: Equal is key equality over random nested clean expressions.
func TestQuickKeyInjective(t *testing.T) {
	build := func(seed []byte) *expr.Term {
		leaf := func(s byte) *expr.Term { return expr.Tensor(int(s%4), "") }
		t := leaf(seed[0])
		for _, s := range seed[1:] {
			switch s % 4 {
			case 0:
				t = expr.ConcatI(int64(s%3), t, leaf(s))
			case 1:
				t = expr.SliceI(t, int64(s%2), int64(s%5), int64(s%5+3))
			case 2:
				t = expr.Sum(t, leaf(s))
			case 3:
				t = expr.Transpose(t, sym.Const(int64(s%2)), sym.Const(int64(s%2+1)))
			}
		}
		return t
	}
	f := func(x, y []byte) bool {
		if len(x) == 0 || len(y) == 0 || len(x) > 8 || len(y) > 8 {
			return true
		}
		return equalIsKeyEquality(build(x), build(y))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
