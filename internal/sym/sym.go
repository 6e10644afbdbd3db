// Package sym implements the symbolic-scalar arithmetic that ENTANGLE
// uses in place of SMT-LIB (§5 of the paper, "Handling Symbolic
// Scalars"). Scalars appearing in computation graphs — slice offsets,
// concat dimensions, shard sizes — are linear integer expressions over
// named symbols. Equality is decided by normalization; inequality is
// decided against a set of user-provided assumptions using
// Fourier–Motzkin elimination, which is complete for the linear
// workloads the paper reports (only "simple operations (e.g., addition)
// are used on symbolic scalars").
package sym

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"entangle/internal/det"
)

// Symbol names a symbolic integer variable (e.g. a sequence length "S").
type Symbol string

// Expr is a linear integer expression: Const + Σ coeff[s]·s.
// The zero value is the constant 0. Expr values are immutable; all
// operations return fresh expressions.
type Expr struct {
	konst  int64
	coeffs map[Symbol]int64 // never contains zero-valued entries
}

// Const returns the expression for a constant integer.
func Const(v int64) Expr { return Expr{konst: v} }

// Var returns the expression for a single symbol with coefficient 1.
func Var(s Symbol) Expr {
	return Expr{coeffs: map[Symbol]int64{s: 1}}
}

// Zero reports whether e is the constant 0.
func (e Expr) Zero() bool { return e.konst == 0 && len(e.coeffs) == 0 }

// IsConst reports whether e contains no symbols, returning its value.
func (e Expr) IsConst() (int64, bool) {
	if len(e.coeffs) == 0 {
		return e.konst, true
	}
	return 0, false
}

// Symbols returns the symbols appearing in e, sorted.
func (e Expr) Symbols() []Symbol {
	out := make([]Symbol, 0, len(e.coeffs))
	for s := range e.coeffs {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (e Expr) clone() Expr {
	c := Expr{konst: e.konst}
	if len(e.coeffs) > 0 {
		c.coeffs = make(map[Symbol]int64, len(e.coeffs))
		for s, v := range e.coeffs {
			c.coeffs[s] = v
		}
	}
	return c
}

func (e *Expr) put(s Symbol, v int64) {
	if v == 0 {
		delete(e.coeffs, s)
		return
	}
	if e.coeffs == nil {
		e.coeffs = make(map[Symbol]int64)
	}
	e.coeffs[s] = v
}

// Add returns e + o.
func (e Expr) Add(o Expr) Expr {
	r := e.clone()
	r.konst += o.konst
	if len(o.coeffs) == 0 { // constant o: no symbol to walk (a range over even a nil map costs an iterator)
		return r
	}
	for s, v := range o.coeffs {
		r.put(s, r.coeffs[s]+v)
	}
	return r
}

// Sub returns e - o.
func (e Expr) Sub(o Expr) Expr { return e.Add(o.Neg()) }

// Neg returns -e.
func (e Expr) Neg() Expr { return e.MulConst(-1) }

// MulConst returns k·e.
func (e Expr) MulConst(k int64) Expr {
	if k == 0 {
		return Expr{}
	}
	r := Expr{konst: e.konst * k}
	if len(e.coeffs) == 0 {
		return r
	}
	for s, v := range e.coeffs {
		r.put(s, v*k)
	}
	return r
}

// AddConst returns e + k.
func (e Expr) AddConst(k int64) Expr {
	r := e.clone()
	r.konst += k
	return r
}

// Mul returns e·o if at least one side is constant; ok is false when
// both sides are symbolic (the product would be non-linear).
func (e Expr) Mul(o Expr) (Expr, bool) {
	if k, isC := o.IsConst(); isC {
		return e.MulConst(k), true
	}
	if k, isC := e.IsConst(); isC {
		return o.MulConst(k), true
	}
	return Expr{}, false
}

// DivConst returns e / k when every coefficient and the constant are
// exactly divisible by k; ok is false otherwise.
func (e Expr) DivConst(k int64) (Expr, bool) {
	if k == 0 {
		return Expr{}, false
	}
	if e.konst%k != 0 {
		return Expr{}, false
	}
	r := Expr{konst: e.konst / k}
	for s, v := range e.coeffs {
		if v%k != 0 {
			return Expr{}, false
		}
		r.put(s, v/k)
	}
	return r, true
}

// Equal reports structural (normalized) equality of two expressions.
func (e Expr) Equal(o Expr) bool {
	if e.konst != o.konst || len(e.coeffs) != len(o.coeffs) {
		return false
	}
	if len(e.coeffs) == 0 { // two constants
		return true
	}
	for s, v := range e.coeffs {
		if o.coeffs[s] != v {
			return false
		}
	}
	return true
}

// Hash returns a hash of e consistent with Equal: equal expressions
// hash equal, whatever order their symbols were added in.
func (e Expr) Hash() uint64 {
	h := det.Mix(uint64(e.konst))
	if len(e.coeffs) == 0 {
		return h
	}
	for s, c := range e.coeffs {
		// A sum, so the map's order cannot show.
		h += det.Mix(det.String(det.FNVOffset, string(s)) ^ det.Mix(uint64(c)))
	}
	return h
}

// Key returns a canonical string for use in hash-cons maps. Two
// expressions have the same key iff they are Equal.
func (e Expr) Key() string {
	return string(e.AppendKey(nil))
}

// AppendKey appends Key's bytes to buf and returns the extended slice —
// the allocation-free form for callers that intern or hash keys through
// a reused buffer (the e-graph hot path).
func (e Expr) AppendKey(buf []byte) []byte {
	buf = strconv.AppendInt(buf, e.konst, 10)
	if len(e.coeffs) == 0 {
		return buf
	}
	for _, s := range e.Symbols() {
		// Matches the historical fmt "%+d*%s" rendering.
		if c := e.coeffs[s]; c >= 0 {
			buf = append(buf, '+')
			buf = strconv.AppendInt(buf, c, 10)
			buf = append(buf, '*')
		} else {
			buf = strconv.AppendInt(buf, c, 10)
			buf = append(buf, '*')
		}
		buf = append(buf, s...)
	}
	return buf
}

// String renders e human-readably, e.g. "S/2" style forms are rendered
// as their linear normal form "1*S_half".
func (e Expr) String() string {
	if len(e.coeffs) == 0 {
		return fmt.Sprintf("%d", e.konst)
	}
	var parts []string
	for _, s := range e.Symbols() {
		c := e.coeffs[s]
		switch c {
		case 1:
			parts = append(parts, string(s))
		case -1:
			parts = append(parts, "-"+string(s))
		default:
			parts = append(parts, fmt.Sprintf("%d*%s", c, s))
		}
	}
	out := strings.Join(parts, "+")
	out = strings.ReplaceAll(out, "+-", "-")
	if e.konst != 0 {
		out = fmt.Sprintf("%s%+d", out, e.konst)
	}
	return out
}

// Eval substitutes concrete values for symbols. It returns an error if
// a symbol has no binding.
func (e Expr) Eval(env map[Symbol]int64) (int64, error) {
	v := e.konst
	for s, c := range e.coeffs {
		b, ok := env[s]
		if !ok {
			return 0, fmt.Errorf("sym: unbound symbol %q", s)
		}
		v += c * b
	}
	return v, nil
}

// Subst replaces symbol s with expression r throughout e.
func (e Expr) Subst(s Symbol, r Expr) Expr {
	c, ok := e.coeffs[s]
	if !ok {
		return e
	}
	out := e.clone()
	out.put(s, 0)
	return out.Add(r.MulConst(c))
}
