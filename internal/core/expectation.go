package core

import (
	"context"
	"errors"
	"fmt"

	"entangle/internal/expr"
	"entangle/internal/graph"
	"entangle/internal/relation"
)

// Expectation expresses a user's expected refinement (§4.4): Fs is an
// expression over G_s output tensors (G_s-space leaves) and Fd an
// expression over G_d output tensors (G_d-space leaves, see
// relation.GdLeaf). ENTANGLE checks Fs(O(G_s)) = Fd(O(G_d)).
type Expectation struct {
	Fs *expr.Term
	Fd *expr.Term
}

// ExpectationError reports a violated user expectation.
type ExpectationError struct {
	Expect Expectation
	// Mappings renders what ENTANGLE could map f_s to, for debugging.
	Mappings string
}

func (e *ExpectationError) Error() string {
	msg := fmt.Sprintf("user expectation violated: %s is not equal to %s", e.Expect.Fs, e.Expect.Fd)
	if e.Mappings != "" {
		msg += "\nfound mappings:\n" + e.Mappings
	}
	return msg
}

// CheckExpectation implements §4.4: it splices f_s into a clone of G_s
// and f_d into a clone of G_d as their sole outputs, re-runs the
// refinement check, and demands that the resulting output relation
// contain the identity mapping f_s = f_d. It is CheckExpectationContext
// with a background context.
func (c *Checker) CheckExpectation(gs, gd *graph.Graph, ri *relation.Relation, e Expectation) error {
	return c.CheckExpectationContext(context.Background(), gs, gd, ri, e)
}

// CheckExpectationContext is CheckExpectation under a context, which
// cancels the re-run check as it cancels CheckContext: the error then
// wraps ctx.Err(), and Classify reads it as Cancelled.
func (c *Checker) CheckExpectationContext(ctx context.Context, gs, gd *graph.Graph, ri *relation.Relation, e Expectation) error {
	gs2 := gs.Clone()
	fsOut, err := appendTerm(gs2, e.Fs, "expectation/fs", func(tid int) (graph.TensorID, error) {
		if relation.IsGd(tid) {
			return 0, fmt.Errorf("core: expectation f_s references a G_d tensor")
		}
		return graph.TensorID(tid), nil
	})
	if err != nil {
		return err
	}
	gs2.Outputs = []graph.TensorID{fsOut}

	gd2 := gd.Clone()
	fdOut, err := appendTerm(gd2, e.Fd, "expectation/fd", func(tid int) (graph.TensorID, error) {
		if !relation.IsGd(tid) {
			return 0, fmt.Errorf("core: expectation f_d references a G_s tensor")
		}
		return relation.GdTensorID(tid), nil
	})
	if err != nil {
		return err
	}
	gd2.Outputs = []graph.TensorID{fdOut}

	report, err := c.CheckContext(ctx, gs2, gd2, ri)
	if err != nil {
		var ie *InconclusiveError
		if ctx.Err() != nil || errors.As(err, &ie) {
			return err // cancelled or out of budget: the expectation is neither shown nor refuted
		}
		var re *RefinementError
		if errors.As(err, &re) {
			// No relation between f_s and f_d exists at all — a
			// fortiori the identity the user expects does not hold.
			return &ExpectationError{Expect: e, Mappings: "  (no clean relation: " + re.Error() + ")"}
		}
		return err
	}
	fdLeaf := relation.GdLeaf(gd2.Tensor(fdOut))
	for _, m := range report.OutputRelation.Get(fsOut) {
		if m.Equal(fdLeaf) {
			return nil // identity mapping found: expectation holds
		}
	}
	return &ExpectationError{Expect: e, Mappings: report.OutputRelation.Render(gs2)}
}

// appendTerm splices an expression tree into g as graph nodes,
// resolving leaves through mapLeaf, and returns the root tensor.
func appendTerm(g *graph.Graph, t *expr.Term, label string, mapLeaf func(int) (graph.TensorID, error)) (graph.TensorID, error) {
	var n int
	var build func(t *expr.Term) (graph.TensorID, error)
	build = func(t *expr.Term) (graph.TensorID, error) {
		if t.IsLeaf() {
			id, err := mapLeaf(t.TID)
			if err != nil {
				return 0, err
			}
			if int(id) < 0 || int(id) >= len(g.Tensors) {
				return 0, fmt.Errorf("core: expectation references missing tensor %d", t.TID)
			}
			return id, nil
		}
		inputs := make([]graph.TensorID, len(t.Args))
		for i, a := range t.Args {
			id, err := build(a)
			if err != nil {
				return 0, err
			}
			inputs[i] = id
		}
		n++
		return g.Append(t.Op, fmt.Sprintf("%s/%d", label, n),
			fmt.Sprintf("%s.out%d", label, n), t.Str, t.Ints, inputs...)
	}
	return build(t)
}
