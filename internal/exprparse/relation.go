package exprparse

import (
	"fmt"
	"strings"

	"entangle/internal/expr"
	"entangle/internal/graph"
	"entangle/internal/relation"
)

// ParseRelation builds a clean input relation from its interchange
// form: a map from G_s tensor names to textual clean expressions over
// G_d tensor names. This is the format of the CLI's -rel sidecar file
// and of the daemon's /v1/check "rel" field, so both front ends share
// one parser (and one set of error messages). A tensor may list at most
// maxRelationMappings expressions.
func ParseRelation(raw map[string][]string, gs, gd *graph.Graph) (*relation.Relation, error) {
	ri := relation.New()
	for gsName, exprs := range raw {
		t, ok := gs.TensorByName(gsName)
		if !ok {
			return nil, fmt.Errorf("G_s has no tensor %q", gsName)
		}
		if len(exprs) > maxRelationMappings {
			return nil, fmt.Errorf("relation for %q: %d mappings, more than the %d a tensor may have", gsName, len(exprs), maxRelationMappings)
		}
		for _, src := range exprs {
			term, err := Parse(strings.TrimSpace(src), GdLeafFn(gd))
			if err != nil {
				return nil, fmt.Errorf("relation for %q: %v", gsName, err)
			}
			ri.Add(t.ID, term)
		}
	}
	return ri, nil
}

// maxRelationMappings bounds one tensor's list. Each mapping added to a
// relation is deduplicated by a scan of those before it, so the bound
// keeps a list's cost small whatever a request body holds. The checker
// keeps at most 16 mappings of a tensor it derives, sized for a
// parallelism degree below that, so no list it can use nears the bound.
const maxRelationMappings = 64

// GdLeafFn resolves tensor names against gd, producing G_d-space
// leaves — the LeafFn for parsing relation and expectation right-hand
// sides.
func GdLeafFn(gd *graph.Graph) LeafFn {
	return func(name string) (*expr.Term, error) {
		t, ok := gd.TensorByName(name)
		if !ok {
			return nil, fmt.Errorf("G_d has no tensor %q", name)
		}
		return relation.GdLeaf(t), nil
	}
}

// GsLeafFn resolves tensor names against gs, producing G_s-space
// leaves — the LeafFn for parsing expectation left-hand sides.
func GsLeafFn(gs *graph.Graph) LeafFn {
	return func(name string) (*expr.Term, error) {
		t, ok := gs.TensorByName(name)
		if !ok {
			return nil, fmt.Errorf("G_s has no tensor %q", name)
		}
		return relation.GsLeaf(t), nil
	}
}
