package core

import (
	"testing"

	"entangle/internal/fingerprint"
	"entangle/internal/graph"
	"entangle/internal/relation"
)

// opKeys is the verdict-cache key of every G_s operator, in topological
// order, as a checker with opts (a cache set) derives and probes them.
func opKeys(t testing.TB, opts Options, gs, gd *graph.Graph, ri *relation.Relation) []fingerprint.Hash {
	t.Helper()
	order, err := gs.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	gdOrder, err := gd.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	opts = opts.withDefaults()
	return newKeyDerivation(gd, gdOrder, &opts).side(gs, ri, order).keys
}
