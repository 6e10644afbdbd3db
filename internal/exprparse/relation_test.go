package exprparse

import (
	"strings"
	"testing"

	"entangle/internal/graph"
	"entangle/internal/shape"
)

// TestParseRelationBoundsAList: a tensor may list maxRelationMappings
// expressions, duplicates counted, and no more.
func TestParseRelationBoundsAList(t *testing.T) {
	bs := graph.NewBuilder("gs", nil)
	a := bs.Input("A", shape.Of(4))
	gs, err := bs.Build()
	if err != nil {
		t.Fatal(err)
	}
	bd := graph.NewBuilder("gd", nil)
	bd.Input("A0", shape.Of(4))
	gd, err := bd.Build()
	if err != nil {
		t.Fatal(err)
	}
	list := make([]string, maxRelationMappings)
	for i := range list {
		list[i] = "A0"
	}
	ri, err := ParseRelation(map[string][]string{"A": list}, gs, gd)
	if err != nil {
		t.Fatalf("%d mappings: %v", len(list), err)
	}
	if got := ri.Get(a); len(got) != 1 || got[0].String() != "A0" {
		t.Fatalf("A maps to %v, want [A0]", got)
	}
	_, err = ParseRelation(map[string][]string{"A": append(list, "A0")}, gs, gd)
	if err == nil || !strings.Contains(err.Error(), `relation for "A"`) {
		t.Fatalf("%d mappings: err = %v, want a relation error for A", len(list)+1, err)
	}
}
