package lint

import (
	"os"
	"testing"

	"entangle/internal/graph"
	"entangle/internal/shape"
	"entangle/internal/sym"
)

func loadTestGraph(t *testing.T, path string) *graph.Graph {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := graph.Read(f)
	if err != nil {
		t.Fatalf("reading %s: %v", path, err)
	}
	return g
}

// TestGraphBadCorpus pins the report for the seeded bad graph: a
// duplicate label, an unused collective output, a dead node, and an
// unread input.
func TestGraphBadCorpus(t *testing.T) {
	g := loadTestGraph(t, "testdata/bad-graph.json")
	ds := Graph(g)
	findDiag(t, ds, CheckGraphDuplicateLabel, `node "blk" (mul)`)
	findDiag(t, ds, CheckGraphUnusedTensor, "f")
	findDiag(t, ds, CheckGraphDeadNode, `node "dead" (add)`)
	findDiag(t, ds, CheckGraphUnusedInput, "unused_in")
	// The dead node's own unused output is implied by the dead-node
	// finding, not reported separately.
	noDiag(t, ds, CheckGraphUnusedTensor, "g")
	checkGolden(t, "bad-graph-golden.txt", ds)
}

func TestGraphClean(t *testing.T) {
	g, _ := smallGraph(t)
	if ds := Graph(g); len(ds) != 0 {
		t.Fatalf("clean graph produced findings: %v", ds)
	}
}

// smallGraph builds a minimal valid graph (one add over two 4×4
// inputs) and returns it with the sum tensor's ID.
func smallGraph(t *testing.T) (*graph.Graph, graph.TensorID) {
	t.Helper()
	b := graph.NewBuilder("small", sym.NewContext())
	sh := shape.Shape{sym.Const(4), sym.Const(4)}
	a := b.Input("a", sh)
	c := b.Input("b", sh)
	sum := b.Op("add", "sum", "sum_out", "", nil, a, c)
	b.Output(sum)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, sum
}
