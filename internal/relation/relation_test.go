package relation

import (
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"entangle/internal/expr"
	"entangle/internal/graph"
	"entangle/internal/shape"
)

func twoGraphs(t *testing.T) (*graph.Graph, *graph.Graph) {
	t.Helper()
	bs := graph.NewBuilder("gs", nil)
	a := bs.Input("A", shape.Of(4, 4))
	y := bs.Unary("act", "gelu", a)
	bs.Output(y)
	gs := bs.MustBuild()

	bd := graph.NewBuilder("gd", nil)
	a0 := bd.Input("A0", shape.Of(2, 4))
	a1 := bd.Input("A1", shape.Of(2, 4))
	y0 := bd.Unary("r0/act", "gelu", a0)
	y1 := bd.Unary("r1/act", "gelu", a1)
	bd.Output(y0, y1)
	return gs, bd.MustBuild()
}

func TestLeafSpaces(t *testing.T) {
	_, gd := twoGraphs(t)
	a0, _ := gd.TensorByName("A0")
	leaf := GdLeaf(a0)
	if !IsGd(leaf.TID) {
		t.Fatal("GdLeaf must land in the G_d space")
	}
	if GdTensorID(leaf.TID) != a0.ID {
		t.Fatal("round trip broken")
	}
	if IsGd(3) {
		t.Fatal("small ids are G_s space")
	}
}

func TestAddDedupAndOrder(t *testing.T) {
	gs, gd := twoGraphs(t)
	aT, _ := gs.TensorByName("A")
	a0, _ := gd.TensorByName("A0")
	a1, _ := gd.TensorByName("A1")
	r := New()
	big := expr.ConcatI(0, GdLeaf(a0), GdLeaf(a1))
	if !r.Add(aT.ID, big) {
		t.Fatal("first add should succeed")
	}
	if r.Add(aT.ID, big) {
		t.Fatal("duplicate must be ignored")
	}
	small := GdLeaf(a0)
	r.Add(aT.ID, small)
	got := r.Get(aT.ID)
	if len(got) != 2 || got[0].Size() > got[1].Size() {
		t.Fatalf("mappings must be sorted simplest-first: %v", got)
	}
	if r.Len() != 1 || !r.Has(aT.ID) {
		t.Fatal("bookkeeping wrong")
	}
}

func TestComplete(t *testing.T) {
	gs, gd := twoGraphs(t)
	aT, _ := gs.TensorByName("A")
	yT, _ := gs.TensorByName("act.out")
	a0, _ := gd.TensorByName("A0")
	a1, _ := gd.TensorByName("A1")
	r := New()
	r.Add(aT.ID, expr.ConcatI(0, GdLeaf(a0), GdLeaf(a1)))
	if r.Complete([]graph.TensorID{aT.ID, yT.ID}) {
		t.Fatal("missing output must make relation incomplete")
	}
	if !r.Complete([]graph.TensorID{aT.ID}) {
		t.Fatal("a mapped tensor must make the relation complete")
	}
}

func TestCloneIndependence(t *testing.T) {
	gs, gd := twoGraphs(t)
	aT, _ := gs.TensorByName("A")
	a0, _ := gd.TensorByName("A0")
	r := New()
	r.Add(aT.ID, GdLeaf(a0))
	c := r.Clone()
	a1, _ := gd.TensorByName("A1")
	c.Add(aT.ID, GdLeaf(a1))
	if len(r.Get(aT.ID)) != 1 || len(c.Get(aT.ID)) != 2 {
		t.Fatal("clone not independent")
	}

	// Each side's adds stay its own, in either direction, even where
	// the original's list has room to insert in place.
	big := expr.ConcatI(0, GdLeaf(a0), GdLeaf(a1))
	r = New()
	r.AddAll(1, []*expr.Term{big, big}) // room for two, one kept
	c = r.Clone()
	r.Add(1, GdLeaf(a0)) // smaller: it goes first
	if got := c.Get(1); len(got) != 1 || got[0] != big {
		t.Fatalf("an add to the original changed the clone: %v", got)
	}
	c.Add(1, GdLeaf(a1))
	if got := r.Get(1); len(got) != 2 || !got[0].Equal(GdLeaf(a0)) || got[1] != big {
		t.Fatalf("an add to the clone changed the original: %v", got)
	}
}

func TestRender(t *testing.T) {
	gs, gd := twoGraphs(t)
	aT, _ := gs.TensorByName("A")
	a0, _ := gd.TensorByName("A0")
	r := New()
	r.Add(aT.ID, GdLeaf(a0))
	out := r.Render(gs)
	if !strings.Contains(out, "A = A0") {
		t.Fatalf("render output %q", out)
	}
}

// TestConcurrentAddGet exercises the relation under the access pattern
// of the wavefront scheduler: many goroutines adding mappings for
// their own tensors while reading others' concurrently. Run with
// -race; it also checks that slices returned by Get are immune to
// later Adds (copy-on-read).
func TestConcurrentAddGet(t *testing.T) {
	r := New()
	base := expr.Tensor(GdOffset+0, "D0")
	r.Add(0, base)
	snapshot := r.Get(0)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := graph.TensorID(w%4 + 1)
				term := expr.ConcatI(0, expr.Tensor(GdOffset+w*1000+i, "x"), base)
				r.Add(id, term)
				r.AddAll(0, []*expr.Term{base}) // duplicate, must be ignored
				_ = r.Get(id)
				_ = r.Has(id)
				_ = r.Len()
			}
		}(w)
	}
	wg.Wait()

	if len(snapshot) != 1 || !snapshot[0].Equal(base) {
		t.Fatalf("snapshot mutated by concurrent adds: %v", snapshot)
	}
	if got := r.Get(0); len(got) != 1 {
		t.Fatalf("duplicate adds not deduped: %d mappings", len(got))
	}
	for id := 1; id <= 4; id++ {
		if got := len(r.Get(graph.TensorID(id))); got != 400 {
			t.Fatalf("tensor %d: %d mappings, want 400", id, got)
		}
	}
}

// TestGetReturnsCopy pins the copy-on-read contract on the sequential
// path too: sorting inside a later Add must not reorder a slice a
// caller already holds.
func TestGetReturnsCopy(t *testing.T) {
	r := New()
	big := expr.ConcatI(0, expr.Tensor(GdOffset, "a"), expr.Tensor(GdOffset+1, "b"))
	r.Add(7, big)
	held := r.Get(7)
	r.Add(7, expr.Tensor(GdOffset+2, "c")) // smaller, sorts first internally
	if len(held) != 1 || !held[0].Equal(big) {
		t.Fatalf("held slice changed under a later Add: %v", held)
	}
	got := r.Get(7)
	if len(got) != 2 || got[0].Size() > got[1].Size() {
		t.Fatalf("mappings not simplest-first: %v", got)
	}
}

// TestAddOrderMatchesStableSort drives random add sequences through
// addLocked's insertion rule and through the rule it replaced — append,
// then a stable sort of the whole list by size — and compares Get for
// every tensor: same terms, same order, duplicates dropped alike.
func TestAddOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Terms of sizes 0..4 with many ties and repeats: sums nested to a
	// random depth over a handful of leaves.
	term := func() *expr.Term {
		t := expr.Tensor(GdOffset+rng.Intn(4), "")
		for depth := rng.Intn(5); depth > 0; depth-- {
			t = expr.Sum(t, expr.Tensor(GdOffset+rng.Intn(4), ""))
		}
		return t
	}
	for seq := 0; seq < 1000; seq++ {
		r := New()
		old := map[graph.TensorID][]*expr.Term{}
		for n := rng.Intn(40); n > 0; n-- {
			id, m := graph.TensorID(rng.Intn(3)), term()
			fresh := true
			for _, have := range old[id] {
				fresh = fresh && !have.Equal(m)
			}
			if r.Add(id, m) != fresh {
				t.Fatalf("sequence %d: Add(%d, %s) = %v", seq, id, m, !fresh)
			}
			if fresh {
				lst := append(old[id], m)
				sort.SliceStable(lst, func(i, j int) bool { return lst[i].Size() < lst[j].Size() })
				old[id] = lst
			}
		}
		for id := graph.TensorID(0); id < 3; id++ {
			got := r.Get(id)
			if len(got) != len(old[id]) {
				t.Fatalf("sequence %d tensor %d: %d mappings, want %d", seq, id, len(got), len(old[id]))
			}
			for i := range got {
				if got[i] != old[id][i] {
					t.Fatalf("sequence %d tensor %d: mapping %d is %s, the stable sort puts %s there", seq, id, i, got[i], old[id][i])
				}
			}
		}
	}
}
