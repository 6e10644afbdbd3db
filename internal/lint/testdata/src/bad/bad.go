// Package bad is the deliberately hazardous corpus for the Layer-3
// source analyzer: each function demonstrates one finding (or one
// non-finding) the tests assert on. It lives under testdata so the go
// tool never builds it.
package bad

import "sort"

type classID int

type egraphStub struct {
	classes map[classID][]classID
}

func (g *egraphStub) Union(a, b classID) bool { return a != b }

// unionInMapOrder mutates the e-graph in map iteration order — the
// hazard the analyzer exists to catch.
func (g *egraphStub) unionInMapOrder() {
	for id := range g.classes {
		g.Union(id, id+1)
	}
}

// collectUnsorted leaks map order through the returned slice.
func (g *egraphStub) collectUnsorted() []classID {
	var out []classID
	for id := range g.classes {
		out = append(out, id)
	}
	return out
}

// collectSorted is the fixed idiom: collect, then sort. No finding.
func (g *egraphStub) collectSorted() []classID {
	var out []classID
	for id := range g.classes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// suppressed documents a deliberately order-insensitive union.
func (g *egraphStub) suppressed() {
	//lint:ignore source-map-range-mutation all pairs land in one class regardless of order
	for id := range g.classes {
		g.Union(id, 0)
	}
}

// overSlice ranges a slice: never a finding.
func (g *egraphStub) overSlice(ids []classID) {
	for _, id := range ids {
		g.Union(id, 0)
	}
}

type eNode struct{ kids []classID }

func (g *egraphStub) InstantiateOp(n *eNode) (classID, bool) { return classID(len(n.kids)), true }

// insertInMapOrder inserts nodes through the one path a rule has, in
// map iteration order: which class ID each new node gets varies across
// runs.
func (g *egraphStub) insertInMapOrder() {
	for id := range g.classes {
		g.InstantiateOp(&eNode{kids: []classID{id}})
	}
}
