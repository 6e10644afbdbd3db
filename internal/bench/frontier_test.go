package bench

import (
	"fmt"
	"testing"

	"entangle/internal/core"
	"entangle/internal/det"
	"entangle/internal/fuzz"
	"entangle/internal/graph"
	"entangle/internal/relation"
)

// TestFrontierIsTransparent: the Listing-3 frontier and the newest-
// spellings-first ladder only prune. Over the zoo, the committed fuzz
// corpus and a slice of the seed-7 campaign every operator's verdict
// kind is the same as with the frontier off (every G_d node folded,
// every input spelling read), and so is whether an expectation holds.
func TestFrontierIsTransparent(t *testing.T) {
	kinds := func(gs, gd *graph.Graph, ri *relation.Relation, off bool) string {
		rep, err := core.NewChecker(core.Options{KeepGoing: true, DisableFrontier: off}).Check(gs, gd, ri)
		if rep == nil {
			return fmt.Sprintf("no report: %v", err)
		}
		out := ""
		for _, v := range rep.Verdicts {
			out += fmt.Sprintf("%s: %s\n", v.Op.Label, v.Kind)
		}
		return out
	}
	for _, c := range Zoo() {
		b, gs, gd, ri, err := c.Graphs()
		if err != nil {
			t.Fatal(err)
		}
		if c.Expectation {
			holds := func(off bool) bool {
				return core.NewChecker(core.Options{DisableFrontier: off}).
					CheckExpectation(gs, gd, ri, core.Expectation{Fs: b.ExpectFs, Fd: b.ExpectFd}) == nil
			}
			if on, off := holds(false), holds(true); on != off {
				t.Errorf("%s: the expectation holds %v with the frontier, %v without", c.Name, on, off)
			}
			continue
		}
		if on, off := kinds(gs, gd, ri, false), kinds(gs, gd, ri, true); on != off {
			t.Errorf("%s: verdicts with the frontier:\n%swithout:\n%s", c.Name, on, off)
		}
	}
	for _, cs := range append(corpusCases(t), campaignCases(t)...) {
		if on, off := kinds(cs.Gs, cs.Gd, cs.Env.Ri, false), kinds(cs.Gs, cs.Gd, cs.Env.Ri, true); on != off {
			t.Errorf("%s %v: verdicts with the frontier:\n%swithout:\n%s", cs.Plan, cs.Defect, on, off)
		}
	}
}

// campaignCases draws the first 40 plans of the seed-7 campaign (10
// under the race detector), each clean and with one injection per
// defect class that has sites in it, as core's reuse differential draws
// them.
func campaignCases(t *testing.T) []*fuzz.Case {
	t.Helper()
	plans := 40
	if raceEnabled {
		plans = 10
	}
	var out []*fuzz.Case
	master := det.NewRNG(7)
	for i := 0; i < plans; i++ {
		p := fuzz.RandomPlan(master, fuzz.Families, 4)
		cs, err := fuzz.Compose(p, nil)
		if err != nil {
			t.Fatalf("seed 7 plan %d: %v", i, err)
		}
		out = append(out, cs)
		for _, cl := range fuzz.Classes {
			if n := cs.Sites[cl]; n > 0 {
				d := &fuzz.Defect{Class: cl, Site: master.Intn(n)}
				ics, err := fuzz.Compose(p, d)
				if err != nil {
					t.Fatalf("seed 7 plan %d %s: %v", i, d, err)
				}
				out = append(out, ics)
			}
		}
	}
	return out
}
