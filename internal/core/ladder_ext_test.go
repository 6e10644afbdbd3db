package core_test

import (
	"slices"
	"sort"
	"testing"

	"entangle/internal/bench"
	"entangle/internal/core"
	"entangle/internal/graph"
	"entangle/internal/lemmas"
)

// TestZooLadder reads the ladder over the whole zoo: no operator of a
// model that refines needs the whole-G_d rung, and the operators that
// widen to every spelling are the known few (logged under -v), SeedMoE's
// router among them.
func TestZooLadder(t *testing.T) {
	widened := map[string][]string{}
	for _, c := range bench.Zoo() {
		b, gs, gd, ri, err := c.Graphs()
		if err != nil {
			t.Fatal(err)
		}
		// An operator widened when a search at RungAll follows one at
		// RungNewest; with no dominated input mapping it starts at RungAll.
		var whole, all []string
		last := map[string]int{}
		opts := core.WithRungLog(core.Options{Registry: lemmas.Default(), Workers: 1}, func(v *graph.Node, rung int) {
			prev, seen := last[v.Label]
			switch {
			case rung == core.RungWhole:
				whole = append(whole, v.Label)
			case rung == core.RungAll && seen && prev == core.RungNewest:
				all = append(all, v.Label)
			}
			last[v.Label] = rung
		})
		if c.Expectation {
			err = core.NewChecker(opts).CheckExpectation(gs, gd, ri, core.Expectation{Fs: b.ExpectFs, Fd: b.ExpectFd})
		} else {
			_, err = core.NewChecker(opts).Check(gs, gd, ri)
		}
		if err == nil && len(whole) > 0 {
			t.Errorf("%s refines, but searched the whole G_d for %v", c.Name, whole)
		}
		if len(all) > 0 {
			widened[c.Name] = all
		}
	}
	names := make([]string, 0, len(widened))
	for n := range widened {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t.Logf("%s: %v", n, widened[n])
	}
	if !slices.Contains(widened["ByteDance-Fwd(2)"], "L0/router") {
		t.Errorf("ByteDance-Fwd(2)'s L0/router did not widen: %v", widened["ByteDance-Fwd(2)"])
	}
}
