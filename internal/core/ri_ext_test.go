package core_test

import (
	"context"
	"strings"
	"testing"

	"entangle/internal/bench"
	"entangle/internal/core"
)

// TestZooRefusesRiOnProducedTensor: R_i relates G_s inputs only, and a
// cache key spells R_i for nothing else. Every zoo case, given one extra
// R_i entry on a tensor its G_s produces, is refused as invalid input
// naming that tensor, whatever the cache holds.
func TestZooRefusesRiOnProducedTensor(t *testing.T) {
	for _, c := range bench.Zoo() {
		_, gs, gd, ri, err := c.Graphs()
		if err != nil {
			t.Fatal(err)
		}
		extra := ri.Clone()
		t0 := gs.Tensor(gs.Nodes[len(gs.Nodes)/2].Outputs[0])
		extra.Add(t0.ID, ri.Get(gs.Inputs[0])[0])
		report, err := core.NewChecker(core.Options{Workers: 1}).Check(gs, gd, extra)
		switch {
		case report != nil:
			t.Errorf("%s: an R_i entry on %q was checked, not refused", c.Name, t0.Name)
		case err == nil || !strings.Contains(err.Error(), `"`+t0.Name+`"`):
			t.Errorf("%s: the refusal does not name %q: %v", c.Name, t0.Name, err)
		case core.Classify(context.Background(), nil, err) != core.Invalid:
			t.Errorf("%s: the refusal is not invalid input: %v", c.Name, err)
		}
	}
}
