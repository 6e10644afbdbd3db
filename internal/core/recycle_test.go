package core

import (
	"context"
	"runtime"
	"testing"

	"entangle/internal/egraph"
	"entangle/internal/graph"
	"entangle/internal/models"
)

// TestRecycledCheckAllocs is the allocation ratchet for the recycled
// per-operator e-graph: one fixed operator of the zoo, checked over and
// over on the graph its previous check released, must stay under the
// ceilings: 402 allocations and 23,224 bytes a check, plus a tenth,
// since rule applications draw their buffers from the graph's lemma
// scratch, kid and parent lists come from slabs it keeps, shapes from a
// dense table and heads from a table of their own (1,445 and 60,360
// before, under ceilings of 1,620 and 68,000; 1,567 allocations and
// 64 KB a check when substitutions, match records, class node lists,
// memo entries and the applied set became pointer-free slabs the graph
// keeps; 2,695 and 219 KB before
// that, when parent entries became arena indexes and variadic rules
// declared their kid requirements; 3,252 and 284 KB when recycling
// landed, when building the graph anew each time took 3,456 and 484 KB).
// Both are exact counts, not timings, so the gate is safe in CI; a rise
// means some scratch stopped surviving Release, or something new
// allocates per check.
func TestRecycledCheckAllocs(t *testing.T) {
	if raceEnabled || egraph.InvariantChecks {
		t.Skip("the race detector and the invariant audits allocate on their own account")
	}
	const (
		label        = "L0/res2" // GPT, TP 2 + SP, one layer: 10 iterations
		allocCeiling = 445
		byteCeiling  = 25_600
	)
	b, err := models.GPT(models.Options{TP: 2, SP: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run, _, err := NewChecker(Options{Workers: 1}).checkContext(ctx, b.Gs, b.Gd, b.Ri, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var v *graph.Node
	for _, n := range run.order {
		if n.Label == label {
			v = n
		}
	}
	if v == nil {
		t.Fatalf("GPT has no operator %q", label)
	}
	check := func() {
		if st, _, err := run.processOp(ctx, v, baseBudget()); err != nil || st.Matches == 0 {
			t.Fatalf("checking %s: %d matches, %v", label, st.Matches, err)
		}
	}
	check() // leaves its graph, grown to this operator's size, on the free list

	// Each reading is logged (go test -v) and fails the test over its ceiling.
	report := func(over bool) func(string, ...any) {
		if over {
			return t.Errorf
		}
		return t.Logf
	}
	allocs := testing.AllocsPerRun(20, check)
	report(allocs > allocCeiling)("%s: %.0f allocations per check on a recycled graph, ceiling %d", label, allocs, allocCeiling)
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		check()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	report(bytes > byteCeiling)("%s: %d bytes allocated per check on a recycled graph, ceiling %d", label, bytes, byteCeiling)
}
