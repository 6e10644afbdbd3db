package faultinject

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"entangle/internal/graph"
)

func testNode(label string) *graph.Node { return &graph.Node{Label: label} }

// TestDecideDeterministic: the decision is a pure function of
// (seed, rates, label) — repeated calls and equal configs agree.
func TestDecideDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, PanicRate: 0.2, StarveRate: 0.2}
	same := cfg
	decided := sha256.New()
	for i := 0; i < 200; i++ {
		label := fmt.Sprintf("L%d/op%d", i%8, i)
		if got, want := cfg.Decide(label), same.Decide(label); got != want {
			t.Fatalf("label %q: %v vs %v across configs", label, got, want)
		}
		if got, want := cfg.Decide(label), cfg.Decide(label); got != want {
			t.Fatalf("label %q: %v vs %v across calls", label, got, want)
		}
		fmt.Fprintf(decided, "%v;", cfg.Decide(label))
	}
	// Chaos tests replay by seed: a change to the hash or to the carving
	// would silently move every cell, so the decisions are pinned.
	if got := fmt.Sprintf("%x", decided.Sum(nil)); got != "b02d52530eaad8875e3f2e25c0984a0eb12e5ef8c46044ff63137c43d6671b2f" {
		t.Errorf("fault decisions moved: digest %s", got)
	}
	if unit(42, "L0/op0") != 0.2773833164479078 || unit(0, "") != 0.7636945250957473 {
		t.Errorf("unit moved: %v %v", unit(42, "L0/op0"), unit(0, ""))
	}
}

// TestDecideSeedSensitivity: different seeds give different fault
// sets (overwhelmingly likely over 200 labels at these rates).
func TestDecideSeedSensitivity(t *testing.T) {
	a := Config{Seed: 1, PanicRate: 0.3}
	b := Config{Seed: 2, PanicRate: 0.3}
	differ := false
	for i := 0; i < 200 && !differ; i++ {
		label := fmt.Sprintf("op%d", i)
		differ = a.Decide(label) != b.Decide(label)
	}
	if !differ {
		t.Fatal("seeds 1 and 2 made identical decisions on 200 labels")
	}
}

// TestRateCarving: rates carve the unit interval — observed fault
// frequencies over many labels land near the configured rates, for
// both fault families, and zero rates inject nothing.
func TestRateCarving(t *testing.T) {
	const n = 4000
	ops := map[Fault]int{}
	msgs := map[NetFault]int{}
	cfg := Config{Seed: 7, PanicRate: 0.3, StarveRate: 0.3}
	net := NetConfig{Seed: 7, DropRate: 0.3, CorruptRate: 0.3}
	for i := 0; i < n; i++ {
		ops[cfg.Decide(fmt.Sprintf("op%d", i))]++
		msgs[net.Decide(fmt.Sprintf("msg%d", i))]++
	}
	near := func(name string, count int, want float64) {
		if frac := float64(count) / n; frac < want-0.05 || frac > want+0.05 {
			t.Errorf("%s frequency %.3f, want ≈%.2f (ops %v, messages %v)", name, frac, want, ops, msgs)
		}
	}
	near("panic", ops[Panic], 0.3)
	near("starve", ops[Starve], 0.3)
	near("none", ops[None], 0.4)
	near("drop", msgs[NetDrop], 0.3)
	near("corrupt", msgs[NetCorrupt], 0.3)
	near("net none", msgs[NetNone], 0.4)

	for i := 0; i < 500; i++ {
		label := fmt.Sprintf("op%d", i)
		if f := (Config{Seed: 7}).Decide(label); f != None {
			t.Fatalf("zero-rate config decided %v", f)
		}
		if f := (NetConfig{Seed: 7}).Decide(label); f != NetNone {
			t.Fatalf("zero-rate net config decided %v", f)
		}
	}
}

// TestPreOpStarveBudget: a starved operator gets the starved budget and
// an untouched one keeps the caller's.
func TestPreOpStarveBudget(t *testing.T) {
	node := testNode("victim")
	o := Config{Seed: 3, StarveRate: 1.0}.PreOp(node)
	if o == nil || o.MaxIters != starveMaxIters || o.MaxNodes != starveMaxNodes {
		t.Fatalf("starved override wrong: %+v", o)
	}
	if o := (Config{Seed: 3}).PreOp(node); o != nil {
		t.Fatalf("no-fault PreOp must return nil, got %+v", o)
	}
}

// TestPreOpPanics: a Panic decision panics with a message naming the
// operator.
func TestPreOpPanics(t *testing.T) {
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("PreOp did not panic")
		}
		if s, ok := rec.(string); !ok || s == "" {
			t.Fatalf("panic value %v, want descriptive string", rec)
		}
	}()
	Config{Seed: 9, PanicRate: 1.0}.PreOp(testNode("boom"))
}
