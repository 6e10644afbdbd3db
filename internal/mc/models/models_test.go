package models

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"entangle/internal/mc"
	"entangle/internal/vcache"
)

// TestAllModelsCleanAtCIScope is the gate make verify and CI run: an
// exhaustive exploration of every healthy model at the ci scope must
// visit its entire bounded state space and report zero violations.
func TestAllModelsCleanAtCIScope(t *testing.T) {
	ms, err := ForScope("ci")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 7 {
		t.Fatalf("ci scope has %d models, want 7", len(ms))
	}
	for _, m := range ms {
		res, err := mc.Explore(m, mc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			t.Errorf("%s:\n%s", m.Name(), res.Violation)
		}
		if res.Truncated {
			t.Errorf("%s: ci scope must be exhaustible, got truncated at %d states", m.Name(), res.States)
		}
		if res.States < 20 {
			t.Errorf("%s: only %d states — the model degenerated", m.Name(), res.States)
		}
		t.Logf("%s: %d states, %d transitions, depth %d in %v",
			m.Name(), res.States, res.Transitions, res.Depth, res.Duration)
	}
}

// TestSmallScopeClean keeps the quick-iteration scope honest too.
func TestSmallScopeClean(t *testing.T) {
	ms, err := ForScope("small")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		res, err := mc.Explore(m, mc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			t.Errorf("%s:\n%s", m.Name(), res.Violation)
		}
	}
}

// TestLargeScopeClean explores the widest preset (~170k states total);
// skipped under -short.
func TestLargeScopeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("large scope takes a few seconds")
	}
	ms, err := ForScope("large")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		res, err := mc.Explore(m, mc.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			t.Errorf("%s:\n%s", m.Name(), res.Violation)
		}
		if res.Truncated {
			t.Errorf("%s: truncated at %d states", m.Name(), res.States)
		}
		t.Logf("%s: %d states, %d transitions, depth %d in %v",
			m.Name(), res.States, res.Transitions, res.Depth, res.Duration)
	}
}

// TestKnownBugModelFindsMinimalDeadlock is the proof that the checker
// finds real violations: the pre-fix panic-accounting bug must
// deterministically reproduce as a deadlock with this exact minimal
// trace — one worker panics away on op 1 while the other drains the
// independent chain, and the pool hangs with op 3 forever pending.
func TestKnownBugModelFindsMinimalDeadlock(t *testing.T) {
	const golden = `  0. ·            ops=---- run=[] idle=2 failures=0
  1. pick         ops=---- run=[0] idle=1 failures=0
  2. pick         ops=---- run=[0 1] idle=0 failures=0
  3. op0/refined  ops=+--- run=[1] idle=1 failures=0
  4. pick         ops=+--- run=[1 2] idle=0 failures=0
  5. op1/panic    ops=+--- run=[2] idle=0 failures=1 wedged=[1]
  6. op2/refined  ops=+-+- run=[] idle=1 failures=1 wedged=[1]
`
	res, err := mc.Explore(KnownBug(), mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("the known-bug model found no violation: the checker is broken")
	}
	if res.Violation.Invariant != mc.DeadlockInvariant {
		t.Fatalf("wrong violation kind %q:\n%s", res.Violation.Invariant, res.Violation)
	}
	if got := len(res.Violation.Trace); got != 7 {
		t.Fatalf("counterexample not minimal: %d trace entries\n%s", got, res.Violation.Trace.Render())
	}
	if got := res.Violation.Trace.Render(); got != golden {
		t.Fatalf("minimal counterexample drifted:\n%s\nwant:\n%s", got, golden)
	}
}

// TestFixedWavefrontHasNoDeadlock is the other half of the regression:
// the same DAG, workers, and failure budget with the shipped (fixed)
// accounting — Buggy off, so a panic resolves the op as failed — must
// be violation-free.
func TestFixedWavefrontHasNoDeadlock(t *testing.T) {
	cfg := WavefrontConfig{
		Name:        "known-bug-fixed",
		DAG:         TwoChainsDAG(),
		Workers:     2,
		MaxFailures: 1,
		KeepGoing:   true,
	}
	res, err := mc.Explore(NewWavefront(cfg), mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("fixed accounting still deadlocks:\n%s", res.Violation)
	}
}

// TestWavefrontCatchesBrokenTaint plants a protocol bug unrelated to
// the known-bug model — an undersized failure cone — and checks the
// taint-exact invariant catches it, so the invariants are known to
// have teeth beyond deadlock detection.
func TestWavefrontCatchesBrokenTaint(t *testing.T) {
	m := NewWavefront(WavefrontConfig{
		Name: "broken-taint", DAG: DiamondDAG(), Workers: 2, MaxFailures: 1, KeepGoing: true,
	})
	res, err := mc.Explore(brokenTaint{m}, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil || res.Violation.Invariant != "taint-exact-cone" {
		t.Fatalf("undersized cone not caught: %+v", res.Violation)
	}
}

// brokenTaint mislabels a skipped op as OK in the invariant's view by
// lying about the DAG: it reports diamond op 3 as parentless, so the
// independently computed cone misses it.
type brokenTaint struct{ *Wavefront }

func (b brokenTaint) Invariants() []mc.Invariant {
	lie := NewWavefront(WavefrontConfig{
		Name: "lie", DAG: DAG{Name: "lie", Parents: [][]int{nil, {0}, {0}, nil}},
		Workers: 2, MaxFailures: 1, KeepGoing: true,
	})
	return lie.Invariants()
}

// TestVCacheModelUsesRealCodec pins the model to the production byte
// format: the model's precomputed clean bytes must decode through the
// real reader, and every damaged variant must be rejected by it.
func TestVCacheModelUsesRealCodec(t *testing.T) {
	m, err := NewVCache(VCacheConfig{Name: "codec", Keys: 2, Writers: 4, MaxCorruptions: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k := range m.clean {
		for v := range m.clean[k] {
			e, err := vcache.DecodeEntry(m.keys[k], m.clean[k][v])
			if err != nil {
				t.Fatalf("clean bytes k=%d v=%d do not decode: %v", k, v, err)
			}
			if e.Verdict() != m.entries[k][v].Verdict() {
				t.Fatalf("k=%d v=%d verdict drifted: %s", k, v, e.Verdict())
			}
			for mi, mode := range m.modes {
				if _, err := vcache.DecodeEntry(m.keys[k], m.damaged[k][v][mi]); err == nil {
					t.Fatalf("damage mode %s not rejected for k=%d v=%d", mode, k, v)
				}
			}
		}
	}
}

// TestSimulateCIScope runs the seeded random-walk mode over every ci
// model — `entangle-mc -sim -seed 42` — and pins the walks to PR 11's:
// deep sampled executions must stay violation-free, and a seed in a bug
// report must keep replaying the same trace.
func TestSimulateCIScope(t *testing.T) {
	ms, err := ForScope("ci")
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string][3]int{ // steps, distinct states, deepest
		"wavefront":            {4892, 45, 12},
		"wavefront-firsterror": {4262, 37, 12},
		"vcache":               {6877, 345, 7},
		"daemon":               {6717, 409, 9},
		"planner":              {2000, 37, 2},
		"planner-attn":         {2000, 22, 2},
		"cluster":              {9549, 1304, 13}, // re-pinned with the batched model (PR 14)
	}
	for _, m := range ms {
		res, err := mc.Simulate(m, mc.SimOptions{Seed: 42, Walks: 1000, MaxDepth: 400})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			t.Errorf("%s (seed 42):\n%s", m.Name(), res.Violation)
		}
		if got := [3]int{res.Steps, res.Distinct, res.Deepest}; got != pinned[m.Name()] {
			t.Errorf("%s (seed 42): walked %v, pinned %v", m.Name(), got, pinned[m.Name()])
		}
	}
	res, err := mc.Simulate(KnownBug(), mc.SimOptions{Seed: 42, Walks: 500, MaxDepth: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("simulation never stumbled into the known bug in 500 walks")
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(res.Violation.Trace.Render()))); res.Steps != 18 ||
		got != "aa383627c5e4419983c0e885b0020693c769c98b5d52a97a34258185b4fc9029" {
		t.Errorf("known-bug trace moved: %d steps, digest %s", res.Steps, got)
	}
}

// TestByName covers the registry's lookup surface.
func TestByName(t *testing.T) {
	for _, name := range Names() {
		m, err := ByName(name, "ci")
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() != name {
			t.Fatalf("ByName(%q) returned %q", name, m.Name())
		}
	}
	if _, err := ByName("nope", "ci"); err == nil {
		t.Fatal("unknown model name must error")
	}
	if _, err := ForScope("nope"); err == nil {
		t.Fatal("unknown scope must error")
	}
	if _, err := ByName("wavefront", "nope"); err == nil {
		t.Fatal("unknown scope must error through ByName")
	}
}
