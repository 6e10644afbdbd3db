package models

import (
	"strings"
	"testing"

	"entangle/internal/cluster"
	"entangle/internal/mc"
	"entangle/internal/vcache"
)

// TestKnownBugClusterFindsSplitBrain is the regression gate for the
// shard-ownership invariants: ownership computed over node-local
// liveness views must violate one-owner in the minimal two-step trace
// (crash the owner, let exactly one peer notice).
func TestKnownBugClusterFindsSplitBrain(t *testing.T) {
	m, err := KnownBugCluster()
	if err != nil {
		t.Fatal(err)
	}
	res, err := mc.Explore(m, mc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation == nil {
		t.Fatal("the buggy ownership model found no violation: the invariants have no teeth")
	}
	if res.Violation.Invariant != "every-fingerprint-has-exactly-one-owner" {
		t.Fatalf("wrong invariant %q:\n%s", res.Violation.Invariant, res.Violation)
	}
	// BFS guarantees minimality: initial state + crash + one observe.
	if got := len(res.Violation.Trace); got != 3 {
		t.Fatalf("counterexample not minimal: %d trace entries\n%s", got, res.Violation.Trace.Render())
	}
	script := res.Violation.Trace.Render()
	if !strings.Contains(script, "crash/") || !strings.Contains(script, "/observe/") {
		t.Fatalf("trace is not the crash+observe split-brain:\n%s", script)
	}
}

// TestClusterModelUsesRealCodec pins the model's wire bytes to the
// production codec: clean bytes decode, every damage mode is rejected —
// the same property the never-stale invariant relies on at every state.
func TestClusterModelUsesRealCodec(t *testing.T) {
	m, err := NewCluster(ClusterConfig{Name: "codec", Nodes: 3, Keys: 2, MaxCrashes: 1, MaxDamage: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k := range m.clean {
		e, err := vcache.DecodeEntry(m.keys[k], m.clean[k])
		if err != nil {
			t.Fatalf("key %d clean bytes do not decode: %v", k, err)
		}
		if e.Verdict() != vcache.VerdictRefined {
			t.Fatalf("key %d verdict drifted: %s", k, e.Verdict())
		}
		for mi, mode := range m.modes {
			if _, err := vcache.DecodeEntry(m.keys[k], m.damaged[k][mi]); err == nil {
				t.Fatalf("damage mode %s not rejected for key %d", mode, k)
			}
		}
	}
}

// TestClusterModelCastIsCoherent checks each key's cast assignment: the
// producer and reader are distinct non-owners, and the static owner
// matches the shipped rendezvous function.
func TestClusterModelCastIsCoherent(t *testing.T) {
	m, err := NewCluster(ClusterConfig{Name: "cast", Nodes: 4, Keys: 3, MaxCrashes: 1, MaxDamage: 1})
	if err != nil {
		t.Fatal(err)
	}
	for k := range m.keys {
		owner := m.staticOwner[k]
		if got := m.indexOf(cluster.Owner(m.members, m.keys[k])); got != owner {
			t.Fatalf("key %d: staticOwner %d but cluster.Owner says %d", k, owner, got)
		}
		if m.producer[k] == owner || m.reader[k] == owner || m.producer[k] == m.reader[k] {
			t.Fatalf("key %d: degenerate cast owner=%d producer=%d reader=%d",
				k, owner, m.producer[k], m.reader[k])
		}
	}
}

// step takes the named action from st.
func step(t *testing.T, m *ClusterM, st mc.State, name string) mc.State {
	t.Helper()
	var names []string
	for _, a := range m.Actions(st) {
		if a.Name == name {
			return a.Next()
		}
		names = append(names, a.Name)
	}
	t.Fatalf("action %q not enabled; have %v", name, names)
	return nil
}

// TestClusterModelBatchesFrames walks the two traces the batched
// protocol added to the model, so the exhaustive run is known to cover
// them: a two-frame offer batch with one frame damaged (the damaged
// frame is refused alone, its neighbour commits; the same for a fetch
// reply), and a producer crash between its local commit and its
// forwarder's send (the forward is never sent, the verdict stays).
func TestClusterModelBatchesFrames(t *testing.T) {
	m, err := NewCluster(ClusterConfig{Name: "batches", Nodes: 3, Keys: 2, MaxCrashes: 1, MaxDamage: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.staticOwner[0] != m.staticOwner[1] || m.producer[0] != m.producer[1] {
		t.Fatalf("the ci-scope keys no longer share an owner and a producer (owners %v, producers %v): no batch ever holds two frames",
			m.staticOwner, m.producer)
	}
	owner, producer, reader := m.staticOwner[0], m.producer[0], m.reader[0]
	send := "n" + string(rune('0'+producer)) + "/send/n" + string(rune('0'+owner))
	fetch := "n" + string(rune('0'+reader)) + "/fetch/n" + string(rune('0'+owner))

	st := m.Init()[0]
	for _, name := range []string{"k0/produce", "k1/produce", send, "k0/offer-damage/bit-flip", "offer-deliver/1"} {
		st = step(t, m, st, name)
	}
	s := st.(*clusterState)
	if s.disk[owner*2+0] || !s.disk[owner*2+1] || s.offerLanded[0] || !s.offerLanded[1] {
		t.Fatalf("one damaged frame in a batch of two: %s", s)
	}
	for _, name := range []string{fetch, "fetch-deliver/1"} {
		st = step(t, m, st, name) // key 0 is the owner's authoritative miss; key 1's frame is the reply
	}
	if s = st.(*clusterState); s.disk[reader*2+0] || !s.disk[reader*2+1] {
		t.Fatalf("fetch of one held and one missing key: %s", s)
	}

	st = m.Init()[0]
	for _, name := range []string{"k0/produce", send, "k1/produce", "crash/n" + string(rune('0'+producer))} {
		st = step(t, m, st, name)
	}
	s = st.(*clusterState)
	if s.offerPhase[1] != msgDone || !inFlight(s.offerPhase[0]) || !s.disk[producer*2+1] || s.disk[owner*2+1] {
		t.Fatalf("crash between commit and send: %s", s)
	}
	for _, inv := range m.Invariants() {
		if err := inv.Check(st); err != nil {
			t.Fatalf("%s: %v", inv.Name, err)
		}
	}
}
