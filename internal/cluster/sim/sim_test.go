package sim

import (
	"bytes"
	"testing"

	"entangle/internal/cluster"
	"entangle/internal/egraph"
	"entangle/internal/faultinject"
	"entangle/internal/fingerprint"
	"entangle/internal/vcache"
)

func newFleet(t *testing.T, nodes int, net faultinject.NetConfig) *Cluster {
	t.Helper()
	c, err := New(Config{Nodes: nodes, Dir: t.TempDir(), Net: net})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func key(i int) fingerprint.Hash {
	var h fingerprint.Hash
	h[0], h[1], h[2], h[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
	return h
}

// entry is verdict number i, sealed for k.
func entry(k fingerprint.Hash, i int) *vcache.Entry {
	return vcache.Refined(k, 0, egraph.Stats{}, [][]string{{"I" + string(rune('0'+i%10))}})
}

// ownerIndex finds which node owns a key under rendezvous hashing.
func ownerIndex(c *Cluster, k fingerprint.Hash) int {
	owner := cluster.Owner(c.Members(), k)
	for i, m := range c.Members() {
		if m.ID == owner.ID {
			return i
		}
	}
	panic("owner not in member list")
}

// pickKey searches for a key owned by `owner` but checked from a
// different node, so tests can force cross-node traffic.
func pickKey(t *testing.T, c *Cluster, owner int) fingerprint.Hash {
	t.Helper()
	for i := 0; i < 10000; i++ {
		if k := key(i); ownerIndex(c, k) == owner {
			return k
		}
	}
	t.Fatal("no key found for owner")
	return fingerprint.Hash{}
}

// TestForwardAndFetch drives the fault-free fleet flow: a non-owner's
// Put lands locally and forwards to the owner; a third node's Get
// fetches from the owner and warms its own shard.
func TestForwardAndFetch(t *testing.T) {
	c := newFleet(t, 3, faultinject.NetConfig{})
	k := pickKey(t, c, 1)
	writer, owner, reader := c.Node(0), c.Node(1), c.Node(2)

	if err := writer.Store().Put(k, entry(k, 7)); err != nil {
		t.Fatal(err)
	}
	if owner.Local().Get(k) != nil {
		t.Fatal("forward delivered before the step's Flush")
	}
	c.Flush()
	if writer.Local().Get(k) == nil {
		t.Fatal("writer's own shard missing the verdict")
	}
	if owner.Local().Get(k) == nil {
		t.Fatal("forward did not land in the owner's shard")
	}
	if got := reader.Store().Get(k); got == nil || got.Verdict() != vcache.VerdictRefined {
		t.Fatalf("reader fetch: %+v", got)
	}
	if reader.Local().Get(k) == nil {
		t.Fatal("fetch did not warm the reader's shard")
	}
	rs := reader.Store().ClusterStats()
	if rs.PeerHits != 1 || rs.Warmed != 1 {
		t.Fatalf("reader stats: %+v", rs)
	}
	ws := writer.Store().ClusterStats()
	if ws.Forwards != 1 || ws.ForwardFailures != 0 {
		t.Fatalf("writer stats: %+v", ws)
	}
}

// TestCrashRestartDurability is the no-lost-verdict contract: a verdict
// forwarded to the owner survives the owner's crash (disk persists),
// peers degrade — never error — while it is down, and after restart
// the committed verdict is immediately servable again.
func TestCrashRestartDurability(t *testing.T) {
	c := newFleet(t, 3, faultinject.NetConfig{})
	k := pickKey(t, c, 1)
	writer, reader := c.Node(0), c.Node(2)

	if err := writer.Store().Put(k, entry(k, 3)); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	c.Crash(1)

	// While the owner is down the reader degrades to a miss (a local
	// cold check in a real run), never a wrong verdict or an error.
	if got := reader.Store().Get(k); got != nil {
		t.Fatalf("fetch from crashed owner returned %+v", got)
	}
	if rs := reader.Store().ClusterStats(); rs.Degraded != 1 {
		t.Fatalf("reader did not count degradation: %+v", rs)
	}
	// New work keeps landing locally even though forwarding fails.
	k2 := pickKey(t, c, 1)
	if k2 == k {
		k2 = key(20000) // distinct fallback; ownership does not matter here
	}
	if err := writer.Store().Put(k2, entry(k2, 4)); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	if writer.Local().Get(k2) == nil {
		t.Fatal("degraded Put lost the local copy")
	}

	if err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	owner := c.Node(1)
	if owner.Local().Get(k) == nil {
		t.Fatal("committed verdict lost across crash/restart")
	}
	if got := reader.Store().Get(k); got == nil {
		t.Fatal("restarted owner not serving committed verdicts")
	}
}

// TestRejoinWarmUp verifies a restarted owner is re-warmed lazily by
// later forwards: verdicts computed while it was down reach it once
// writers touch those keys again.
func TestRejoinWarmUp(t *testing.T) {
	c := newFleet(t, 3, faultinject.NetConfig{})
	k := pickKey(t, c, 1)
	writer := c.Node(0)

	c.Crash(1)
	if err := writer.Store().Put(k, entry(k, 5)); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	if err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	if c.Node(1).Local().Get(k) != nil {
		t.Fatal("owner knew a verdict committed while it was down (no transfer protocol exists)")
	}
	// The next Put of the same key re-forwards and warms the owner.
	if err := writer.Store().Put(k, entry(k, 5)); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	if c.Node(1).Local().Get(k) == nil {
		t.Fatal("re-forwarded verdict did not warm the rejoined owner")
	}
}

// TestPartitionHeal verifies cross-partition traffic fails (degrading
// the caller) and resumes after heal.
func TestPartitionHeal(t *testing.T) {
	c := newFleet(t, 3, faultinject.NetConfig{})
	k := pickKey(t, c, 1)
	writer, reader := c.Node(0), c.Node(2)

	if err := writer.Store().Put(k, entry(k, 1)); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	c.Partition([]int{0, 1}, []int{2})
	if got := reader.Store().Get(k); got != nil {
		t.Fatalf("fetch across partition returned %+v", got)
	}
	c.Heal()
	if got := reader.Store().Get(k); got == nil {
		t.Fatal("fetch after heal still failing")
	}
}

// TestChaosNeverWrongVerdict hammers a lossy, corrupting network: every
// Get must return either the exact committed entry or nil — degraded is
// fine, wrong is not.
func TestChaosNeverWrongVerdict(t *testing.T) {
	c := newFleet(t, 3, faultinject.NetConfig{
		Seed:        42,
		DropRate:    0.4,
		CorruptRate: 0.2,
	})
	const keys = 200
	for i := 0; i < keys; i++ {
		if err := c.Node(i%3).Store().Put(key(i), entry(key(i), i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		c.Flush()
	}
	returned, degraded := 0, 0
	for i := 0; i < keys; i++ {
		reader := c.Node((i + 1) % 3)
		got := reader.Store().Get(key(i))
		if got == nil {
			degraded++
			continue
		}
		returned++
		if want := entry(key(i), i); !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("key %d: wrong verdict under chaos: got %q want %q", i, got.Bytes(), want.Bytes())
		}
	}
	if returned == 0 {
		t.Fatal("chaos killed every fetch; rates too hot for a meaningful test")
	}
	inj := c.Injected()
	if inj[faultinject.NetDrop] == 0 || inj[faultinject.NetCorrupt] == 0 {
		t.Fatalf("chaos injected nothing: %v (degraded %d)", inj, degraded)
	}
}

// TestDeterministicInjection runs the identical single-threaded script
// on two fleets with the same seed: the injected-fault census must
// match exactly, and match its pinned value.
func TestDeterministicInjection(t *testing.T) {
	run := func() (map[faultinject.NetFault]int, []bool) {
		c := newFleet(t, 3, faultinject.NetConfig{
			Seed:        99,
			DropRate:    0.5,
			CorruptRate: 0.25,
		})
		var hits []bool
		for i := 0; i < 100; i++ {
			if err := c.Node(i%3).Store().Put(key(i), entry(key(i), i)); err != nil {
				t.Fatal(err)
			}
			c.Flush()
			hits = append(hits, c.Node((i+1)%3).Store().Get(key(i)) != nil)
		}
		return c.Injected(), hits
	}
	injA, hitsA := run()
	injB, hitsB := run()
	// Seeded decisions replay: a change to the hash, the carving or the
	// message labels moves this census.
	pinned := map[faultinject.NetFault]int{faultinject.NetDrop: 65, faultinject.NetCorrupt: 34}
	for _, f := range []faultinject.NetFault{faultinject.NetDrop, faultinject.NetCorrupt} {
		if injA[f] != injB[f] {
			t.Fatalf("fault %v: %d vs %d", f, injA[f], injB[f])
		}
		if injA[f] != pinned[f] {
			t.Errorf("fault %v: %d injected, pinned %d", f, injA[f], pinned[f])
		}
	}
	for i := range hitsA {
		if hitsA[i] != hitsB[i] {
			t.Fatalf("hit/miss sequence diverged at %d", i)
		}
	}
}

// TestBatchedFramesMeetTheirOwnFaults: fault decisions are made per
// frame, so how a step's forwards and fetches were batched changes
// nothing about which keys the chaos hits — one key per step and sixty
// keys per step inject the same faults and leave the same shards.
func TestBatchedFramesMeetTheirOwnFaults(t *testing.T) {
	const keys = 60
	run := func(perStep int) (map[faultinject.NetFault]int, []bool, []bool) {
		c := newFleet(t, 3, faultinject.NetConfig{Seed: 42, DropRate: 0.3, CorruptRate: 0.15})
		for i := 0; i < keys; i++ {
			if err := c.Node(0).Store().Put(key(i), entry(key(i), i)); err != nil {
				t.Fatal(err)
			}
			if (i+1)%perStep == 0 {
				c.Flush()
			}
		}
		landed := make([]bool, keys)
		for i := range landed {
			landed[i] = c.Node(ownerIndex(c, key(i))).Local().Get(key(i)) != nil
		}
		var want []fingerprint.Hash
		for i := 0; i < keys; i += perStep {
			want = want[:0]
			for j := i; j < i+perStep; j++ {
				want = append(want, key(j))
			}
			for j, e := range c.Node(2).Store().GetMany(want) {
				landed = append(landed, e != nil)
				if e != nil && !bytes.Equal(e.Bytes(), entry(key(i+j), i+j).Bytes()) {
					t.Fatalf("key %d: wrong verdict under chaos: %q", i+j, e.Bytes())
				}
			}
		}
		st := c.Node(0).Store().ClusterStats()
		if st.Forwards+st.ForwardFailures == 0 || st.ForwardFailures == 0 {
			t.Fatalf("chaos too mild to mean anything: %+v", st)
		}
		return c.Injected(), landed[:keys], landed[keys:]
	}
	injOne, landedOne, fetchedOne := run(1)
	injAll, landedAll, fetchedAll := run(keys)
	for _, f := range []faultinject.NetFault{faultinject.NetDrop, faultinject.NetCorrupt} {
		if injOne[f] != injAll[f] || injOne[f] == 0 {
			t.Errorf("fault %v: %d injected key by key, %d batched", f, injOne[f], injAll[f])
		}
	}
	for i := 0; i < keys; i++ {
		if landedOne[i] != landedAll[i] || fetchedOne[i] != fetchedAll[i] {
			t.Fatalf("key %d: forward landed %v / fetch returned %v key by key, %v / %v batched",
				i, landedOne[i], fetchedOne[i], landedAll[i], fetchedAll[i])
		}
	}
}

// TestCrashBeforeFlushLosesForwardsNotVerdicts: a node that crashes
// between committing a verdict and its forwarder's send loses the
// forward — counted, and the owner never hears of it — but not the
// verdict, which is on its disk when it restarts.
func TestCrashBeforeFlushLosesForwardsNotVerdicts(t *testing.T) {
	c := newFleet(t, 3, faultinject.NetConfig{})
	k := pickKey(t, c, 1)
	writer := c.Node(0)
	store := writer.Store()
	if err := store.Put(k, entry(k, 2)); err != nil {
		t.Fatal(err)
	}
	c.Crash(0) // before the step's Flush
	c.Flush()
	if st := store.ClusterStats(); st.Forwards != 0 || st.ForwardFailures != 1 {
		t.Fatalf("crashed writer's forward: %+v, want one failure", st)
	}
	if c.Node(1).Local().Get(k) != nil {
		t.Fatal("a forward outlived its sender's crash")
	}
	if err := c.Restart(0); err != nil {
		t.Fatal(err)
	}
	if writer.Local().Get(k) == nil {
		t.Fatal("committed verdict lost with the forward")
	}
}
