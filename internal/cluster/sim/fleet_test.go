package sim

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"

	"entangle/internal/core"
	"entangle/internal/faultinject"
	"entangle/internal/lemmas"
	"entangle/internal/models"
	"entangle/internal/vcache"
)

// TestFleetDifferential drives real checks — the ByteDance stand-ins,
// forward and backward, parallelism 2, one layer — through the
// simulated fleet and holds them to the single-node result:
//
//   - fault-free, a 3-node fleet renders a byte-identical report to a
//     plain one-node verdict cache at workers 1 and 4;
//   - a fault-free cold check costs at most 2·(nodes−1) peer round
//     trips each way at 1, 2, 3 and 5 nodes, however many operators it
//     has, and the warm re-check from the last node renders the same
//     report;
//   - under seeded drop/delay/corrupt faults and a crash / partition /
//     heal script every check still renders that report, and the faults
//     were really injected; once healed, a warm check fetches from its
//     peers again;
//   - every verdict committed to a node's disk survives a crash/restart
//     of the whole fleet byte for byte.
func TestFleetDifferential(t *testing.T) {
	fwd, err := models.SeedMoE(models.Options{TP: 2, Cfg: models.Config{Layers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	bwd, err := models.SeedMoEBwd(models.Options{TP: 2})
	if err != nil {
		t.Fatal(err)
	}

	// Fault-free differential. Each model's render at workers 4 is kept:
	// the scale and chaos phases must reproduce them too.
	var baseline, bwdBaseline string
	for _, m := range []struct {
		name string
		b    *models.Built
	}{{"ByteDance-Fwd", fwd}, {"ByteDance-Bwd", bwd}} {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("%s workers=%d", m.name, workers)
			vc, err := vcache.Open(vcache.Config{Dir: filepath.Join(t.TempDir(), "single")})
			if err != nil {
				t.Fatal(err)
			}
			single := fleetCheck(t, name+" single node", vc, workers, m.b)
			c := newFleet(t, 3, faultinject.NetConfig{})
			if got := fleetStep(t, name+" fleet", c, 0, workers, m.b, true); got != single {
				t.Fatalf("%s: 3-node fleet report differs from single node\n--- single ---\n%s--- fleet ---\n%s", name, single, got)
			}
			if m.b == fwd && workers == 4 {
				baseline = single
			} else if workers == 4 {
				bwdBaseline = single
			}
		}
	}

	// Scale: cold on node 0 (local compute + forwarding), then warm from
	// the last node (local misses served by peer fetches that lazily warm
	// its shard).
	for _, nodes := range []int{1, 2, 3, 5} {
		c := newFleet(t, nodes, faultinject.NetConfig{})
		for _, step := range []struct {
			name string
			node int
			cold bool
		}{{"cold", 0, true}, {"warm", nodes - 1, false}} {
			name := fmt.Sprintf("scale nodes=%d %s", nodes, step.name)
			if got := fleetStep(t, name, c, step.node, 4, fwd, step.cold); got != baseline {
				t.Fatalf("%s: report differs from single node\n--- single ---\n%s--- fleet ---\n%s", name, baseline, got)
			}
		}
	}

	// Chaos: a hostile network and scripted topology events must never
	// change a report.
	c := newFleet(t, 3, faultinject.NetConfig{Seed: 42, DropRate: 0.3, CorruptRate: 0.15})
	for _, s := range []struct {
		name string
		prep func()
		node int
	}{
		// Cold check straight into the hostile network.
		{"cold+faults", func() {}, 0},
		// The shard owner of ~1/3 of the keys is down: fetches and
		// forwards to it degrade to local cold checks.
		{"owner-down", func() { c.Crash(1) }, 2},
		// The restarted owner rejoins cold in memory but warm on disk,
		// then checks from inside a minority partition.
		{"partitioned", func() {
			if err := c.Restart(1); err != nil {
				t.Fatal(err)
			}
			c.Partition([]int{0}, []int{1, 2})
		}, 1},
	} {
		s.prep()
		if got := fleetStep(t, "chaos "+s.name, c, s.node, 4, fwd, false); got != baseline {
			t.Fatalf("chaos %s: report diverged from the fault-free single-node baseline\n--- baseline ---\n%s--- chaos ---\n%s", s.name, baseline, got)
		}
	}
	// Healed: the peer-fetch path resumes, still under message faults.
	// n2 already holds every forward-model verdict, so the backward model
	// — new to this fleet — goes cold on n0 and then warm on n2, which
	// must fetch what its peers own to reproduce the single-node report.
	c.Heal()
	if got := fleetStep(t, "chaos healed cold", c, 0, 4, bwd, false); got != bwdBaseline {
		t.Fatalf("chaos healed cold: report diverged from the fault-free single-node baseline\n--- baseline ---\n%s--- chaos ---\n%s", bwdBaseline, got)
	}
	warm := c.Node(2).Store()
	trips, hits := warm.ClientStats().RoundTrips, warm.ClusterStats().PeerHits
	got := fleetCheck(t, "chaos healed warm", warm, 4, bwd)
	// Offers are held until the Flush, so these round trips are fetches.
	fetches := warm.ClientStats().RoundTrips - trips
	c.Flush()
	if got != bwdBaseline {
		t.Fatalf("chaos healed warm: report diverged from the fault-free single-node baseline\n--- baseline ---\n%s--- chaos ---\n%s", bwdBaseline, got)
	}
	if hits = warm.ClusterStats().PeerHits - hits; fetches == 0 || hits == 0 {
		t.Fatalf("chaos healed warm: %d fetch round trips, %d peer hits; the peer-fetch path did not resume", fetches, hits)
	}
	fleetDurability(t, c)
	inj := c.Injected()
	if inj[faultinject.NetDrop] == 0 || inj[faultinject.NetCorrupt] == 0 {
		t.Fatalf("chaos injected nothing meaningful: %v", inj)
	}
}

// fleetCheck runs one full check against the given verdict store, fails
// on any checker error or refinement failure, and renders what the
// differentials compare byte for byte: the complete output relation.
func fleetCheck(t *testing.T, name string, store core.VerdictStore, workers int, b *models.Built) string {
	t.Helper()
	checker := core.NewChecker(core.Options{Registry: lemmas.Default(), Workers: workers, Cache: store})
	rep, err := checker.Check(b.Gs, b.Gd, b.Ri)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(rep.Failures) > 0 {
		t.Fatalf("%s: unexpected failures:\n%s", name, rep.RenderFailures())
	}
	return rep.OutputRelation.Render(b.Gs)
}

// fleetStep is one step of a fleet script: a full check on node i, then
// the Flush that delivers its forwards, so the next step finds every
// shard settled whatever the goroutine scheduling was. With bounded
// set it holds the step to the batching claim: a fault-free cold check
// costs round trips per owner, not per operator — one batched fetch per
// owner, and per owner at most the send the forwarder had in flight
// plus the one batch that queued up behind it. The simulated network
// holds offers until the Flush, so the calls counted before it are the
// check's fetches and the ones after its forwards.
func fleetStep(t *testing.T, name string, c *Cluster, i, workers int, b *models.Built, bounded bool) string {
	t.Helper()
	store := c.Node(i).Store()
	before := store.ClientStats().RoundTrips
	render := fleetCheck(t, name, store, workers, b)
	fetched := store.ClientStats().RoundTrips
	c.Flush()
	fetches, offers := fetched-before, store.ClientStats().RoundTrips-fetched
	if limit := int64(2 * (len(c.Members()) - 1)); bounded && (fetches > limit || offers > limit) {
		t.Fatalf("%s: a cold check of %d operators made %d fetch and %d offer round trips, want at most %d each",
			name, b.Gs.OperatorCount(), fetches, offers, limit)
	}
	return render
}

// fleetDurability is the no-committed-verdict-lost gate: it snapshots
// every sentinel verdict committed to each node's disk, crash/restarts
// the whole fleet one node at a time, and requires every snapshot to
// read back byte-identical.
func fleetDurability(t *testing.T, c *Cluster) {
	t.Helper()
	const sentinels = 64
	nodes := len(c.Members())
	for i := 0; i < sentinels; i++ {
		// Forward failures under chaos degrade the Put, never fail it.
		if err := c.Node(i%nodes).Store().Put(key(i), entry(key(i), i)); err != nil {
			t.Fatalf("sentinel put %d: %v", i, err)
		}
	}
	c.Flush() // the owners' copies are part of what must survive
	type committed struct {
		node, key int
		data      []byte
	}
	var before []committed
	for i := 0; i < sentinels; i++ {
		for n := 0; n < nodes; n++ {
			if e := c.Node(n).Local().Get(key(i)); e != nil {
				before = append(before, committed{n, i, e.Bytes()})
			}
		}
	}
	if len(before) < sentinels {
		t.Fatalf("durability sweep degenerated: only %d committed copies of %d sentinels", len(before), sentinels)
	}
	for n := 0; n < nodes; n++ {
		c.Crash(n)
		if err := c.Restart(n); err != nil {
			t.Fatal(err)
		}
	}
	for _, cm := range before {
		e := c.Node(cm.node).Local().Get(key(cm.key))
		if e == nil {
			t.Fatalf("committed verdict lost: sentinel %d vanished from n%d across crash/restart", cm.key, cm.node)
		}
		if !bytes.Equal(e.Bytes(), cm.data) {
			t.Fatalf("committed verdict mutated: sentinel %d on n%d changed across crash/restart", cm.key, cm.node)
		}
	}
}
