package bench

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"entangle/internal/cluster/sim"
	"entangle/internal/core"
	"entangle/internal/faultinject"
	"entangle/internal/fingerprint"
	"entangle/internal/lemmas"
	"entangle/internal/models"
	"entangle/internal/vcache"
)

// FleetPoint is one row of `entangle-bench -exp fleet` and one entry of
// the BENCH_fleet.json trajectory. Phase names the measurement:
//
//	single      fault-free check against a plain one-node verdict cache
//	fleet       the same check routed through a 3-node simulated fleet
//	scale-cold  cold check on node 0 of an N-node fleet
//	scale-warm  warm re-check from the last node (the peer-fetch path)
//	chaos       check under seeded drop/delay/corrupt + crash/partition
//
// Every differential and chaos row self-gates on report byte-identity
// with the single-node run, so a recorded point is a verified one.
//
// WallMS is the check as its caller sees it. A fleet check does not
// wait for its forwards; FlushMS is what delivering them took in the
// step's Flush afterwards, and FetchRoundTrips/OfferRoundTrips how many
// peer calls the check and that Flush made.
type FleetPoint struct {
	Workload        string  `json:"workload"`
	Phase           string  `json:"phase"`
	Nodes           int     `json:"nodes"`
	Workers         int     `json:"workers"`
	Ops             int     `json:"ops"`
	WallMS          float64 `json:"wall_ms"`
	OpsPerSec       float64 `json:"ops_per_sec"`
	Forwards        int64   `json:"forwards"`
	PeerHits        int64   `json:"peer_hits"`
	Degraded        int64   `json:"degraded"`
	Identical       bool    `json:"identical"`
	FlushMS         float64 `json:"flush_ms,omitempty"`
	FetchRoundTrips int64   `json:"fetch_round_trips,omitempty"`
	OfferRoundTrips int64   `json:"offer_round_trips,omitempty"`
}

// Fleet runs the sharded-fleet experiment: the fault-free differential
// (a 3-node simulated fleet must produce byte-identical reports to a
// single node on the ByteDance workloads at workers 1 and 4), the
// throughput-vs-node-count sweep, and the chaos differential (seeded
// message drop/delay/corruption plus scripted crash, partition, and
// heal — every check must still render the identical report, and no
// verdict committed to any node's disk may be lost across restarts).
// A fault-free cold check must also cost at most 2·(nodes−1) peer round
// trips each way, however many operators it has. Like -exp diff, it is
// a correctness gate first and a stopwatch second: any divergence fails
// the run.
func Fleet() (string, []FleetPoint, error) {
	var out strings.Builder
	var points []FleetPoint
	fmt.Fprintln(&out, "Fleet: content-addressed shard fleet vs single node (parallelism 2, 1 layer)")

	// Fault-free differential. The baseline renders are kept for the
	// chaos phase: chaos must reproduce them byte for byte too.
	baseline := map[string]string{}
	fmt.Fprintln(&out, "\nDifferential: 3-node fleet report vs single-node report")
	fmt.Fprintf(&out, "%-14s %7s %9s %9s %8s %11s %9s\n",
		"model", "workers", "single", "fleet", "forwards", "round trips", "identical")
	for _, w := range Fig3Workloads() {
		if w.Name != "ByteDance-Fwd" && w.Name != "ByteDance-Bwd" {
			continue
		}
		for _, workers := range []int{1, 4} {
			single, fleet, render, err := fleetDifferential(w, workers)
			if err != nil {
				return "", nil, err
			}
			baseline[fmt.Sprintf("%s/%d", w.Name, workers)] = render
			points = append(points, *single, *fleet)
			fmt.Fprintf(&out, "%-14s %7d %9s %9s %8d %11s %9s\n",
				w.Name, workers, msRound(single.WallMS), msRound(fleet.WallMS),
				fleet.Forwards, fmt.Sprintf("%d+%d", fleet.FetchRoundTrips, fleet.OfferRoundTrips), "yes")
		}
	}

	// Throughput vs node count: the sharded fleet's extra cost is one
	// fetch round trip per owner on either pass, and on the cold one the
	// forwards delivered behind the check (the flush column).
	fmt.Fprintln(&out, "\nScale: ByteDance-Fwd, workers 4, cold check on node 0 then warm re-check from the last node")
	fmt.Fprintf(&out, "%-6s %10s %10s %10s %8s %11s %9s %9s\n",
		"nodes", "cold", "flush", "warm", "forwards", "round trips", "peerhits", "ops/s")
	for _, nodes := range []int{1, 2, 3, 5} {
		cold, warm, err := fleetScale(nodes, 4)
		if err != nil {
			return "", nil, err
		}
		points = append(points, *cold, *warm)
		fmt.Fprintf(&out, "%-6d %10s %10s %10s %8d %11s %9d %9.0f\n",
			nodes, msRound(cold.WallMS), msRound(cold.FlushMS), msRound(warm.WallMS), cold.Forwards,
			fmt.Sprintf("%d+%d", cold.FetchRoundTrips, cold.OfferRoundTrips), warm.PeerHits, cold.OpsPerSec)
	}

	// Chaos differential: a hostile network and scripted topology events
	// must never change a report, only its wall clock.
	chaosPts, chaosTxt, err := fleetChaos(baseline["ByteDance-Fwd/4"])
	if err != nil {
		return "", nil, err
	}
	points = append(points, chaosPts...)
	out.WriteString(chaosTxt)

	out.WriteString(`
Every fleet and chaos row rendered a byte-identical report to the
single-node run; degraded peer exchanges cost wall clock, never
correctness, and every verdict committed to a node's disk survived
crash/restart byte for byte. Round trips are fetch+offer calls: every
fault-free cold check stayed within 2·(nodes−1) each way.
`)
	return out.String(), points, nil
}

// fleetDifferential checks one workload once against a plain one-node
// cache and once through a fault-free 3-node fleet, and fails unless
// the two reports render byte-identically.
func fleetDifferential(w Workload, workers int) (single, fleet *FleetPoint, render string, err error) {
	b, err := w.Build(2, 1)
	if err != nil {
		return nil, nil, "", err
	}
	ops := b.Gs.OperatorCount()

	dir, cleanup, err := tempDir("fleet")
	if err != nil {
		return nil, nil, "", err
	}
	defer cleanup()

	vc, err := vcache.Open(vcache.Config{Dir: dir + "/single"})
	if err != nil {
		return nil, nil, "", err
	}
	singleRep, singleD, err := fleetCheck(vc, workers, b)
	if err != nil {
		return nil, nil, "", fmt.Errorf("%s workers=%d single node: %v", w.Name, workers, err)
	}
	render = renderFleetReport(singleRep, b)

	c, err := sim.New(sim.Config{Nodes: 3, Dir: dir + "/fleet"})
	if err != nil {
		return nil, nil, "", err
	}
	defer c.Close()
	fleet = &FleetPoint{Workload: w.Name, Phase: "fleet", Nodes: 3, Workers: workers, Ops: ops, Identical: true}
	fleetRep, err := fleetStep(c, 0, b, fleet)
	if err != nil {
		return nil, nil, "", fmt.Errorf("%s workers=%d fleet: %v", w.Name, workers, err)
	}
	if got := renderFleetReport(fleetRep, b); got != render {
		return nil, nil, "", fmt.Errorf("%s workers=%d: 3-node fleet report differs from single node\n--- single ---\n%s--- fleet ---\n%s",
			w.Name, workers, render, got)
	}
	if err := roundTripGate(fleet); err != nil {
		return nil, nil, "", err
	}
	single = &FleetPoint{
		Workload: w.Name, Phase: "single", Nodes: 1, Workers: workers, Ops: ops,
		WallMS: msOf(singleD), OpsPerSec: opsRate(ops, singleD), Identical: true,
	}
	return single, fleet, render, nil
}

// fleetStep is one step of a fleet script: a full check on node i, then
// the Flush that delivers its forwards, so the next step finds every
// shard settled whatever the goroutine scheduling was. It fills p's
// measurements: the check's wall clock, the flush's, the node's
// cumulative routing counters, and the step's peer round trips. The
// simulated network holds offers until the Flush, so the calls counted
// before it are the check's fetches and the ones after its forwards.
func fleetStep(c *sim.Cluster, i int, b *models.Built, p *FleetPoint) (*core.Report, error) {
	store := c.Node(i).Store()
	before := store.ClientStats().RoundTrips
	rep, d, err := fleetCheck(store, p.Workers, b)
	if err != nil {
		return nil, err
	}
	fetched := store.ClientStats().RoundTrips
	start := time.Now()
	c.Flush()
	flushD := time.Since(start)
	st := store.ClusterStats()
	p.WallMS, p.OpsPerSec, p.FlushMS = msOf(d), opsRate(p.Ops, d), msOf(flushD)
	p.Forwards, p.PeerHits, p.Degraded = st.Forwards, st.PeerHits, st.Degraded
	p.FetchRoundTrips, p.OfferRoundTrips = fetched-before, store.ClientStats().RoundTrips-fetched
	return rep, nil
}

// roundTripGate is the batching claim as a gate: a fault-free cold
// check costs round trips per owner, not per operator — one batched
// fetch per owner, and per owner at most the send the forwarder had in
// flight plus the one batch that queued up behind it.
func roundTripGate(p *FleetPoint) error {
	limit := int64(2 * (p.Nodes - 1))
	if p.FetchRoundTrips > limit || p.OfferRoundTrips > limit {
		return fmt.Errorf("%s %s nodes=%d workers=%d: a cold check of %d operators made %d fetch and %d offer round trips, want at most %d each",
			p.Workload, p.Phase, p.Nodes, p.Workers, p.Ops, p.FetchRoundTrips, p.OfferRoundTrips, limit)
	}
	return nil
}

// fleetScale measures one node count: a cold check on node 0 (local
// compute + forwarding) and a warm re-check from the last node (local
// misses served by peer fetches that lazily warm its shard).
func fleetScale(nodes, workers int) (cold, warm *FleetPoint, err error) {
	b, err := models.SeedMoE(models.Options{TP: 2, Cfg: models.Config{Layers: 1}})
	if err != nil {
		return nil, nil, err
	}
	ops := b.Gs.OperatorCount()

	dir, cleanup, err := tempDir("fleet-scale")
	if err != nil {
		return nil, nil, err
	}
	defer cleanup()
	c, err := sim.New(sim.Config{Nodes: nodes, Dir: dir})
	if err != nil {
		return nil, nil, err
	}
	defer c.Close()

	cold = &FleetPoint{Workload: "ByteDance-Fwd", Phase: "scale-cold", Nodes: nodes, Workers: workers, Ops: ops, Identical: true}
	if _, err := fleetStep(c, 0, b, cold); err != nil {
		return nil, nil, fmt.Errorf("scale nodes=%d cold: %v", nodes, err)
	}
	if err := roundTripGate(cold); err != nil {
		return nil, nil, err
	}
	warm = &FleetPoint{Workload: "ByteDance-Fwd", Phase: "scale-warm", Nodes: nodes, Workers: workers, Ops: ops, Identical: true}
	if _, err := fleetStep(c, nodes-1, b, warm); err != nil {
		return nil, nil, fmt.Errorf("scale nodes=%d warm: %v", nodes, err)
	}
	return cold, warm, nil
}

// fleetChaos drives the scripted chaos differential on a 3-node fleet
// with a lossy, corrupting, delaying network: four check stages under
// escalating topology hostility, each required to render the exact
// fault-free baseline report, followed by the committed-verdict
// durability sweep across a full crash/restart of every node.
func fleetChaos(baseline string) ([]FleetPoint, string, error) {
	const workers = 4
	b, err := models.SeedMoE(models.Options{TP: 2, Cfg: models.Config{Layers: 1}})
	if err != nil {
		return nil, "", err
	}
	ops := b.Gs.OperatorCount()

	dir, cleanup, err := tempDir("fleet-chaos")
	if err != nil {
		return nil, "", err
	}
	defer cleanup()
	c, err := sim.New(sim.Config{
		Nodes: 3,
		Dir:   dir,
		Net:   faultinject.NetConfig{Seed: 42, DropRate: 0.15, DelayRate: 0.15, CorruptRate: 0.15},
	})
	if err != nil {
		return nil, "", err
	}
	defer c.Close()

	var out strings.Builder
	fmt.Fprintln(&out, "\nChaos: ByteDance-Fwd, workers 4, 3 nodes, seed 42, drop/delay/corrupt 0.15 each")
	fmt.Fprintf(&out, "%-22s %5s %10s %9s %9s\n", "stage", "node", "wall", "degraded", "identical")

	stages := []struct {
		name string
		prep func() error
		node int
	}{
		// Cold check straight into the hostile network.
		{"cold+faults", nil, 0},
		// The shard owner of ~1/3 of the keys is down: fetches and
		// forwards to it degrade to local cold checks.
		{"owner-down", func() error { c.Crash(1); return nil }, 2},
		// The restarted owner rejoins cold in memory but warm on disk,
		// then checks from inside a minority partition.
		{"partitioned", func() error {
			if err := c.Restart(1); err != nil {
				return err
			}
			c.Partition([]int{0}, []int{1, 2})
			return nil
		}, 1},
		// Healed: the peer-fetch path resumes, still under message
		// faults.
		{"healed", func() error { c.Heal(); return nil }, 2},
	}
	var points []FleetPoint
	for _, s := range stages {
		if s.prep != nil {
			if err := s.prep(); err != nil {
				return nil, "", err
			}
		}
		p := FleetPoint{Workload: "ByteDance-Fwd", Phase: "chaos", Nodes: 3, Workers: workers, Ops: ops, Identical: true}
		rep, err := fleetStep(c, s.node, b, &p)
		if err != nil {
			return nil, "", fmt.Errorf("chaos %s: %v", s.name, err)
		}
		if got := renderFleetReport(rep, b); got != baseline {
			return nil, "", fmt.Errorf("chaos %s: report diverged from the fault-free single-node baseline\n--- baseline ---\n%s--- chaos ---\n%s",
				s.name, baseline, got)
		}
		points = append(points, p)
		fmt.Fprintf(&out, "%-22s %5d %10s %9d %9s\n",
			s.name, s.node, msRound(p.WallMS), p.Degraded, "yes")
	}

	if err := fleetDurability(c); err != nil {
		return nil, "", err
	}
	inj := c.Injected()
	if inj[faultinject.NetDrop] == 0 || inj[faultinject.NetDelay] == 0 || inj[faultinject.NetCorrupt] == 0 {
		return nil, "", fmt.Errorf("chaos injected nothing meaningful: %v", inj)
	}
	fmt.Fprintf(&out, "injected: drop=%d delay=%d corrupt=%d; durability sweep: every committed verdict survived a full-fleet crash/restart\n",
		inj[faultinject.NetDrop], inj[faultinject.NetDelay], inj[faultinject.NetCorrupt])
	return points, out.String(), nil
}

// fleetDurability is the no-committed-verdict-lost gate: it snapshots
// every sentinel verdict committed to each node's disk, crash/restarts
// the whole fleet one node at a time, and requires every snapshot to
// read back byte-identical.
func fleetDurability(c *sim.Cluster) error {
	const sentinels = 64
	for i := 0; i < sentinels; i++ {
		e := &vcache.Entry{
			Verdict: vcache.VerdictRefined,
			Outputs: []vcache.Mapping{{Main: []string{fmt.Sprintf("I%d", i)}}},
		}
		// Forward failures under chaos degrade the Put, never fail it.
		if err := c.Node(i%3).Store().Put(fleetSentinelKey(i), e); err != nil {
			return fmt.Errorf("chaos sentinel put %d: %v", i, err)
		}
	}
	c.Flush() // the owners' copies are part of what must survive
	type committed struct {
		node, key int
		data      []byte
	}
	var before []committed
	for i := 0; i < sentinels; i++ {
		k := fleetSentinelKey(i)
		for n := 0; n < 3; n++ {
			e := c.Node(n).Local().Get(k)
			if e == nil {
				continue
			}
			data, err := vcache.EncodeEntry(k, e)
			if err != nil {
				return err
			}
			before = append(before, committed{n, i, data})
		}
	}
	if len(before) < sentinels {
		return fmt.Errorf("durability sweep degenerated: only %d committed copies of %d sentinels", len(before), sentinels)
	}
	for n := 0; n < 3; n++ {
		c.Crash(n)
		if err := c.Restart(n); err != nil {
			return err
		}
	}
	for _, cm := range before {
		k := fleetSentinelKey(cm.key)
		e := c.Node(cm.node).Local().Get(k)
		if e == nil {
			return fmt.Errorf("committed verdict lost: sentinel %d vanished from n%d across crash/restart", cm.key, cm.node)
		}
		data, err := vcache.EncodeEntry(k, e)
		if err != nil {
			return err
		}
		if !bytes.Equal(data, cm.data) {
			return fmt.Errorf("committed verdict mutated: sentinel %d on n%d changed across crash/restart", cm.key, cm.node)
		}
	}
	return nil
}

// fleetCheck runs one full check against the given verdict store and
// fails on any checker error or refinement failure — every fleet
// measurement doubles as a correctness assertion.
func fleetCheck(store core.VerdictStore, workers int, b *models.Built) (*core.Report, time.Duration, error) {
	checker := core.NewChecker(core.Options{Registry: lemmas.Default(), Workers: workers, Cache: store})
	start := time.Now()
	rep, err := checker.Check(b.Gs, b.Gd, b.Ri)
	d := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	if len(rep.Failures) > 0 {
		return nil, 0, fmt.Errorf("unexpected failures:\n%s", rep.RenderFailures())
	}
	return rep, d, nil
}

// renderFleetReport renders the report surface the differentials
// compare byte for byte: the failure report (empty on success) and the
// complete output relation.
func renderFleetReport(rep *core.Report, b *models.Built) string {
	s := rep.RenderFailures()
	if rep.OutputRelation != nil {
		s += rep.OutputRelation.Render(b.Gs)
	}
	return s
}

// fleetSentinelKey derives the i-th durability sentinel's fingerprint;
// a fixed prefix keeps it out of any real verdict's keyspace.
func fleetSentinelKey(i int) fingerprint.Hash {
	var h fingerprint.Hash
	copy(h[:], "bench-fleet-sentinel")
	h[24], h[25], h[26], h[27] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
	return h
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msRound(ms float64) string {
	return time.Duration(ms * float64(time.Millisecond)).Round(time.Millisecond).String()
}

func opsRate(ops int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(ops) / d.Seconds()
}
