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
type FleetPoint struct {
	Workload  string  `json:"workload"`
	Phase     string  `json:"phase"`
	Nodes     int     `json:"nodes"`
	Workers   int     `json:"workers"`
	Ops       int     `json:"ops"`
	WallMS    float64 `json:"wall_ms"`
	OpsPerSec float64 `json:"ops_per_sec"`
	Forwards  int64   `json:"forwards"`
	PeerHits  int64   `json:"peer_hits"`
	Degraded  int64   `json:"degraded"`
	Identical bool    `json:"identical"`
}

// Fleet runs the sharded-fleet experiment: the fault-free differential
// (a 3-node simulated fleet must produce byte-identical reports to a
// single node on the ByteDance workloads at workers 1 and 4), the
// throughput-vs-node-count sweep, and the chaos differential (seeded
// message drop/delay/corruption plus scripted crash, partition, and
// heal — every check must still render the identical report, and no
// verdict committed to any node's disk may be lost across restarts).
// Like -exp diff, it is a correctness gate first and a stopwatch
// second: any divergence fails the run.
func Fleet() (string, []FleetPoint, error) {
	var out strings.Builder
	var points []FleetPoint
	fmt.Fprintln(&out, "Fleet: content-addressed shard fleet vs single node (parallelism 2, 1 layer)")

	// Fault-free differential. The baseline renders are kept for the
	// chaos phase: chaos must reproduce them byte for byte too.
	baseline := map[string]string{}
	fmt.Fprintln(&out, "\nDifferential: 3-node fleet report vs single-node report")
	fmt.Fprintf(&out, "%-14s %7s %9s %9s %8s %9s\n",
		"model", "workers", "single", "fleet", "forwards", "identical")
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
			fmt.Fprintf(&out, "%-14s %7d %9s %9s %8d %9s\n",
				w.Name, workers, msRound(single.WallMS), msRound(fleet.WallMS),
				fleet.Forwards, "yes")
		}
	}

	// Throughput vs node count: the sharded fleet's extra cost is
	// forwarding on the cold pass and peer fetching on the warm one.
	fmt.Fprintln(&out, "\nScale: ByteDance-Fwd, workers 4, cold check on node 0 then warm re-check from the last node")
	fmt.Fprintf(&out, "%-6s %10s %10s %8s %9s %9s\n",
		"nodes", "cold", "warm", "forwards", "peerhits", "ops/s")
	for _, nodes := range []int{1, 2, 3, 5} {
		cold, warm, err := fleetScale(nodes, 4)
		if err != nil {
			return "", nil, err
		}
		points = append(points, *cold, *warm)
		fmt.Fprintf(&out, "%-6d %10s %10s %8d %9d %9.0f\n",
			nodes, msRound(cold.WallMS), msRound(warm.WallMS),
			cold.Forwards, warm.PeerHits, cold.OpsPerSec)
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
crash/restart byte for byte.
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
	fleetRep, fleetD, err := fleetCheck(c.Node(0).Store(), workers, b)
	if err != nil {
		return nil, nil, "", fmt.Errorf("%s workers=%d fleet: %v", w.Name, workers, err)
	}
	if got := renderFleetReport(fleetRep, b); got != render {
		return nil, nil, "", fmt.Errorf("%s workers=%d: 3-node fleet report differs from single node\n--- single ---\n%s--- fleet ---\n%s",
			w.Name, workers, render, got)
	}
	st := c.Node(0).Store().ClusterStats()
	single = &FleetPoint{
		Workload: w.Name, Phase: "single", Nodes: 1, Workers: workers, Ops: ops,
		WallMS: msOf(singleD), OpsPerSec: opsRate(ops, singleD), Identical: true,
	}
	fleet = &FleetPoint{
		Workload: w.Name, Phase: "fleet", Nodes: 3, Workers: workers, Ops: ops,
		WallMS: msOf(fleetD), OpsPerSec: opsRate(ops, fleetD),
		Forwards: st.Forwards, Identical: true,
	}
	return single, fleet, render, nil
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

	if _, coldD, err := fleetCheck(c.Node(0).Store(), workers, b); err != nil {
		return nil, nil, fmt.Errorf("scale nodes=%d cold: %v", nodes, err)
	} else {
		st := c.Node(0).Store().ClusterStats()
		cold = &FleetPoint{
			Workload: "ByteDance-Fwd", Phase: "scale-cold", Nodes: nodes, Workers: workers,
			Ops: ops, WallMS: msOf(coldD), OpsPerSec: opsRate(ops, coldD),
			Forwards: st.Forwards, Identical: true,
		}
	}
	reader := c.Node(nodes - 1)
	if _, warmD, err := fleetCheck(reader.Store(), workers, b); err != nil {
		return nil, nil, fmt.Errorf("scale nodes=%d warm: %v", nodes, err)
	} else {
		st := reader.Store().ClusterStats()
		warm = &FleetPoint{
			Workload: "ByteDance-Fwd", Phase: "scale-warm", Nodes: nodes, Workers: workers,
			Ops: ops, WallMS: msOf(warmD), OpsPerSec: opsRate(ops, warmD),
			PeerHits: st.PeerHits, Identical: true,
		}
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
		rep, d, err := fleetCheck(c.Node(s.node).Store(), workers, b)
		if err != nil {
			return nil, "", fmt.Errorf("chaos %s: %v", s.name, err)
		}
		if got := renderFleetReport(rep, b); got != baseline {
			return nil, "", fmt.Errorf("chaos %s: report diverged from the fault-free single-node baseline\n--- baseline ---\n%s--- chaos ---\n%s",
				s.name, baseline, got)
		}
		st := c.Node(s.node).Store().ClusterStats()
		points = append(points, FleetPoint{
			Workload: "ByteDance-Fwd", Phase: "chaos", Nodes: 3, Workers: workers,
			Ops: ops, WallMS: msOf(d), OpsPerSec: opsRate(ops, d),
			Forwards: st.Forwards, PeerHits: st.PeerHits, Degraded: st.Degraded,
			Identical: true,
		})
		fmt.Fprintf(&out, "%-22s %5d %10s %9d %9s\n",
			s.name, s.node, msRound(msOf(d)), st.Degraded, "yes")
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
