// Package sim is a deterministic in-process cluster simulator: N fleet
// nodes wired over in-memory transports, with seed-driven fault
// injection (message drop and in-flight corruption via
// internal/faultinject's network fault family) and scripted topology
// events (node crash/restart, partition/heal). It exists to let chaos
// tests — TestFleetDifferential runs real checks through it — drive the
// real production stack — cluster.Cache, cluster.Client, the rendezvous
// router, the vcache byte format — through hostile conditions without
// sockets, goroutine sleeps, or wall-clock dependence:
//
//   - The transport never sleeps: a dropped frame — lost, or late past
//     its sender's deadline — is lost at once, so a chaos run completes
//     in milliseconds and injects identically on every machine.
//
//   - Every fault decision is made per frame — per key, however the
//     keys were batched — as a pure hash of (seed, frame label), and
//     the breakers read a clock stopped at a fixed instant.
//
//   - Forwards are delivered at step boundaries: the network holds the
//     offers a node's forwarder sends until the script calls Flush, so
//     which Puts share a batch, and what every shard holds when the
//     next step starts, do not depend on goroutine scheduling. A
//     single-worker script that flushes after every step is
//     reproducible byte for byte.
//
//   - Crash keeps the node's disk directory and discards everything
//     else, exactly the durability contract of a real SIGKILL; restart
//     reopens the same directory, so "no committed verdict lost across
//     crash/restart" is testable directly.
package sim

import (
	"context"
	"fmt"
	"maps"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"entangle/internal/cluster"
	"entangle/internal/faultinject"
	"entangle/internal/fingerprint"
	"entangle/internal/vcache"
)

// Config parameterizes a simulated fleet.
type Config struct {
	// Nodes is the fleet size (IDs "n0".."n<N-1>").
	Nodes int
	// Dir is the root directory; node i's verdict shard persists at
	// Dir/n<i> across Crash/Restart.
	Dir string
	// Net is the per-message fault configuration (zero rates = fault
	// free).
	Net faultinject.NetConfig
}

// heldTimeout is every node's peer-call timeout. A slow message is an
// injected fault, not a slow call, but an offer waits on the network
// from the moment a forwarder sends it until the step's Flush, which is
// as long as the step's check takes on the machine running it. The
// timeout is therefore only a guard against a script that never
// flushes.
const heldTimeout = 10 * time.Minute

// Cluster is a simulated fleet. All methods are safe for concurrent
// use; topology events (Crash/Restart/Partition/Heal) are typically
// scripted from the test goroutine between checks.
type Cluster struct {
	cfg     Config
	members []cluster.Member

	mu    sync.Mutex
	nodes []*Node
	down  map[string]bool
	part  map[string]int // node ID → partition group (all 0 when healed)
	seq   map[string]uint64
	// injected is the census of network faults fired so far.
	injected map[faultinject.NetFault]int
	// release is closed while a Flush is delivering held offers, and
	// replaced by an open channel when it ends.
	release chan struct{}
}

// Node is one simulated fleet member: a real vcache shard on disk plus
// the real cluster cache routing through the simulated transport.
type Node struct {
	// ID is the node's member ID ("n0", "n1", ...).
	ID string

	c     *Cluster
	cache *cluster.Cache // swapped by Restart, under c.mu
}

// New builds and starts a fleet of cfg.Nodes nodes.
func New(cfg Config) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("sim: fleet needs at least one node")
	}
	c := &Cluster{
		cfg:      cfg,
		down:     map[string]bool{},
		part:     map[string]int{},
		seq:      map[string]uint64{},
		injected: map[faultinject.NetFault]int{},

		release: make(chan struct{}),
	}
	for i := 0; i < cfg.Nodes; i++ {
		c.members = append(c.members, cluster.Member{
			ID:  "n" + strconv.Itoa(i),
			URL: "mem://n" + strconv.Itoa(i),
		})
	}
	c.nodes = make([]*Node, cfg.Nodes)
	for i := range c.nodes {
		cache, err := c.boot(i)
		if err != nil {
			return nil, err
		}
		c.nodes[i] = &Node{ID: c.members[i].ID, c: c, cache: cache}
	}
	return c, nil
}

// boot opens (or reopens) node i's shard and builds its fleet cache.
func (c *Cluster) boot(i int) (*cluster.Cache, error) {
	id := c.members[i].ID
	local, err := vcache.Open(vcache.Config{Dir: filepath.Join(c.cfg.Dir, id)})
	if err != nil {
		return nil, fmt.Errorf("sim: opening shard for %s: %w", id, err)
	}
	ms, err := cluster.NewMembership(id, c.members)
	if err != nil {
		return nil, err
	}
	client := cluster.NewClient(cluster.ClientConfig{
		Transport: &transport{c: c, src: id},
		Timeout:   heldTimeout,
		Clock:     stoppedClock{},
	})
	return cluster.NewCache(cluster.CacheConfig{Membership: ms, Local: local, Client: client})
}

// Members returns the static fleet view.
func (c *Cluster) Members() []cluster.Member {
	return append([]cluster.Member(nil), c.members...)
}

// Node returns node i. After a Restart the same *Node keeps working —
// its store is swapped in place — so callers may hold on to it across
// topology events.
func (c *Cluster) Node(i int) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[i]
}

// Injected reports the network faults fired so far.
func (c *Cluster) Injected() map[faultinject.NetFault]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.injected)
}

// Flush ends a step: the offers the nodes' forwarders have sent since
// the last Flush are delivered (each frame meeting its own fault
// decision), and every live node's forward queue is drained before it
// returns. Scripts call it after every step — a Put, a check — whose
// forwards the next step should find delivered. Not for concurrent
// use with itself.
func (c *Cluster) Flush() {
	c.mu.Lock()
	close(c.release)
	nodes := append([]*Node(nil), c.nodes...)
	c.mu.Unlock()
	for _, n := range nodes {
		// A crashed node's cache is closed: nothing queued, returns at
		// once. The context only bounds a wedged simulation.
		//lint:ignore determinism a forward's deadline decides only whether a node falls back to its own cold check, never what a verdict says
		ctx, cancel := context.WithTimeout(context.Background(), heldTimeout)
		_ = n.Store().Flush(ctx)
		cancel()
	}
	c.mu.Lock()
	c.release = make(chan struct{})
	c.mu.Unlock()
}

// Close stops every node's fleet cache and its forwarder, and closes
// its shard. (A Crash closes no shard: a crashed process releases
// nothing in order.)
func (c *Cluster) Close() {
	c.mu.Lock()
	nodes := append([]*Node(nil), c.nodes...)
	c.mu.Unlock()
	for _, n := range nodes {
		n.Store().Close()
		_ = n.Store().Local().Close()
	}
}

// hold keeps an offer on the wire until the step's Flush, or until its
// sender gives up (a crash closes the sender's cache).
func (c *Cluster) hold(ctx context.Context) error {
	c.mu.Lock()
	release := c.release
	c.mu.Unlock()
	select {
	case <-release:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Crash takes node i down: its fleet cache stops peer traffic — the
// forwards it had queued or on the wire are lost, the verdicts behind
// them are not — peers' messages to it fail, and its in-memory state
// is discarded. The disk directory survives — that is the whole point.
func (c *Cluster) Crash(i int) {
	c.mu.Lock()
	n := c.nodes[i]
	c.down[n.ID] = true
	c.mu.Unlock()
	n.Store().Close()
}

// Restart brings a crashed node back: the shard directory is reopened
// (committed verdicts reappear; the memory tier starts cold) and a
// fresh fleet cache is swapped into the same *Node. Peers re-warm it
// lazily through forwards and fetches — there is no transfer protocol.
func (c *Cluster) Restart(i int) error {
	fresh, err := c.boot(i)
	if err != nil {
		return err
	}
	c.mu.Lock()
	n := c.nodes[i]
	n.cache = fresh
	delete(c.down, n.ID)
	c.mu.Unlock()
	return nil
}

// Partition splits the fleet into groups: messages within a group flow,
// messages across groups fail. Nodes not named fall into an implicit
// extra group together. Overwrites any previous partition.
func (c *Cluster) Partition(groups ...[]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.part = map[string]int{}
	for g, ids := range groups {
		for _, i := range ids {
			c.part[c.members[i].ID] = g + 1
		}
	}
}

// Heal removes the partition.
func (c *Cluster) Heal() {
	c.mu.Lock()
	c.part = map[string]int{}
	c.mu.Unlock()
}

// reachable decides whether a message from src to dst can be delivered
// at all, and hands back the destination's shard when it can.
func (c *Cluster) reachable(src, dst string) (*cluster.Shard, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.down[dst] {
		return nil, fmt.Errorf("sim: node %s is down", dst)
	}
	if c.part[src] != c.part[dst] {
		return nil, fmt.Errorf("sim: %s and %s are partitioned", src, dst)
	}
	for _, n := range c.nodes {
		if n.ID == dst {
			return &cluster.Shard{Local: n.cache.Local()}, nil
		}
	}
	return nil, fmt.Errorf("sim: unknown node %s", dst)
}

// fate decides one message's network fault and counts it. The decision
// key, returned as label, is the verb, endpoints, content key, and a
// per-message sequence number so the same key sent again over the same
// link re-rolls its fate.
func (c *Cluster) fate(verb, src, dst string, key fingerprint.Hash) (fault faultinject.NetFault, label string) {
	base := verb + "/" + src + ">" + dst + "/" + key.Hex()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq[base]++
	label = base + "#" + strconv.FormatUint(c.seq[base], 10)
	if fault = c.cfg.Net.Decide(label); fault != faultinject.NetNone {
		c.injected[fault]++
	}
	return fault, label
}

// Store returns the node's fleet-routing verdict store (a
// core.VerdictStore — plug it into core.Options.Cache). Stable across
// Restart.
func (n *Node) Store() *cluster.Cache {
	n.c.mu.Lock()
	defer n.c.mu.Unlock()
	return n.cache
}

// Local returns the node's raw shard (assertions on what is committed).
func (n *Node) Local() *vcache.Cache { return n.Store().Local() }

// transport is one node's view of the simulated network. Reachability
// (crash, partition) fails a call as a whole; Config.Net then decides
// each frame's fate on its own, and what gets through meets the
// destination's cluster.Shard — the code behind the daemon's endpoint.
type transport struct {
	c   *Cluster
	src string
}

var _ cluster.Transport = (*transport)(nil)

func (t *transport) FetchMany(ctx context.Context, peer cluster.Member, keys []fingerprint.Hash) ([]vcache.Frame, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	shard, err := t.c.reachable(t.src, peer.ID)
	if err != nil {
		return nil, err
	}
	frames := make([]vcache.Frame, len(keys))
	for i, key := range keys {
		switch fault, label := t.c.fate("fetch", t.src, peer.ID, key); fault {
		case faultinject.NetDrop:
			// The frame never makes it back intact. What arrives in its
			// place is not an entry, so the fetcher's decode gate
			// degrades this key — and must not read it as a miss.
			frames[i] = vcache.Frame{Key: key, Data: []byte{}}
		default:
			frames[i] = shard.Fetch(keys[i : i+1])[0]
			if fault == faultinject.NetCorrupt && frames[i].Data != nil {
				// The reply is damaged in flight; the fetcher's decode gate
				// must turn this into a degradation, never a wrong verdict.
				frames[i].Data = faultinject.Damage(frames[i].Data, t.c.cfg.Net.DamageMode(label))
			}
		}
	}
	return frames, nil
}

func (t *transport) OfferMany(ctx context.Context, peer cluster.Member, frames []vcache.Frame) ([]fingerprint.Hash, error) {
	if err := t.c.hold(ctx); err != nil {
		return nil, err
	}
	shard, err := t.c.reachable(t.src, peer.ID)
	if err != nil {
		return nil, err
	}
	var refused []fingerprint.Hash
	for _, f := range frames {
		fault, label := t.c.fate("offer", t.src, peer.ID, f.Key)
		if fault == faultinject.NetCorrupt {
			f.Data = faultinject.Damage(f.Data, t.c.cfg.Net.DamageMode(label))
		}
		// A frame lost on the way is stored nowhere; one damaged on the
		// way is the owner's decode gate's to refuse. Either way the
		// sender counts a forward failure.
		if fault == faultinject.NetDrop || !shard.Offer(f) {
			refused = append(refused, f.Key)
		}
	}
	return refused, nil
}

// stoppedClock is the breakers' clock: a fixed instant, because
// nothing in a simulated fleet waits. A breaker that opens stays open
// until Restart gives its node a new client, whatever the machine's
// speed.
type stoppedClock struct{}

func (stoppedClock) Now() time.Time { return time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC) }
