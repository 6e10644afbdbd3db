// Package sim is a deterministic in-process cluster simulator: N fleet
// nodes wired over in-memory transports, with seed-driven fault
// injection (message drop, delay, in-flight corruption via
// internal/faultinject's network fault family) and scripted topology
// events (node crash/restart, partition/heal). It exists to let chaos
// tests — TestFleetDifferential runs real checks through it — drive the
// real production stack — cluster.Cache, cluster.Client, the rendezvous
// router, the vcache byte format — through hostile conditions without
// sockets, goroutine sleeps, or wall-clock dependence:
//
//   - The transport never sleeps: a "delayed" or "dropped" frame is
//     lost at once, so a chaos run completes in milliseconds and
//     injects identically on every machine.
//
//   - Every fault decision is made per frame — per key, however the
//     keys were batched — as a pure hash of (seed, frame label), and
//     backoff sleeps run on an instant clock that advances virtual time
//     instead of sleeping.
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
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
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
	// Policy and Breaker tune every node's peer client (zero values =
	// production defaults, except that the wall-clock deadlines default
	// to heldTimeout; backoff runs on the instant clock either way).
	Policy  cluster.RetryPolicy
	Breaker cluster.BreakerConfig
	// CallTimeout bounds each node's whole peer exchange in wall-clock
	// time (0 = heldTimeout).
	CallTimeout time.Duration
}

// heldTimeout is the simulator's default for the peer client's
// wall-clock deadlines. Simulated time is virtual — a slow message is
// an injected fault, not a slow call — but an offer waits on the
// network from the moment a forwarder sends it until the step's Flush,
// which is as long as the step's check takes on this machine. The
// deadlines are therefore only a guard against a script that never
// flushes.
const heldTimeout = 10 * time.Minute

// Cluster is a simulated fleet. All methods are safe for concurrent
// use; topology events (Crash/Restart/Partition/Heal) are typically
// scripted from the test goroutine between checks.
type Cluster struct {
	cfg     Config
	net     *faultinject.NetInjector
	members []cluster.Member
	clock   *instantClock

	mu    sync.Mutex
	nodes []*Node
	down  map[string]bool
	part  map[string]int // node ID → partition group (all 0 when healed)
	seq   map[string]uint64
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
		cfg:   cfg,
		net:   faultinject.NewNet(cfg.Net),
		clock: newInstantClock(),
		down:  map[string]bool{},
		part:  map[string]int{},
		seq:   map[string]uint64{},

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
	policy, callTimeout := c.cfg.Policy, c.cfg.CallTimeout
	if policy.AttemptTimeout == 0 {
		policy.AttemptTimeout = heldTimeout
	}
	if callTimeout == 0 {
		callTimeout = heldTimeout
	}
	client := cluster.NewClient(cluster.ClientConfig{
		Transport: &transport{c: c, src: id},
		Policy:    policy,
		Breaker:   c.cfg.Breaker,
		Clock:     c.clock,
	})
	return cluster.NewCache(cluster.CacheConfig{
		Membership:  ms,
		Local:       local,
		Client:      client,
		CallTimeout: callTimeout,
	})
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
func (c *Cluster) Injected() map[faultinject.NetFault]int { return c.net.Injected() }

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
		ctx, cancel := context.WithTimeout(context.Background(), heldTimeout)
		_ = n.Store().Flush(ctx)
		cancel()
	}
	c.mu.Lock()
	c.release = make(chan struct{})
	c.mu.Unlock()
}

// Close stops every node's fleet cache and its forwarder.
func (c *Cluster) Close() {
	c.mu.Lock()
	nodes := append([]*Node(nil), c.nodes...)
	c.mu.Unlock()
	for _, n := range nodes {
		n.Store().Close()
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

// label builds the fault-decision key for one message: verb, endpoints,
// content key, and a per-message sequence number so a retry of the same
// logical message re-rolls its fate.
func (c *Cluster) label(verb, src, dst string, key fingerprint.Hash) string {
	base := verb + "/" + src + ">" + dst + "/" + key.Hex()
	c.mu.Lock()
	c.seq[base]++
	n := c.seq[base]
	c.mu.Unlock()
	return base + "#" + strconv.FormatUint(n, 10)
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
// (crash, partition) fails a call as a whole; the fault injector then
// decides each frame's fate on its own, and what gets through meets the
// destination's cluster.Shard — the code behind the daemon's endpoint.
type transport struct {
	c   *Cluster
	src string
}

var _ cluster.Transport = (*transport)(nil)

func (t *transport) FetchMany(ctx context.Context, peer cluster.Member, keys []fingerprint.Hash) ([]cluster.Frame, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	shard, err := t.c.reachable(t.src, peer.ID)
	if err != nil {
		return nil, err
	}
	frames := make([]cluster.Frame, len(keys))
	for i, key := range keys {
		label := t.c.label("fetch", t.src, peer.ID, key)
		switch fault := t.c.net.Decide(label); fault {
		case faultinject.NetDrop, faultinject.NetDelay:
			// The frame never makes it back intact. What arrives in its
			// place is not an entry, so the fetcher's decode gate
			// degrades this key — and must not read it as a miss.
			frames[i] = cluster.Frame{Key: key, Data: []byte{}}
		default:
			frames[i] = shard.Fetch(keys[i : i+1])[0]
			if fault == faultinject.NetCorrupt && frames[i].Data != nil {
				// The reply is damaged in flight; the fetcher's decode gate
				// must turn this into a degradation, never a wrong verdict.
				frames[i].Data = faultinject.Damage(frames[i].Data, t.c.net.DamageMode(label))
			}
		}
	}
	return frames, nil
}

func (t *transport) OfferMany(ctx context.Context, peer cluster.Member, frames []cluster.Frame) ([]fingerprint.Hash, error) {
	if err := t.c.hold(ctx); err != nil {
		return nil, err
	}
	shard, err := t.c.reachable(t.src, peer.ID)
	if err != nil {
		return nil, err
	}
	var refused []fingerprint.Hash
	for _, f := range frames {
		label := t.c.label("offer", t.src, peer.ID, f.Key)
		fault := t.c.net.Decide(label)
		if fault == faultinject.NetCorrupt {
			f.Data = faultinject.Damage(f.Data, t.c.net.DamageMode(label))
		}
		// A frame lost on the way is stored nowhere; one damaged on the
		// way is the owner's decode gate's to refuse. Either way the
		// sender counts a forward failure.
		if fault == faultinject.NetDrop || fault == faultinject.NetDelay || !shard.Offer(f) {
			refused = append(refused, f.Key)
		}
	}
	return refused, nil
}

// instantClock advances virtual time instead of sleeping, so retry
// backoff and breaker cooldowns behave realistically (monotone,
// ordered) while a chaos run finishes in real milliseconds.
type instantClock struct {
	base time.Time
	ns   atomic.Int64
}

func newInstantClock() *instantClock {
	// An arbitrary fixed epoch: virtual time must be deterministic, so
	// it cannot start at wall clock.
	return &instantClock{base: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *instantClock) Now() time.Time {
	return c.base.Add(time.Duration(c.ns.Load()))
}

func (c *instantClock) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d > 0 {
		c.ns.Add(int64(d))
	}
	return nil
}
