package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"entangle/internal/fingerprint"
	"entangle/internal/vcache"
)

// CacheStats counts the cluster cache's routing decisions, layered on
// top of the local vcache counters and the client's transport
// counters.
type CacheStats struct {
	// LocalHits served a Get from the local shard (self-owned keys and
	// lazily warmed copies) without touching the network.
	LocalHits int64 `json:"local_hits"`
	// PeerHits served a Get by fetching the entry from its owner.
	PeerHits int64 `json:"peer_hits"`
	// PeerMisses are authoritative owner misses: the owner answered
	// "not found", so this node computes the verdict (and forwards it).
	PeerMisses int64 `json:"peer_misses"`
	// Degraded are Gets that fell back to a local cold check because
	// the owner was unreachable, slow past the client's timeout, behind
	// an open breaker, or returned corrupt bytes. A degraded Get costs
	// wall clock, never correctness.
	Degraded int64 `json:"degraded"`
	// Forwards and ForwardFailures count Put-side verdict forwarding
	// to owners.
	Forwards        int64 `json:"forwards"`
	ForwardFailures int64 `json:"forward_failures"`
	// Warmed counts peer-fetched entries inserted into the local store
	// (the lazy warm-up path).
	Warmed int64 `json:"warmed"`
}

// CacheConfig assembles a cluster cache.
type CacheConfig struct {
	// Membership is the static fleet (must include self).
	Membership *Membership
	// Local is this node's shard: the vcache holding self-owned keys,
	// this node's own computed verdicts, and lazily warmed copies.
	Local *vcache.Cache
	// Client is the peer caller; it bounds each call with its Timeout.
	Client *Client
}

// maxQueuedForwards bounds the verdicts waiting for the forwarder. A
// queued forward only pins an entry the local store already holds, so
// the bound is about an owner that stays unreachable for a long time,
// not about memory in normal operation: past it, new forwards are
// counted as failed instead of queued.
const maxQueuedForwards = 4096

// Cache is the fleet-routing verdict store: a core.VerdictStore whose
// Get/GetMany/Put consult the key's rendezvous owner across the
// cluster, with every failure mode degrading to the local store. It
// never returns a wrong or stale verdict: entries are content-addressed
// (one canonical entry per key, produced by a deterministic checker),
// peer replies are validated by vcache.DecodeEntry, and anything
// doubtful is a miss. Safe for concurrent use.
type Cache struct {
	ms     *Membership
	local  *vcache.Cache
	client *Client

	// base is the lifecycle context for peer calls (VerdictStore's
	// methods carry none); Close cancels it, failing in-flight and
	// future calls fast (they degrade locally).
	base   context.Context
	cancel context.CancelFunc

	// The forwarder's state. queue holds the verdicts Put committed
	// locally and has yet to offer to their owners; sending is set
	// while the forwarder goroutine has a batch out; idle holds the
	// channels of Flush calls waiting for both to clear. wake has room
	// for the one pending signal the forwarder needs.
	fmu       sync.Mutex
	queue     []forward
	sending   bool
	idle      []chan struct{}
	wake      chan struct{}
	forwarder sync.WaitGroup

	localHits, peerHits, peerMisses, degraded atomic.Int64
	forwards, forwardFailures, warmed         atomic.Int64
}

// forward is one queued verdict on its way to its owner.
type forward struct {
	owner Member
	key   fingerprint.Hash
	entry *vcache.Entry
}

// NewCache builds the fleet cache.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if cfg.Membership == nil || cfg.Local == nil || cfg.Client == nil {
		return nil, fmt.Errorf("cluster: cache needs membership, local store, and client")
	}
	base, cancel := context.WithCancel(context.Background())
	c := &Cache{
		ms:     cfg.Membership,
		local:  cfg.Local,
		client: cfg.Client,
		base:   base,
		cancel: cancel,
		wake:   make(chan struct{}, 1),
	}
	c.forwarder.Add(1)
	go c.forwardLoop()
	return c, nil
}

// Close stops peer traffic: in-flight calls abort, forwards still
// queued are counted as failed (their verdicts are safe locally), the
// forwarder goroutine exits before Close returns, and every later
// Get/Put serves purely locally. Call Flush first to give queued
// forwards their chance. Safe to call more than once.
func (c *Cache) Close() {
	c.cancel()
	c.forwarder.Wait()
}

// Membership exposes the fleet view (stats, tests).
func (c *Cache) Membership() *Membership { return c.ms }

// Local exposes the node's own shard, the store a Shard serves.
func (c *Cache) Local() *vcache.Cache { return c.local }

// Stats returns the LOCAL store's counters, satisfying
// core.VerdictStore: the checker's per-run cache section keys off
// them. Fleet-level counters live in ClusterStats.
func (c *Cache) Stats() *vcache.Stats { return c.local.Stats() }

// ClusterStats snapshots the routing counters.
func (c *Cache) ClusterStats() CacheStats {
	return CacheStats{
		LocalHits:       c.localHits.Load(),
		PeerHits:        c.peerHits.Load(),
		PeerMisses:      c.peerMisses.Load(),
		Degraded:        c.degraded.Load(),
		Forwards:        c.forwards.Load(),
		ForwardFailures: c.forwardFailures.Load(),
		Warmed:          c.warmed.Load(),
	}
}

// ClientStats snapshots the transport-level counters.
func (c *Cache) ClientStats() ClientStats { return c.client.Stats() }

// Get implements core.VerdictStore: GetMany for one key.
func (c *Cache) Get(key fingerprint.Hash) *vcache.Entry {
	return c.GetMany([]fingerprint.Hash{key})[0]
}

// GetMany is the batch upgrade of core.VerdictStore's Get that the
// planner's prefetch uses: one answer per key, at the key's position.
// Routing:
//
//  1. Local store first — self-owned keys, own computed verdicts, and
//     previously warmed copies all answer without network traffic.
//  2. The keys left over are grouped by rendezvous owner and each
//     owner is asked once, all owners concurrently, in one call
//     each. A valid entry is stored locally (lazy warm-up) and
//     returned; an authoritative miss is nil (the checker computes the
//     verdict, and Put forwards it to the owner); any failure —
//     timeout, refusal, open breaker, corrupt bytes — degrades to nil,
//     i.e. a local cold check, for the keys it touched.
//
// Every outcome of step 2 is correct by the vcache contract: nil only
// ever means "compute it yourself", which is always sound.
func (c *Cache) GetMany(keys []fingerprint.Hash) []*vcache.Entry {
	out := make([]*vcache.Entry, len(keys))
	remote := map[string][]int{} // owner ID → positions in keys
	self := c.ms.Self().ID
	for i, key := range keys {
		if e := c.local.Get(key); e != nil {
			c.localHits.Add(1)
			out[i] = e
			continue
		}
		// A self-owned key is ours to answer and we just missed; a
		// closed cache is purely local from here on.
		if owner := c.ms.Owner(key); owner.ID != self && c.base.Err() == nil {
			remote[owner.ID] = append(remote[owner.ID], i)
		}
	}
	var wg sync.WaitGroup
	for _, owner := range c.ms.Members() {
		at := remote[owner.ID]
		if at == nil {
			continue
		}
		if len(remote) == 1 {
			c.fetchFrom(owner, keys, at, out) // no second owner to overlap with
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.fetchFrom(owner, keys, at, out)
		}()
	}
	wg.Wait()
	return out
}

// fetchFrom asks owner for keys[at[...]] in one exchange and fills
// those positions of out.
func (c *Cache) fetchFrom(owner Member, keys []fingerprint.Hash, at []int, out []*vcache.Entry) {
	want := make([]fingerprint.Hash, len(at))
	for j, i := range at {
		want[j] = keys[i]
	}
	for j, got := range c.client.FetchMany(c.base, owner, want) {
		switch {
		case got.Err == nil:
			c.peerHits.Add(1)
			// Lazy warm-up: keep the fetched entry locally so repeated
			// checks of this key stop paying the network round trip. A
			// local store error leaves the entry usable for this call.
			if c.local.Put(want[j], got.Entry) == nil {
				c.warmed.Add(1)
			}
			out[at[j]] = got.Entry
		case errors.Is(got.Err, ErrNotFound):
			c.peerMisses.Add(1)
		default:
			c.degraded.Add(1)
		}
	}
}

// Put implements core.VerdictStore: the verdict lands in the local
// store unconditionally (a node never loses its own work — this is
// also the degradation floor when the owner is unreachable), then is
// queued for the forwarder, which offers it to the key's owner so the
// fleet converges on one authoritative shard per fingerprint. Put does
// not wait for that offer; it is in the queue before Put returns.
// Peers that crashed and rejoined are re-warmed by exactly these
// forwards (plus fetch-side warm-up); there is no separate transfer
// protocol to get wrong.
func (c *Cache) Put(key fingerprint.Hash, e *vcache.Entry) error {
	if err := c.local.Put(key, e); err != nil {
		return err
	}
	owner := c.ms.Owner(key)
	if owner.ID == c.ms.Self().ID {
		return nil
	}
	c.fmu.Lock()
	// Read under the lock the forwarder takes its last look under, so
	// nothing is queued behind a forwarder that has exited.
	closed := c.base.Err() != nil
	full := len(c.queue) >= maxQueuedForwards
	if !closed && !full {
		c.queue = append(c.queue, forward{owner, key, e})
	}
	c.fmu.Unlock()
	switch {
	case closed:
		return nil
	case full:
		// Counted, not fatal: the verdict is safe locally, and the
		// owner converges later via re-forwarded or re-fetched copies.
		c.forwardFailures.Add(1)
		return nil
	}
	select {
	case c.wake <- struct{}{}:
	default: // a signal is already pending; the forwarder will see this entry too
	}
	return nil
}

// forwardLoop is the group-commit forwarder: it sends everything that
// is queued, one batch per owner, and whatever Puts arrive while those
// sends are in flight form the next round. There is no timer — an
// idle forwarder sends a lone verdict at once, a busy one batches as
// much as its own round trips let accumulate.
func (c *Cache) forwardLoop() {
	defer c.forwarder.Done()
	for {
		c.fmu.Lock()
		batch := c.queue
		c.queue = nil
		closed := c.base.Err() != nil
		c.sending = len(batch) > 0
		if !c.sending {
			for _, done := range c.idle {
				close(done)
			}
			c.idle = nil
		}
		c.fmu.Unlock()
		switch {
		case len(batch) > 0:
			c.sendForwards(batch)
		case closed:
			return
		default:
			select {
			case <-c.wake:
			case <-c.base.Done():
			}
		}
	}
}

// sendForwards offers one round of queued verdicts, owner by owner in
// member order; what is still unsent at Close is counted as failed.
func (c *Cache) sendForwards(batch []forward) {
	for _, owner := range c.ms.Members() {
		var keys []fingerprint.Hash
		var entries []*vcache.Entry
		for _, f := range batch {
			if f.owner.ID == owner.ID {
				keys, entries = append(keys, f.key), append(entries, f.entry)
			}
		}
		if len(keys) == 0 {
			continue
		}
		if c.base.Err() != nil {
			c.forwardFailures.Add(int64(len(keys)))
			continue
		}
		errs := c.client.OfferMany(c.base, owner, keys, entries)
		for _, err := range errs {
			if err != nil {
				c.forwardFailures.Add(1) // counted, not fatal, as in Put
			} else {
				c.forwards.Add(1)
			}
		}
	}
}

// Flush waits until the forwarder has nothing queued and nothing in
// flight — every verdict Put so far has been offered to its owner or
// counted as a forward failure — or until ctx is done. It is the
// barrier for an orderly shutdown — Flush, then Close — and for
// scripted runs that need forwards delivered before their next step.
// After Close it returns at once.
func (c *Cache) Flush(ctx context.Context) error {
	c.fmu.Lock()
	if len(c.queue) == 0 && !c.sending {
		c.fmu.Unlock()
		return nil
	}
	done := make(chan struct{})
	c.idle = append(c.idle, done)
	c.fmu.Unlock()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
