package cluster

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"entangle/internal/det"
	"entangle/internal/fingerprint"
	"entangle/internal/vcache"
)

// RetryPolicy bounds how hard the client tries to reach a peer before
// degrading. Every remote interaction is governed by one: per-attempt
// timeouts keep a slow link from stalling a worker, bounded attempts
// keep a dead peer from consuming unbounded wall clock, and capped
// exponential backoff with deterministic seeded jitter spaces the
// attempts without synchronizing retry storms across workers.
type RetryPolicy struct {
	// Attempts is the total number of tries (0 = DefaultAttempts).
	Attempts int
	// AttemptTimeout bounds each individual try
	// (0 = DefaultAttemptTimeout).
	AttemptTimeout time.Duration
	// BackoffBase is the delay before the second attempt; it doubles
	// per attempt (0 = DefaultBackoffBase).
	BackoffBase time.Duration
	// BackoffCap caps the grown delay (0 = DefaultBackoffCap).
	BackoffCap time.Duration
	// JitterSeed drives the deterministic jitter hash. Two clients
	// with the same seed back off identically for the same (peer, key,
	// attempt) — reproducible under test, decorrelated across distinct
	// keys in production.
	JitterSeed uint64
}

const (
	DefaultAttempts       = 3
	DefaultAttemptTimeout = 2 * time.Second
	DefaultBackoffBase    = 50 * time.Millisecond
	DefaultBackoffCap     = 2 * time.Second
)

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = DefaultAttempts
	}
	if p.AttemptTimeout <= 0 {
		p.AttemptTimeout = DefaultAttemptTimeout
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = DefaultBackoffBase
	}
	if p.BackoffCap <= 0 {
		p.BackoffCap = DefaultBackoffCap
	}
	return p
}

// backoff returns the pause before attempt (1-based: the pause taken
// after attempt failures), with the exponential growth capped and the
// result jittered into [half, full] by a pure hash of (seed, label,
// attempt) — no shared rand state, no lock, schedule-independent.
func (p RetryPolicy) backoff(label string, attempt int) time.Duration {
	d := p.BackoffBase << (attempt - 1)
	if d > p.BackoffCap || d <= 0 {
		d = p.BackoffCap
	}
	// Jitter in [0.5, 1.0): splitmix64 over (seed, label, attempt).
	u := det.Unit(det.Mix(det.String(p.JitterSeed, label) ^ uint64(attempt)))
	return time.Duration(float64(d) * (0.5 + 0.5*u))
}

// ClientStats counts the client's peer traffic. All fields are
// monotone; Snapshot returns a plain copy.
type ClientStats struct {
	FetchHits      int64 `json:"fetch_hits"`      // fetches that returned a valid entry
	FetchMisses    int64 `json:"fetch_misses"`    // authoritative peer misses (ErrNotFound)
	FetchFailures  int64 `json:"fetch_failures"`  // fetches abandoned after retries/breaker
	FetchCorrupt   int64 `json:"fetch_corrupt"`   // replies rejected by DecodeEntry
	Offers         int64 `json:"offers"`          // successful verdict forwards
	OfferFailures  int64 `json:"offer_failures"`  // forwards abandoned after retries/breaker
	Retries        int64 `json:"retries"`         // extra attempts beyond the first
	BreakerSkips   int64 `json:"breaker_skips"`   // calls skipped by an open breaker
	BreakerReopens int64 `json:"breaker_reopens"` // failed half-open probes
}

// Client is the hardened peer caller: Transport plus retry policy,
// backoff, and per-peer circuit breakers. Safe for concurrent use.
type Client struct {
	transport Transport
	policy    RetryPolicy
	breaker   BreakerConfig
	clock     Clock

	mu       sync.Mutex
	breakers map[string]*breaker

	stats struct {
		sync.Mutex
		ClientStats
	}
}

// ClientConfig assembles a Client.
type ClientConfig struct {
	Transport Transport
	Policy    RetryPolicy
	Breaker   BreakerConfig
	// Clock is the time seam (nil = RealClock).
	Clock Clock
}

// NewClient builds a client.
func NewClient(cfg ClientConfig) *Client {
	if cfg.Clock == nil {
		cfg.Clock = RealClock{}
	}
	return &Client{
		transport: cfg.Transport,
		policy:    cfg.Policy.withDefaults(),
		breaker:   cfg.Breaker,
		clock:     cfg.Clock,
		breakers:  map[string]*breaker{},
	}
}

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() ClientStats {
	c.stats.Lock()
	defer c.stats.Unlock()
	return c.stats.ClientStats
}

func (c *Client) count(f func(*ClientStats)) {
	c.stats.Lock()
	f(&c.stats.ClientStats)
	c.stats.Unlock()
}

// peerBreaker returns (creating on first use) the peer's breaker.
func (c *Client) peerBreaker(peer Member) *breaker {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.breakers[peer.ID]
	if !ok {
		b = newBreaker(c.breaker, c.clock)
		c.breakers[peer.ID] = b
	}
	return b
}

// BreakerOpen reports whether the peer's breaker is currently open
// (stats/debugging).
func (c *Client) BreakerOpen(peer Member) bool {
	return c.peerBreaker(peer).Open()
}

// errBreakerOpen distinguishes breaker skips from transport failures.
var errBreakerOpen = errors.New("cluster: breaker open")

// call runs op against peer under the retry policy: per-attempt
// timeout, capped jittered backoff between attempts, breaker
// accounting around the whole exchange. ErrNotFound is returned
// immediately (an answer, not a failure). A context already cancelled
// or expiring mid-backoff aborts without burning remaining attempts.
func (c *Client) call(ctx context.Context, peer Member, label string, op func(context.Context) error) error {
	br := c.peerBreaker(peer)
	if !br.Allow() {
		c.count(func(s *ClientStats) { s.BreakerSkips++ })
		return errBreakerOpen
	}
	var err error
	for attempt := 1; ; attempt++ {
		attemptCtx, cancel := context.WithTimeout(ctx, c.policy.AttemptTimeout)
		err = op(attemptCtx)
		cancel()
		if err == nil || errors.Is(err, ErrNotFound) {
			br.Success()
			return err
		}
		if ctx.Err() != nil || attempt >= c.policy.Attempts {
			break
		}
		c.count(func(s *ClientStats) { s.Retries++ })
		if serr := c.clock.Sleep(ctx, c.policy.backoff(label+"#"+strconv.Itoa(attempt), attempt)); serr != nil {
			break
		}
	}
	if br.Failure() {
		c.count(func(s *ClientStats) { s.BreakerReopens++ })
	}
	return err
}

// Fetch retrieves and validates the peer's entry for key. The reply is
// decoded with vcache.DecodeEntry — the exact defensive gate the disk
// store uses — so a corrupt or truncated reply is an error (counted as
// FetchCorrupt), never a wrong verdict. ErrNotFound is an authoritative
// miss. Any other error means the caller should degrade to its local
// path.
func (c *Client) Fetch(ctx context.Context, peer Member, key fingerprint.Hash) (*vcache.Entry, error) {
	var data []byte
	err := c.call(ctx, peer, "fetch/"+peer.ID+"/"+key.Hex(), func(ctx context.Context) error {
		var err error
		data, err = c.transport.Fetch(ctx, peer, key)
		return err
	})
	switch {
	case errors.Is(err, ErrNotFound):
		c.count(func(s *ClientStats) { s.FetchMisses++ })
		return nil, ErrNotFound
	case err != nil:
		c.count(func(s *ClientStats) { s.FetchFailures++ })
		return nil, err
	}
	e, err := vcache.DecodeEntry(key, data)
	if err != nil {
		// The peer answered, but with bytes that fail validation:
		// treat as a degradation-worthy failure (the local cold check
		// takes over), and surface it in the counters — a persistently
		// corrupt peer is worth alerting on.
		c.count(func(s *ClientStats) { s.FetchCorrupt++; s.FetchFailures++ })
		return nil, fmt.Errorf("cluster: peer %s returned corrupt entry: %v", peer.ID, err)
	}
	c.count(func(s *ClientStats) { s.FetchHits++ })
	return e, nil
}

// Offer forwards an entry to the key's owner. Failures are counted and
// returned but are never fatal to the forwarding node: its local store
// already holds the verdict.
func (c *Client) Offer(ctx context.Context, peer Member, key fingerprint.Hash, e *vcache.Entry) error {
	data, err := vcache.EncodeEntry(key, e)
	if err != nil {
		c.count(func(s *ClientStats) { s.OfferFailures++ })
		return err
	}
	err = c.call(ctx, peer, "offer/"+peer.ID+"/"+key.Hex(), func(ctx context.Context) error {
		return c.transport.Offer(ctx, peer, key, data)
	})
	if err != nil {
		c.count(func(s *ClientStats) { s.OfferFailures++ })
		return err
	}
	c.count(func(s *ClientStats) { s.Offers++ })
	return nil
}
