package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
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

// ClientStats counts the client's peer traffic. Every field but
// RoundTrips counts verdicts (keys), however many shared a call, so
// keys per round trip is (fetches + offers) / RoundTrips. All fields
// are monotone; Stats returns a plain copy.
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
	RoundTrips     int64 `json:"round_trips"`     // batch calls the transport carried, retries included
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
// accounting around the whole exchange. One call is one batch: the
// peer's circuit breaker and the retry budget see round trips, not
// keys. A context already cancelled or expiring mid-backoff aborts
// without burning remaining attempts.
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
		c.count(func(s *ClientStats) { s.RoundTrips++ })
		if err == nil {
			br.Success()
			return nil
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

// Fetched is one key's outcome of a FetchMany: Entry on a hit,
// otherwise Err — ErrNotFound for the peer's authoritative miss,
// anything else a reason to degrade to the local path.
type Fetched struct {
	Entry *vcache.Entry
	Err   error
}

// FetchMany retrieves the peer's entries for keys, in as few round
// trips as maxBatchKeys allows, and reports each key's outcome at its
// position. The fetcher's side of the decode gate (see Frame) is here:
// a corrupt or truncated frame is an error for that key (counted as
// FetchCorrupt), never a wrong verdict and never its neighbours'
// problem. A call that fails as a whole fails every key it carried.
func (c *Client) FetchMany(ctx context.Context, peer Member, keys []fingerprint.Hash) []Fetched {
	out := make([]Fetched, len(keys))
	for lo := 0; lo < len(keys); lo += maxBatchKeys {
		hi := min(lo+maxBatchKeys, len(keys))
		c.fetchBatch(ctx, peer, keys[lo:hi], out[lo:hi])
	}
	return out
}

func (c *Client) fetchBatch(ctx context.Context, peer Member, keys []fingerprint.Hash, out []Fetched) {
	var frames []Frame
	err := c.call(ctx, peer, batchLabel("fetch", peer, keys[0], len(keys)), func(ctx context.Context) error {
		var err error
		frames, err = c.transport.FetchMany(ctx, peer, keys)
		if err == nil && len(frames) != len(keys) {
			err = fmt.Errorf("%w: %d frames for %d keys", ErrMalformedFrames, len(frames), len(keys))
		}
		return err
	})
	var st ClientStats
	for i, key := range keys {
		switch {
		case err != nil:
			st.FetchFailures++
			out[i].Err = err
		case frames[i].Data == nil:
			st.FetchMisses++
			out[i].Err = ErrNotFound
		default:
			e, derr := vcache.DecodeEntry(key, frames[i].Data)
			if derr != nil {
				// The peer answered with bytes that fail validation: the
				// local cold check takes over for this key, and the
				// counter shows a peer worth alerting on.
				st.FetchCorrupt++
				st.FetchFailures++
				out[i].Err = fmt.Errorf("cluster: peer %s returned corrupt entry: %v", peer.ID, derr)
				continue
			}
			st.FetchHits++
			out[i].Entry = e
		}
	}
	c.count(func(s *ClientStats) {
		s.FetchHits += st.FetchHits
		s.FetchMisses += st.FetchMisses
		s.FetchFailures += st.FetchFailures
		s.FetchCorrupt += st.FetchCorrupt
	})
}

// Fetch is FetchMany for one key.
func (c *Client) Fetch(ctx context.Context, peer Member, key fingerprint.Hash) (*vcache.Entry, error) {
	got := c.FetchMany(ctx, peer, []fingerprint.Hash{key})[0]
	return got.Entry, got.Err
}

// OfferMany forwards entries to their owner, cutting the batch at
// maxBatchBytes, and reports each key's outcome at its position (nil =
// the peer stored it). Failures are counted and returned but are never
// fatal to the forwarding node: its local store already holds the
// verdicts. A key the peer refused fails alone; a call that fails as a
// whole fails every key it carried.
func (c *Client) OfferMany(ctx context.Context, peer Member, keys []fingerprint.Hash, entries []*vcache.Entry) []error {
	errs := make([]error, len(keys))
	var (
		frames []Frame
		at     []int // frames[j] is keys[at[j]]
		size   int
	)
	send := func() {
		if len(frames) == 0 {
			return
		}
		var refused []fingerprint.Hash
		err := c.call(ctx, peer, batchLabel("offer", peer, frames[0].Key, len(frames)), func(ctx context.Context) error {
			var err error
			refused, err = c.transport.OfferMany(ctx, peer, frames)
			return err
		})
		for j, i := range at {
			switch {
			case err != nil:
				errs[i] = err
			case slices.Contains(refused, frames[j].Key):
				errs[i] = fmt.Errorf("cluster: peer %s refused the entry", peer.ID)
			}
		}
		frames, at, size = frames[:0], at[:0], 0
	}
	for i, key := range keys {
		data, err := vcache.EncodeEntry(key, entries[i])
		if err != nil {
			errs[i] = err
			continue
		}
		if size+len(data) > maxBatchBytes {
			send()
		}
		frames, at, size = append(frames, Frame{Key: key, Data: data}), append(at, i), size+len(data)
	}
	send()
	failed := 0
	for _, err := range errs {
		if err != nil {
			failed++
		}
	}
	c.count(func(s *ClientStats) {
		s.Offers += int64(len(errs) - failed)
		s.OfferFailures += int64(failed)
	})
	return errs
}

// Offer is OfferMany for one entry.
func (c *Client) Offer(ctx context.Context, peer Member, key fingerprint.Hash, e *vcache.Entry) error {
	return c.OfferMany(ctx, peer, []fingerprint.Hash{key}, []*vcache.Entry{e})[0]
}

// batchLabel names one batch call for the backoff jitter hash.
func batchLabel(verb string, peer Member, first fingerprint.Hash, n int) string {
	return verb + "/" + peer.ID + "/" + first.Hex() + "+" + strconv.Itoa(n)
}
