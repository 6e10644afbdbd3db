package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"entangle/internal/fingerprint"
	"entangle/internal/vcache"
)

// ClientStats counts the client's peer traffic. Every field but
// RoundTrips counts verdicts (keys), however many shared a call, so
// keys per round trip is (fetches + offers) / RoundTrips. All fields
// are monotone; Stats returns a plain copy.
type ClientStats struct {
	FetchHits     int64 `json:"fetch_hits"`     // fetches that returned a valid entry
	FetchMisses   int64 `json:"fetch_misses"`   // authoritative peer misses (ErrNotFound)
	FetchFailures int64 `json:"fetch_failures"` // fetches lost to a failed call, an open breaker or a corrupt frame
	FetchCorrupt  int64 `json:"fetch_corrupt"`  // replies rejected by DecodeEntry
	Offers        int64 `json:"offers"`         // successful verdict forwards
	OfferFailures int64 `json:"offer_failures"` // forwards lost to a failed call, an open breaker or a refusal
	// Retries is always 0: a call makes one attempt. The field stays
	// until the stats types are merged (ROADMAP item 1(b)), so /v1/stats
	// and the benchmark keep their shape.
	Retries        int64 `json:"retries"`
	BreakerSkips   int64 `json:"breaker_skips"`   // calls skipped by an open breaker
	BreakerReopens int64 `json:"breaker_reopens"` // failed half-open probes
	RoundTrips     int64 `json:"round_trips"`     // batch calls the transport carried
}

// Client is the peer caller: Transport plus a per-call timeout and
// per-peer circuit breakers. Safe for concurrent use.
type Client struct {
	transport Transport
	timeout   time.Duration
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
	// Timeout bounds one peer call, a batch fetch or a batch offer
	// (0 = DefaultTimeout).
	Timeout time.Duration
	// Clock is the breakers' time seam (nil = RealClock).
	Clock Clock
}

// DefaultTimeout bounds one peer call.
const DefaultTimeout = 2 * time.Second

// NewClient builds a client.
func NewClient(cfg ClientConfig) *Client {
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock{}
	}
	return &Client{
		transport: cfg.Transport,
		timeout:   cfg.Timeout,
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
		b = newBreaker(c.clock)
		c.breakers[peer.ID] = b
	}
	return b
}

// errBreakerOpen distinguishes breaker skips from transport failures.
var errBreakerOpen = errors.New("cluster: breaker open")

// call runs op against peer once, under the client's timeout, with the
// peer's circuit breaker around it. One call is one batch: the breaker
// sees round trips, not keys. A failed call is not retried — its keys
// degrade to the local path, which a second attempt at an unreachable
// peer could only delay.
func (c *Client) call(ctx context.Context, peer Member, op func(context.Context) error) error {
	br := c.peerBreaker(peer)
	if !br.Allow() {
		c.count(func(s *ClientStats) { s.BreakerSkips++ })
		return errBreakerOpen
	}
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	err := op(ctx)
	cancel()
	c.count(func(s *ClientStats) { s.RoundTrips++ })
	if err == nil {
		br.Success()
	} else if br.Failure() {
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
	err := c.call(ctx, peer, func(ctx context.Context) error {
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
		err := c.call(ctx, peer, func(ctx context.Context) error {
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
