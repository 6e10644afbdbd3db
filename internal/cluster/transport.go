package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"entangle/internal/fingerprint"
)

// ErrNotFound is an authoritative miss: the peer was reached and
// answered that it has no entry for the key. It is NOT a failure — it
// is neither retried nor counted against the peer's circuit breaker.
var ErrNotFound = errors.New("cluster: peer has no entry for key")

// Transport moves batches of frames (frame.go) between peers, one round
// trip per call; what a batch means to the peer is Shard's business.
// Implementations: HTTPTransport (production, over the daemon's
// PeerPath endpoint) and the simulator's in-memory transport with fault
// injection. An error fails the whole call and is subject to the
// client's retry policy.
type Transport interface {
	// FetchMany asks the peer for its entries under keys. The reply has
	// one frame per key, in the order asked; a frame without Data is
	// the peer's authoritative miss for that key.
	FetchMany(ctx context.Context, peer Member, keys []fingerprint.Hash) ([]Frame, error)
	// OfferMany hands the peer entries to store in its shard and
	// returns the keys it refused — frames that failed its decode gate
	// or its store. Offers are idempotent: entries are
	// content-addressed, so re-delivering one is harmless.
	OfferMany(ctx context.Context, peer Member, frames []Frame) (refused []fingerprint.Hash, err error)
}

// maxWireEntry bounds the bytes of one frame read from a peer: a
// defensive cap against a misbehaving peer streaming garbage, on both
// the fetching client and the daemon's offer path.
const maxWireEntry = 16 << 20

// HTTPTransport reaches peers over the daemon's PeerPath endpoint: POST
// fetches, PUT offers, both bodies and both replies frame streams. Safe
// for concurrent use.
type HTTPTransport struct {
	// Client is the underlying HTTP client; nil selects
	// http.DefaultClient. Per-attempt deadlines arrive via ctx (the
	// cluster client applies its AttemptTimeout), so the http.Client
	// needs no Timeout of its own.
	Client *http.Client
}

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return http.DefaultClient
}

// exchange sends one batch and hands the 200 reply's frames to each.
// The body is a sized in-memory reader, so net/http can replay it on a
// connection the peer closed between requests; the reply is drained
// (bounded) before it is closed on every status, so a refusal does not
// cost the keep-alive connection.
func (t *HTTPTransport) exchange(ctx context.Context, method string, peer Member, frames []Frame, each func(Frame) error) error {
	req, err := http.NewRequestWithContext(ctx, method, peer.URL+PeerPath, bytes.NewReader(EncodeFrames(frames)))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := t.client().Do(req)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: peer %s: %s status %s", peer.ID, method, resp.Status)
	}
	fr := NewFrameReader(resp.Body)
	for {
		f, err := fr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := each(f); err != nil {
			return err
		}
	}
}

// FetchMany POSTs the keys and reads back one frame per key. A reply
// that is not exactly the keys asked, in order, is malformed.
func (t *HTTPTransport) FetchMany(ctx context.Context, peer Member, keys []fingerprint.Hash) ([]Frame, error) {
	asked := make([]Frame, len(keys))
	for i, key := range keys {
		asked[i].Key = key
	}
	reply := make([]Frame, 0, len(keys))
	err := t.exchange(ctx, http.MethodPost, peer, asked, func(f Frame) error {
		if len(reply) == len(keys) || f.Key != keys[len(reply)] {
			return fmt.Errorf("%w: reply is not the keys asked", ErrMalformedFrames)
		}
		reply = append(reply, f)
		return nil
	})
	if err == nil && len(reply) != len(keys) {
		err = fmt.Errorf("%w: %d frames for %d keys", ErrMalformedFrames, len(reply), len(keys))
	}
	if err != nil {
		return nil, err
	}
	return reply, nil
}

// OfferMany PUTs the frames; the reply names the keys the peer refused.
func (t *HTTPTransport) OfferMany(ctx context.Context, peer Member, frames []Frame) ([]fingerprint.Hash, error) {
	var refused []fingerprint.Hash
	err := t.exchange(ctx, http.MethodPut, peer, frames, func(f Frame) error {
		refused = append(refused, f.Key)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return refused, nil
}

// Clock is the time seam for everything in this package that waits:
// backoff sleeps and breaker cooldowns route through it, so production
// uses the real clock while tests and the simulator substitute an
// instant one — keeping chaos runs fast and the package inside the
// determinism lint's contract (no direct wall-clock reads on decision
// paths).
type Clock interface {
	// Now returns the current time (breaker cooldown bookkeeping).
	Now() time.Time
	// Sleep waits for d or until ctx is done, returning ctx.Err() in
	// the latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

// RealClock is the production Clock.
type RealClock struct{}

// Now returns the wall-clock time.
func (RealClock) Now() time.Time {
	//lint:ignore determinism the breaker cooldown is wall-clock by design; tests inject a fake Clock
	return time.Now()
}

// Sleep waits for d, or returns early with ctx.Err().
func (RealClock) Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
