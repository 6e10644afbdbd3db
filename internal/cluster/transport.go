package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"entangle/internal/fingerprint"
)

// ErrNotFound is the transport's authoritative miss: the peer was
// reached and answered that it has no entry for the key. It is NOT a
// failure — the client neither retries it nor counts it against the
// peer's circuit breaker.
var ErrNotFound = errors.New("cluster: peer has no entry for key")

// Transport moves encoded verdict-cache entries between peers. Both
// methods carry the exact EVCACHE1 byte format vcache writes to disk —
// versioned header, key fingerprint, payload checksum — so the wire
// inherits the store's defensive decoding: the receiver validates with
// vcache.DecodeEntry and any damage in flight is a miss, never a wrong
// verdict.
//
// Implementations: HTTPTransport (production, over the daemon's
// /v1/peer/verdict endpoints) and sim.Transport (deterministic
// in-memory fleet with fault injection). Errors other than ErrNotFound
// are transport failures and subject to the client's retry policy.
type Transport interface {
	// Fetch returns the peer's encoded entry for key, or ErrNotFound.
	Fetch(ctx context.Context, peer Member, key fingerprint.Hash) ([]byte, error)
	// Offer hands the peer an encoded entry for key to store in its
	// shard. Offers are idempotent: entries are content-addressed, so
	// re-delivering one is harmless.
	Offer(ctx context.Context, peer Member, key fingerprint.Hash, data []byte) error
}

// maxWireEntry bounds how many bytes Fetch will read from a peer: a
// defensive cap against a misbehaving peer streaming garbage, mirroring
// the server side's MaxBytesReader on the offer path.
const maxWireEntry = 16 << 20

// HTTPTransport reaches peers over the daemon's /v1/peer/verdict
// endpoints. Safe for concurrent use.
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

func peerURL(peer Member, key fingerprint.Hash) string {
	return fmt.Sprintf("%s/v1/peer/verdict?key=%s", peer.URL, url.QueryEscape(key.Hex()))
}

// Fetch GETs the peer's entry. 404 is ErrNotFound; any other non-200
// status, connection error, or timeout is a transport failure.
func (t *HTTPTransport) Fetch(ctx context.Context, peer Member, key fingerprint.Hash) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peerURL(peer, key), nil)
	if err != nil {
		return nil, err
	}
	resp, err := t.client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxWireEntry))
		if err != nil {
			return nil, err
		}
		return data, nil
	case http.StatusNotFound:
		return nil, ErrNotFound
	}
	return nil, fmt.Errorf("cluster: peer %s: fetch status %s", peer.ID, resp.Status)
}

// Offer PUTs an encoded entry into the peer's shard.
func (t *HTTPTransport) Offer(ctx context.Context, peer Member, key fingerprint.Hash, data []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, peerURL(peer, key), bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := t.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: peer %s: offer status %s", peer.ID, resp.Status)
	}
	return nil
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
