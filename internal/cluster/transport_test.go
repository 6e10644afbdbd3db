package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"entangle/internal/fingerprint"
)

// TestOfferSendsSizedReplayableBody: net/http derives ContentLength and
// GetBody only from the body types it knows, so an offer must hand it
// one — otherwise every PUT goes out chunked and cannot be re-sent on a
// connection the peer closed between requests.
func TestOfferSendsSizedReplayableBody(t *testing.T) {
	frames := []Frame{
		{Key: testKey(1), Data: bytes.Repeat([]byte("EVCACHE1"), 100)},
		{Key: testKey(2), Data: []byte("second")},
	}
	want := EncodeFrames(frames)
	var length int64
	var encoding []string
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		length, encoding = r.ContentLength, r.TransferEncoding
		got, _ := io.ReadAll(r.Body)
		if !bytes.Equal(got, want) {
			t.Errorf("peer read %d bytes, want the %d offered", len(got), len(want))
		}
		// The second frame is refused.
		_, _ = w.Write(EncodeFrames([]Frame{{Key: frames[1].Key}}))
	}))
	defer peer.Close()

	tr := &HTTPTransport{}
	refused, err := tr.OfferMany(context.Background(), Member{ID: "p", URL: peer.URL}, frames)
	if err != nil {
		t.Fatal(err)
	}
	if length != int64(len(want)) || len(encoding) != 0 {
		t.Fatalf("peer saw ContentLength %d, TransferEncoding %v; want %d and none", length, encoding, len(want))
	}
	if len(refused) != 1 || refused[0] != frames[1].Key {
		t.Fatalf("refused = %v, want the second key", refused)
	}
}

// TestBatchPathKeepsConnection: a reply body closed unread costs the
// keep-alive connection, so every status of the batch path is drained
// before it is closed — 50 misses, and 50 refusals, travel on one TCP
// connection. (The single-key GET this path replaced closed each 404
// and 503 unread: 50 connections for 50 misses.)
func TestBatchPathKeepsConnection(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status int
	}{
		{"misses", http.StatusOK},
		{"draining", http.StatusServiceUnavailable},
		{"refused", http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var conns atomic.Int32
			peer := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				_, _ = io.Copy(io.Discard, r.Body)
				if tc.status != http.StatusOK {
					http.Error(w, "no", tc.status)
					return
				}
				_, _ = w.Write(EncodeFrames([]Frame{{Key: testKey(0)}})) // authoritative miss
			}))
			peer.Config.ConnState = func(_ net.Conn, s http.ConnState) {
				if s == http.StateNew {
					conns.Add(1)
				}
			}
			peer.Start()
			defer peer.Close()

			tr := &HTTPTransport{Client: &http.Client{Transport: &http.Transport{}}}
			m := Member{ID: "p", URL: peer.URL}
			for i := 0; i < 50; i++ {
				frames, err := tr.FetchMany(context.Background(), m, []fingerprint.Hash{testKey(0)})
				if (err == nil) != (tc.status == http.StatusOK) {
					t.Fatalf("fetch %d: frames %v, err %v", i, frames, err)
				}
				_, err = tr.OfferMany(context.Background(), m, []Frame{{Key: testKey(0), Data: []byte("x")}})
				if (err == nil) != (tc.status == http.StatusOK) {
					t.Fatalf("offer %d: err %v", i, err)
				}
			}
			if n := conns.Load(); n > 1 {
				t.Fatalf("100 exchanges opened %d connections, want at most 1", n)
			}
		})
	}
}

// TestFetchReplyMustMatchKeysAsked: a reply that parses but is not the
// keys asked, in order, says nothing trustworthy about any key.
func TestFetchReplyMustMatchKeysAsked(t *testing.T) {
	keys := []fingerprint.Hash{testKey(1), testKey(2)}
	for name, reply := range map[string][]Frame{
		"short":     {{Key: keys[0]}},
		"long":      {{Key: keys[0]}, {Key: keys[1]}, {Key: keys[1]}},
		"reordered": {{Key: keys[1]}, {Key: keys[0]}},
		"foreign":   {{Key: keys[0]}, {Key: testKey(3)}},
	} {
		peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = w.Write(EncodeFrames(reply))
		}))
		_, err := (&HTTPTransport{}).FetchMany(context.Background(), Member{ID: "p", URL: peer.URL}, keys)
		peer.Close()
		if !errors.Is(err, ErrMalformedFrames) {
			t.Errorf("%s reply: err %v, want ErrMalformedFrames", name, err)
		}
	}
}
