package cluster

import (
	"bufio"
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

// TestStaleKeepAliveConnectionIsReplayed: a peer may close a kept-alive
// connection just as the next batch goes out on it (its idle timeout
// shorter than the client's). Both peer calls are idempotent, so the
// batch is re-sent on a fresh connection instead of failing the call.
func TestStaleKeepAliveConnectionIsReplayed(t *testing.T) {
	for _, method := range []string{http.MethodPost, http.MethodPut} {
		t.Run(method, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			var conns atomic.Int32
			served := make(chan struct{})
			go func() {
				defer close(served)
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					first := conns.Add(1) == 1
					// Answer each request with an authoritative miss (a
					// fetch) or nothing refused (an offer) — except the
					// second request on the first connection, which is
					// read and then hung up on.
					r := bufio.NewReader(conn)
					for served := 0; ; served++ {
						req, err := http.ReadRequest(r)
						if err != nil {
							break
						}
						_, _ = io.Copy(io.Discard, req.Body)
						if first && served == 1 {
							break
						}
						var reply []byte
						if req.Method == http.MethodPost {
							reply = EncodeFrames([]Frame{{Key: testKey(0)}})
						}
						resp := &http.Response{StatusCode: http.StatusOK, ProtoMajor: 1, ProtoMinor: 1,
							ContentLength: int64(len(reply)), Body: io.NopCloser(bytes.NewReader(reply))}
						if resp.Write(conn) != nil {
							break
						}
					}
					conn.Close()
				}
			}()

			client := &http.Transport{}
			defer func() {
				// Ends the peer's read on the kept-alive connection, then
				// its Accept; the goroutine is gone before the test is.
				client.CloseIdleConnections()
				ln.Close()
				<-served
			}()
			tr := &HTTPTransport{Client: &http.Client{Transport: client}}
			peer := Member{ID: "p", URL: "http://" + ln.Addr().String()}
			call := func() error {
				if method == http.MethodPost {
					_, err := tr.FetchMany(context.Background(), peer, []fingerprint.Hash{testKey(0)})
					return err
				}
				_, err := tr.OfferMany(context.Background(), peer, []Frame{{Key: testKey(0), Data: []byte("x")}})
				return err
			}
			for i := 0; i < 2; i++ {
				if err := call(); err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
			}
			if n := conns.Load(); n != 2 {
				t.Fatalf("%d connections, want the first closed under the second call and one fresh", n)
			}
		})
	}
}
