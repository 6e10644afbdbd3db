package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"entangle/internal/cluster"
	"entangle/internal/core"
	"entangle/internal/egraph"
	"entangle/internal/fingerprint"
	"entangle/internal/lemmas"
	"entangle/internal/vcache"
)

// replyWith is an http.RoundTripper that answers every request 200 with
// a fixed body: a peer whose reply is whatever the fuzzer wrote.
type replyWith []byte

func (b replyWith) RoundTrip(*http.Request) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(bytes.NewReader(b)), Header: http.Header{}}, nil
}

// FuzzPeerFrames feeds arbitrary bytes to both ends of the peer wire —
// as an offered batch PUT to a fleet node, and as a peer's reply to the
// shipped client's batch fetch — and holds both to the per-frame safety
// contract: no panic, nothing that fails vcache.DecodeEntry under its
// frame's key is ever stored or returned, a frame that passes is, and a
// stream that does not parse is refused as a whole.
func FuzzPeerFrames(f *testing.F) {
	k1, k2 := fingerprint.Hash{1}, fingerprint.Hash{2}
	entry := func(key fingerprint.Hash, out string) cluster.Frame {
		data, err := vcache.EncodeEntry(key, vcache.Refined(key, 0, egraph.Stats{}, [][]string{{out}}))
		if err != nil {
			f.Fatal(err)
		}
		return cluster.Frame{Key: key, Data: data}
	}
	f1, f2 := entry(k1, "I0"), entry(k2, "I1")
	good := cluster.EncodeFrames([]cluster.Frame{f1, f2})
	overlong := append(append([]byte(nil), k1[:]...), 1)
	overlong = binary.BigEndian.AppendUint32(overlong, 1<<31)
	flipped := append([]byte(nil), f1.Data...)
	flipped[len(flipped)-1] ^= 1
	for _, seed := range [][]byte{
		nil,
		good,
		good[:len(good)-7],                      // truncated stream
		append(overlong, f1.Data...),            // overlong length
		append(append([]byte(nil), good...), 9), // trailing garbage
		cluster.EncodeFrames([]cluster.Frame{{Key: k1, Data: []byte{}}, f2}),           // zero-length frame
		cluster.EncodeFrames([]cluster.Frame{f1, {Key: k1, Data: flipped}, f1}),        // duplicate keys, one damaged
		cluster.EncodeFrames([]cluster.Frame{{Key: k1, Data: f2.Data}, f2, {Key: k2}}), // key/payload mismatch, bare frame
	} {
		f.Add(seed)
	}

	registry := lemmas.Default() // built once: the node under test is new per input
	f.Fuzz(func(t *testing.T, wire []byte) {
		// The oracle: the frames a reader sees before the stream ends or
		// stops parsing, and which of them are entries.
		var frames []cluster.Frame
		var keys []fingerprint.Hash
		valid := map[fingerprint.Hash]bool{}
		parsed := false
		for fr := cluster.NewFrameReader(bytes.NewReader(wire)); ; {
			fm, err := fr.Next()
			if err != nil {
				parsed = err == io.EOF
				break
			}
			frames, keys = append(frames, fm), append(keys, fm.Key)
			if _, err := vcache.DecodeEntry(fm.Key, fm.Data); err == nil {
				valid[fm.Key] = true
			}
		}

		// As an offered batch.
		vc, err := vcache.Open(vcache.Config{})
		if err != nil {
			t.Fatal(err)
		}
		srv := New(Config{Options: core.Options{Cache: vc, Registry: registry}, Local: vc})
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/peer/verdicts", bytes.NewReader(wire)))
		if want := map[bool]int{true: http.StatusOK, false: http.StatusBadRequest}[parsed]; rec.Code != want {
			t.Fatalf("offer: status %d, want %d (stream parsed: %v)", rec.Code, want, parsed)
		}
		for _, key := range keys {
			if stored := vc.Get(key) != nil; stored != valid[key] {
				t.Fatalf("offer: key %s stored = %v, but a frame of it passing DecodeEntry = %v", key.Hex(), stored, valid[key])
			}
		}
		if parsed {
			refused := map[fingerprint.Hash]bool{}
			for fr := cluster.NewFrameReader(rec.Body); ; {
				fm, err := fr.Next()
				if err == io.EOF {
					break
				}
				if err != nil || fm.Data != nil {
					t.Fatalf("offer: reply is not a list of keys: %+v, %v", fm, err)
				}
				refused[fm.Key] = true
			}
			for _, fm := range frames {
				if _, err := vcache.DecodeEntry(fm.Key, fm.Data); (err != nil) && !refused[fm.Key] {
					t.Fatalf("offer: a frame of key %s failed DecodeEntry and was not reported refused", fm.Key.Hex())
				}
			}
		}

		// As a peer's reply to a fetch of exactly the keys it carries.
		if len(keys) == 0 {
			keys = []fingerprint.Hash{k1}
		}
		client := cluster.NewClient(cluster.ClientConfig{
			Transport: &cluster.HTTPTransport{Client: &http.Client{Transport: replyWith(wire)}},
			Timeout:   time.Minute,
		})
		for i, got := range client.FetchMany(context.Background(), cluster.Member{ID: "p", URL: "http://peer"}, keys) {
			if !parsed || len(frames) == 0 {
				if got.Entry != nil || got.Err == nil {
					t.Fatalf("fetch: key %d answered from a reply that does not parse or carries nothing", i)
				}
				continue
			}
			_, derr := vcache.DecodeEntry(keys[i], frames[i].Data)
			if (got.Entry != nil) != (derr == nil) || (got.Entry == nil) == (got.Err == nil) {
				t.Fatalf("fetch: key %d returned entry=%v err=%v, its frame's DecodeEntry says %v", i, got.Entry != nil, got.Err, derr)
			}
		}
	})
}
