package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"entangle/internal/cluster"
	"entangle/internal/core"
	"entangle/internal/egraph"
	"entangle/internal/fingerprint"
	"entangle/internal/models"
	"entangle/internal/vcache"
)

// newPeerServer builds a daemon with a local verdict shard wired to the
// peer endpoints (a fleet node's configuration).
func newPeerServer(t *testing.T) (*Server, *httptest.Server, *vcache.Cache) {
	t.Helper()
	vc, err := vcache.Open(vcache.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Options: core.Options{Cache: vc}, Local: vc})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, vc
}

func peerURL(ts *httptest.Server) string { return ts.URL + "/v1/peer/verdicts" }

// doPeer sends one batch and returns the status and, on 200, the
// reply's frames.
func doPeer(t *testing.T, method, url string, body []byte) (int, []vcache.Frame) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	var frames []vcache.Frame
	fr := vcache.NewFrameReader(resp.Body)
	for {
		f, err := fr.Next()
		if err == io.EOF {
			return resp.StatusCode, frames
		}
		if err != nil {
			t.Fatalf("reply does not parse as frames: %v", err)
		}
		frames = append(frames, f)
	}
}

func keysOf(keys ...fingerprint.Hash) []byte {
	frames := make([]vcache.Frame, len(keys))
	for i, key := range keys {
		frames[i].Key = key
	}
	return vcache.EncodeFrames(frames)
}

func peerEntry(t *testing.T, key fingerprint.Hash, out string) (*vcache.Entry, vcache.Frame) {
	t.Helper()
	e := vcache.Refined(key, 0, egraph.Stats{}, [][]string{{out}})
	data, err := vcache.EncodeEntry(key, e)
	if err != nil {
		t.Fatal(err)
	}
	return e, vcache.Frame{Key: key, Data: data}
}

// TestPeerVerdictRoundTrip drives the fleet exchange end to end over
// real HTTP: a miss is an authoritative bare frame, offered entries are
// validated and stored, and a subsequent fetch returns, per key and in
// the order asked, bytes that decode to the same entries. The peer
// counters count keys, not requests.
func TestPeerVerdictRoundTrip(t *testing.T) {
	_, ts, vc := newPeerServer(t)
	k1, k2, absent := fingerprint.Hash{1, 2, 3}, fingerprint.Hash{4, 5, 6}, fingerprint.Hash{7}
	e1, f1 := peerEntry(t, k1, "I0")
	_, f2 := peerEntry(t, k2, "I1")

	status, reply := doPeer(t, http.MethodPost, peerURL(ts), keysOf(k1, k2))
	if status != http.StatusOK || len(reply) != 2 || reply[0].Data != nil || reply[1].Data != nil ||
		reply[0].Key != k1 || reply[1].Key != k2 {
		t.Fatalf("miss: status %d, reply %+v", status, reply)
	}
	if status, refused := doPeer(t, http.MethodPut, peerURL(ts), vcache.EncodeFrames([]vcache.Frame{f1, f2})); status != http.StatusOK || len(refused) != 0 {
		t.Fatalf("offer: status %d, refused %+v", status, refused)
	}
	if got := vc.Get(k1); got == nil || got.Verdict() != vcache.VerdictRefined {
		t.Fatalf("offer did not land in the local shard: %+v", got)
	}

	status, reply = doPeer(t, http.MethodPost, peerURL(ts), keysOf(k2, absent, k1))
	if status != http.StatusOK || len(reply) != 3 || reply[0].Key != k2 || reply[1].Key != absent || reply[2].Key != k1 {
		t.Fatalf("fetch: status %d, reply %+v", status, reply)
	}
	if reply[1].Data != nil {
		t.Fatalf("unknown key answered with %d bytes", len(reply[1].Data))
	}
	if _, err := vcache.DecodeEntry(k2, reply[0].Data); err != nil {
		t.Fatalf("fetched bytes fail the decode gate: %v", err)
	}
	if !bytes.Equal(reply[2].Data, f1.Data) || !bytes.Equal(reply[2].Data, e1.Bytes()) {
		t.Fatal("the wire bytes are not the EVCACHE2 bytes offered")
	}

	stats := getStats(t, ts)
	if stats.PeerGets != 5 || stats.PeerPuts != 2 {
		t.Fatalf("peer counters: gets %d puts %d, want 5 keys fetched and 2 stored", stats.PeerGets, stats.PeerPuts)
	}
}

// TestOneEncodingEverywhere: a verdict has one byte form, and a disk
// record is a peer frame. For every verdict a real check stores, the
// bytes the daemon holds, its segment record, the frame a peer fetch is
// answered with, and what a second node holds and records after
// accepting that frame as an offer are the same bytes — and the fetch
// reply's frames, back to back, are the daemon's segment byte for byte.
func TestOneEncodingEverywhere(t *testing.T) {
	b, err := models.GPT(models.Options{TP: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, ts, vc := newPeerServer(t)
	if status, resp := post(t, ts, requestBody(t, b, nil)); status != http.StatusOK {
		t.Fatalf("check: status %d, %+v", status, resp)
	}
	// segment returns vc's one segment and its records, in order.
	segment := func(vc *vcache.Cache) ([]byte, []vcache.Frame) {
		paths, err := vcache.SegmentPaths(vc.Dir())
		if err != nil || len(paths) != 1 {
			t.Fatalf("segments %v (err %v), want one", paths, err)
		}
		data, err := os.ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		var records []vcache.Frame
		vcache.ScanSegment(data, func(k fingerprint.Hash, entry []byte) {
			records = append(records, vcache.Frame{Key: k, Data: entry})
		})
		return data, records
	}
	seg, records := segment(vc)
	if len(records) < b.Gs.OperatorCount() {
		t.Fatalf("%d verdict records for %d operators", len(records), b.Gs.OperatorCount())
	}
	keys := make([]fingerprint.Hash, len(records))
	for i, r := range records {
		keys[i] = r.Key
	}

	status, fetched := doPeer(t, http.MethodPost, peerURL(ts), keysOf(keys...))
	if status != http.StatusOK || len(fetched) != len(keys) {
		t.Fatalf("fetch: status %d, %d frames for %d keys", status, len(fetched), len(keys))
	}
	if !bytes.Equal(vcache.EncodeFrames(fetched), seg) {
		t.Fatal("the fetch reply's frames are not the segment's bytes")
	}
	_, ts2, vc2 := newPeerServer(t)
	if status, refused := doPeer(t, http.MethodPut, peerURL(ts2), vcache.EncodeFrames(fetched)); status != http.StatusOK || len(refused) != 0 {
		t.Fatalf("offer: status %d, refused %+v", status, refused)
	}
	_, offered := segment(vc2)
	if len(offered) != len(records) {
		t.Fatalf("the offered node recorded %d verdicts, want %d", len(offered), len(records))
	}
	for i, k := range keys {
		held := vc.Get(k).Bytes()
		for what, data := range map[string][]byte{
			"segment record":        records[i].Data,
			"fetch reply":           fetched[i].Data,
			"offer, held":           vc2.Get(k).Bytes(),
			"offer, segment record": offered[i].Data,
		} {
			if !bytes.Equal(data, held) {
				t.Fatalf("key %s: the %s is not the held bytes:\n%q\n%q", k.Hex(), what, data, held)
			}
		}
	}
}

// TestPeerVerdictRejectsCorrupt offers one damaged frame among valid
// ones, and one valid entry under another key's frame: the valid ones
// are stored, the bad ones are refused, reported and never reach the
// shard — the decode gate is what keeps a corrupting peer from planting
// wrong verdicts — and a sender counts exactly those as forward
// failures.
func TestPeerVerdictRejectsCorrupt(t *testing.T) {
	_, ts, vc := newPeerServer(t)
	keys := []fingerprint.Hash{{9}, {10}, {11}, {12}}
	frames := make([]vcache.Frame, len(keys))
	entries := make([]*vcache.Entry, len(keys))
	for i, key := range keys {
		entries[i], frames[i] = peerEntry(t, key, "I0")
	}
	frames[1].Data = append([]byte(nil), frames[1].Data...)
	frames[1].Data[len(frames[1].Data)-1] ^= 0xff
	frames[2].Data = frames[0].Data // intact bytes, wrong key

	status, refused := doPeer(t, http.MethodPut, peerURL(ts), vcache.EncodeFrames(frames))
	if status != http.StatusOK || len(refused) != 2 || refused[0].Key != keys[1] || refused[1].Key != keys[2] {
		t.Fatalf("offer with two bad frames: status %d, refused %+v", status, refused)
	}
	for i, key := range keys {
		if stored := vc.Get(key) != nil; stored != (i == 0 || i == 3) {
			t.Fatalf("frame %d: stored = %v", i, stored)
		}
	}
	if stats := getStats(t, ts); stats.PeerPuts != 2 {
		t.Fatalf("peer_puts = %d, want the 2 stored", stats.PeerPuts)
	}

	// The shipped sender against the same endpoint. It encodes its own
	// entries, so the damage is done on the wire.
	client := cluster.NewClient(cluster.ClientConfig{Transport: &damagingTransport{key: keys[1]}})
	errs := client.OfferMany(context.Background(), cluster.Member{ID: "p", URL: ts.URL}, keys, entries)
	for i, err := range errs {
		if (err != nil) != (i == 1) {
			t.Fatalf("sender's outcome for frame %d: %v", i, err)
		}
	}
	if st := client.Stats(); st.RoundTrips != 1 {
		t.Fatalf("sender stats = %+v, want 1 round trip", st)
	}
}

// damagingTransport is the HTTP transport with one key's frame damaged
// in flight.
type damagingTransport struct {
	cluster.HTTPTransport
	key fingerprint.Hash
}

func (d *damagingTransport) OfferMany(ctx context.Context, peer cluster.Member, frames []vcache.Frame) ([]fingerprint.Hash, error) {
	sent := append([]vcache.Frame(nil), frames...)
	for i := range sent {
		if sent[i].Key == d.key {
			sent[i].Data = sent[i].Data[:len(sent[i].Data)/2]
		}
	}
	return d.HTTPTransport.OfferMany(ctx, peer, sent)
}

func TestPeerVerdictRequestValidation(t *testing.T) {
	_, ts, vc := newPeerServer(t)
	key := fingerprint.Hash{4}
	_, f := peerEntry(t, key, "I0")

	// A body that does not parse as frames is refused as a whole; the
	// frame before the damage was a valid offer and stays stored.
	cut := vcache.EncodeFrames([]vcache.Frame{f, f})
	if status, _ := doPeer(t, http.MethodPut, peerURL(ts), cut[:len(cut)-3]); status != http.StatusBadRequest {
		t.Fatalf("cut-short batch: status %d", status)
	}
	if vc.Get(key) == nil {
		t.Fatal("the valid frame ahead of the cut was not stored")
	}
	if status, _ := doPeer(t, http.MethodPost, peerURL(ts), []byte("zz")); status != http.StatusBadRequest {
		t.Fatalf("garbage keys: status %d", status)
	}
	// A key on its own carries nothing to store.
	if status, refused := doPeer(t, http.MethodPut, peerURL(ts), keysOf(key)); status != http.StatusOK || len(refused) != 1 {
		t.Fatalf("bare frame offered: status %d, refused %+v", status, refused)
	}
	for _, method := range []string{http.MethodGet, http.MethodDelete} {
		if status, _ := doPeer(t, method, peerURL(ts), nil); status != http.StatusMethodNotAllowed {
			t.Fatalf("%s: status %d", method, status)
		}
	}
	// The single-key endpoint is gone.
	if status, _ := doPeer(t, http.MethodGet, ts.URL+"/v1/peer/verdict", nil); status != http.StatusNotFound {
		t.Fatalf("old endpoint: status %d", status)
	}

	// A daemon without a local shard is not a fleet node: 404.
	single, _ := newTestServer(t)
	if status, _ := doPeer(t, http.MethodPost, peerURL(single), keysOf(key)); status != http.StatusNotFound {
		t.Fatalf("single-node peer fetch: status %d", status)
	}
}

// TestPeerVerdictDraining verifies a draining node refuses peer traffic
// outright (503) so shutdown never waits on fleet chatter.
func TestPeerVerdictDraining(t *testing.T) {
	srv, ts, _ := newPeerServer(t)
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{http.MethodPost, http.MethodPut} {
		if status, _ := doPeer(t, method, peerURL(ts), keysOf(fingerprint.Hash{7})); status != http.StatusServiceUnavailable {
			t.Fatalf("draining peer %s: status %d", method, status)
		}
	}
}

// TestBodyLimit enforces Config.MaxBodyBytes on every write endpoint:
// oversized bodies get 413, and legitimate requests under the bound
// still work.
func TestBodyLimit(t *testing.T) {
	b, err := models.Regression(models.Options{GradAccum: 2})
	if err != nil {
		t.Fatal(err)
	}
	body := requestBody(t, b, func(m *map[string]any) {
		(*m)["pad"] = strings.Repeat("x", 8192) // push past the bound regardless of graph size
	})

	vc, err := vcache.Open(vcache.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{
		Options:      core.Options{Cache: vc},
		Local:        vc,
		MaxBodyBytes: 4096, // far below any real graph body
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	status, resp := post(t, ts, body)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /v1/check: status %d resp %+v", status, resp)
	}
	if !strings.Contains(resp.Error, "exceeds") {
		t.Fatalf("413 carried no limit text: %q", resp.Error)
	}

	rb, err := json.Marshal(map[string]any{"base": json.RawMessage("{}"), "candidates": []json.RawMessage{[]byte(`{}`)}, "pad": strings.Repeat("x", 8192)})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := http.Post(ts.URL+"/v1/recheck", "application/json", bytes.NewReader(rb))
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized /v1/recheck: status %d", rr.StatusCode)
	}

	key := fingerprint.Hash{5}
	_, small := peerEntry(t, key, "I0")
	var big []vcache.Frame
	for i := 0; i < 8192/len(small.Data)+1; i++ {
		big = append(big, small)
	}
	if status, _ := doPeer(t, http.MethodPut, peerURL(ts), vcache.EncodeFrames(big)); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized peer offer: status %d", status)
	}
	if status, _ := doPeer(t, http.MethodPost, peerURL(ts), make([]byte, 8192)); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized peer fetch: status %d", status)
	}

	// Small requests still pass the bound (the error, if any, is about
	// content, not size).
	if status, refused := doPeer(t, http.MethodPut, peerURL(ts), vcache.EncodeFrames([]vcache.Frame{small})); status != http.StatusOK || len(refused) != 0 {
		t.Fatalf("in-bound peer offer: status %d, refused %+v", status, refused)
	}
	if stats := getStats(t, ts); stats.Errors == 0 {
		t.Fatalf("oversized bodies not counted as errors: %+v", stats)
	}
}
