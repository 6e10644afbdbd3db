package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"entangle/internal/cluster"
	"entangle/internal/core"
	"entangle/internal/egraph"
	"entangle/internal/fingerprint"
	"entangle/internal/graph"
	"entangle/internal/vcache"
)

// TestDrainMidRecheckBatch drains the gate while a recheck batch is
// mid-flight: the candidate being checked when the drain latch flips
// holds an admitted gate slot, so it must run to completion and keep
// its delta; the batch's remaining candidates must bounce cleanly as
// "cancelled"/draining, never hang or half-run.
func TestDrainMidRecheckBatch(t *testing.T) {
	vc, err := vcache.Open(vcache.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	// The drain begins deterministically inside candidate 1's check: the
	// edited candidate re-saturates "act" (its cone moved), which is the
	// second time the hook sees that label — the first was the base
	// warm-up check.
	var srv *Server
	var actChecks atomic.Int32
	srv = New(Config{Options: core.Options{
		Cache: vc,
		PreOp: func(v *graph.Node) *egraph.SaturateOpts {
			if v.Label == "act" && actChecks.Add(1) == 2 {
				srv.gate.StartDrain()
			}
			return nil
		},
	}})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	base := graphJSON(t, recheckGs(t, false, "gelu"))
	status, rr := postRecheck(t, ts, map[string]any{
		"base":       base,
		"candidates": []json.RawMessage{graphJSON(t, recheckGs(t, true, "gelu")), base},
		"gd":         graphJSON(t, recheckGd(t)),
		"rel":        recheckRel,
	})
	if status != http.StatusServiceUnavailable || rr.BaseVerdict != "refined" {
		t.Fatalf("status %d, response %+v", status, rr)
	}
	if len(rr.Candidates) != 2 {
		t.Fatalf("candidates %+v", rr.Candidates)
	}
	// The in-flight candidate finished its full delta despite the drain.
	inflight := rr.Candidates[0]
	if inflight.Verdict != "refined" || inflight.RecheckedOps != 2 || inflight.ReplayedOps != 1 {
		t.Fatalf("in-flight candidate did not run to completion: %+v", inflight)
	}
	// The next candidate was refused at the gate, not abandoned mid-check.
	bounced := rr.Candidates[1]
	if bounced.Verdict != "cancelled" || !strings.Contains(bounced.Error, "draining") {
		t.Fatalf("post-drain candidate not cleanly bounced: %+v", bounced)
	}
	// With the batch gone, the drain itself must complete.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain after batch: %v", err)
	}
}

// blockingTransport wedges every peer forward until its context is
// cancelled, simulating an unresponsive owner at the moment the daemon
// is told to shut down. Fetches answer authoritative misses so the
// check reaches its Put-side forwards.
type blockingTransport struct {
	started chan struct{}
	once    sync.Once
	wedged  atomic.Int32 // offers currently on the wire
}

func (b *blockingTransport) FetchMany(ctx context.Context, peer cluster.Member, keys []fingerprint.Hash) ([]cluster.Frame, error) {
	frames := make([]cluster.Frame, len(keys))
	for i, key := range keys {
		frames[i].Key = key
	}
	return frames, nil
}

func (b *blockingTransport) OfferMany(ctx context.Context, peer cluster.Member, frames []cluster.Frame) ([]fingerprint.Hash, error) {
	b.wedged.Add(1)
	defer b.wedged.Add(-1)
	b.once.Do(func() { close(b.started) })
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestDrainAbortsInFlightPeerForward runs the daemon's SIGTERM sequence
// — drain the gate, flush the forwarder for what is left of the drain
// timeout, close the fleet cache — while a check is in flight and a
// forward is wedged on the wire to an unresponsive owner. Checks do not
// wait for their forwards, so the in-flight check must complete with
// its correct verdict and the gate must drain; the flush must give up
// at the deadline instead of waiting out the peer; Close must abort the
// wedged send, count every undelivered forward as a failure (the
// verdicts are already safe locally), and leave no goroutine behind.
func TestDrainAbortsInFlightPeerForward(t *testing.T) {
	vc, err := vcache.Open(vcache.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	// Enough peers that the fixture's (deterministic) fingerprints are
	// overwhelmingly likely to include peer-owned keys; the guard below
	// fails loudly if a key-derivation change ever breaks that.
	members := []cluster.Member{{ID: "a", URL: "mem://a"}}
	for _, id := range []string{"b", "c", "d", "e", "f", "g", "h", "i"} {
		members = append(members, cluster.Member{ID: id, URL: "mem://" + id})
	}
	ms, err := cluster.NewMembership("a", members)
	if err != nil {
		t.Fatal(err)
	}
	bt := &blockingTransport{started: make(chan struct{})}
	fleet, err := cluster.NewCache(cluster.CacheConfig{
		Membership: ms,
		Local:      vc,
		Client:     cluster.NewClient(cluster.ClientConfig{Transport: bt}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	// The check is held inside "act" — after "adder", upstream of it, has
	// stored and queued its verdict — until the drain has begun.
	atAct, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	srv := New(Config{Local: vc, Options: core.Options{
		Cache: fleet,
		PreOp: func(v *graph.Node) *egraph.SaturateOpts {
			if v.Label == "act" {
				once.Do(func() { close(atAct) })
				<-release
			}
			return nil
		},
	}})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	body, err := json.Marshal(CheckRequest{
		Gs:  graphJSON(t, recheckGs(t, false, "gelu")),
		Gd:  graphJSON(t, recheckGd(t)),
		Rel: recheckRel,
	})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		status int
		resp   CheckResponse
		err    error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/check", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var cr CheckResponse
		err = json.NewDecoder(resp.Body).Decode(&cr)
		done <- result{status: resp.StatusCode, resp: cr, err: err}
	}()

	for _, step := range []struct {
		reached <-chan struct{}
		what    string
	}{
		{atAct, "the check never reached its second operator"},
		{bt.started, "no forward on the wire (all fixture keys self-owned?); widen the member list"},
	} {
		select {
		case <-step.reached:
		case r := <-done:
			t.Fatalf("check finished early (response %+v, err %v): %s", r.resp, r.err, step.what)
		case <-time.After(30 * time.Second):
			t.Fatal(step.what)
		}
	}

	// SIGTERM, with a -drain-timeout the wedged peer will outlast.
	const drainTimeout = 500 * time.Millisecond
	began := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(ctx) }()
	for !srv.gate.Snapshot().Draining {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain stuck behind a wedged peer forward: %v", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.status != http.StatusOK || r.resp.Verdict != "refined" {
		t.Fatalf("in-flight check did not complete correctly: status %d, %+v", r.status, r.resp)
	}
	if err := fleet.Flush(ctx); err == nil {
		t.Fatal("flush claims the wedged forwards were delivered")
	}
	fleet.Close()
	if took := time.Since(began); took > drainTimeout+5*time.Second {
		t.Fatalf("shutdown took %v with a %v drain timeout", took, drainTimeout)
	}
	if n := bt.wedged.Load(); n != 0 {
		t.Fatalf("%d sends still on the wire after Close", n)
	}
	st := fleet.ClusterStats()
	if st.Forwards != 0 || st.ForwardFailures == 0 || st.ForwardFailures > r.resp.Cache.Stores {
		t.Fatalf("undelivered forwards not counted as failures: %+v for %d stored verdicts", st, r.resp.Cache.Stores)
	}
}
