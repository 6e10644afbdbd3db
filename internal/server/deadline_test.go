package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"entangle/internal/core"
	"entangle/internal/egraph"
	"entangle/internal/graph"
	"entangle/internal/vcache"
)

// slowDaemon serves checks in which every operator first sleeps for
// pause, one worker at a time, under a one-second DefaultTimeout. Its
// http.Server has a 1.2 s WriteTimeout, a global response deadline
// counted from the request's headers the way DefaultTimeout plus a
// margin would be: a response that sets no deadline of its own is cut
// off once a request has run past it.
func slowDaemon(t *testing.T, pause time.Duration) *httptest.Server {
	t.Helper()
	vc, err := vcache.Open(vcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewUnstartedServer(New(Config{
		Options: core.Options{Workers: 1, Cache: vc, PreOp: func(*graph.Node) *egraph.SaturateOpts {
			time.Sleep(pause)
			return nil
		}},
		DefaultTimeout: time.Second,
	}))
	ts.Config.WriteTimeout = 1200 * time.Millisecond
	ts.Start()
	t.Cleanup(ts.Close)
	return ts
}

// TestCheckOutlastingTheServerDeadlineKeepsItsVerdict: a /v1/check that
// carries a timeout longer than the daemon's default runs past a
// response deadline derived from that default (three operators at
// 0.5 s each, 1.5 s against 1.2 s). Its verdict still reaches the
// client, because a response is written under a deadline of its own.
func TestCheckOutlastingTheServerDeadlineKeepsItsVerdict(t *testing.T) {
	ts := slowDaemon(t, 500*time.Millisecond)
	body, err := json.Marshal(map[string]any{
		"gs":      graphJSON(t, recheckGs(t, false, "gelu")),
		"gd":      graphJSON(t, recheckGd(t)),
		"rel":     recheckRel,
		"timeout": "10s",
	})
	if err != nil {
		t.Fatal(err)
	}
	status, cr := post(t, ts, body)
	if status != http.StatusOK || cr.Verdict != "refined" || cr.OpsProcessed != 3 {
		t.Fatalf("status %d, response %+v", status, cr)
	}
}

// TestLongRecheckBatchKeepsItsVerdicts: a /v1/recheck of four
// candidates, each inside DefaultTimeout (three operators at 0.1 s),
// takes 1.5 s with its base pass: past the 1.2 s server deadline. The
// batch's one response still reaches the client whole.
func TestLongRecheckBatchKeepsItsVerdicts(t *testing.T) {
	ts := slowDaemon(t, 100*time.Millisecond)
	base := graphJSON(t, recheckGs(t, false, "gelu"))
	edit := graphJSON(t, recheckGs(t, true, "gelu"))
	status, rr := postRecheck(t, ts, map[string]any{
		"base":       base,
		"candidates": []json.RawMessage{edit, base, edit, base},
		"gd":         graphJSON(t, recheckGd(t)),
		"rel":        recheckRel,
	})
	if status != http.StatusOK || rr.BaseVerdict != "refined" || len(rr.Candidates) != 4 {
		t.Fatalf("status %d, response %+v", status, rr)
	}
	for i, c := range rr.Candidates {
		if c.Verdict != "refined" {
			t.Errorf("candidate %d: %+v", i, c)
		}
	}
}
