package server

import (
	"bytes"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"entangle/internal/core"
	"entangle/internal/egraph"
	"entangle/internal/graph"
	"entangle/internal/models"
	"entangle/internal/vcache"
)

// bombAt is a PreOp that panics on the calls to label selected by
// when (1-based call number for that label), like a buggy lemma would.
func bombAt(label string, when func(call int64) bool) func(*graph.Node) *egraph.SaturateOpts {
	var calls atomic.Int64
	return func(v *graph.Node) *egraph.SaturateOpts {
		if v.Label == label && when(calls.Add(1)) {
			panic("bomb: " + label)
		}
		return nil
	}
}

func always(int64) bool { return true }

// newFaultServer is a daemon whose checker faults as preOp says; the
// daemon's log — where the stacks go — is captured into the returned
// buffer.
func newFaultServer(t *testing.T, preOp func(*graph.Node) *egraph.SaturateOpts) (*httptest.Server, *lockedBuffer) {
	t.Helper()
	vc, err := vcache.Open(vcache.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	logged := &lockedBuffer{}
	log.SetOutput(logged)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	ts := httptest.NewServer(New(Config{Options: core.Options{Cache: vc, PreOp: preOp}}))
	t.Cleanup(ts.Close)
	return ts, logged
}

type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestEngineFaultIsTheDaemonsFailure: a panicking operator check is not
// the client's malformed request. First-error mode loses the report, so
// the answer is 500; keep_going keeps it, so the answer is 422 with
// every verdict the run did reach. Either way the body carries one line
// about the fault and the stack goes to the daemon's log.
func TestEngineFaultIsTheDaemonsFailure(t *testing.T) {
	gpt, err := models.GPT(models.Options{TP: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts, logged := newFaultServer(t, bombAt("L0/fc1", always))
	const line = `engine fault while checking operator "L0/fc1" (op matmul): panic: bomb: L0/fc1`

	status, resp := post(t, ts, requestBody(t, gpt, nil))
	if status != http.StatusInternalServerError || resp.Verdict != "failed" || resp.Error != line {
		t.Fatalf("first-error: status %d, response %+v", status, resp)
	}
	if len(resp.Failures) != 0 || resp.OpsProcessed != 0 {
		t.Fatalf("first-error mode has no report to carry: %+v", resp)
	}
	if stats := getStats(t, ts); stats.Errors != 1 || stats.Failed != 0 {
		t.Fatalf("a 500 counts under errors: %+v", stats)
	}
	if !strings.Contains(logged.String(), "goroutine ") {
		t.Fatalf("the stack belongs in the daemon's log, got:\n%s", logged.String())
	}

	status, resp = post(t, ts, requestBody(t, gpt, func(m *map[string]any) { (*m)["keep_going"] = true }))
	if status != http.StatusUnprocessableEntity || resp.Verdict != "failed" || resp.Error != line {
		t.Fatalf("keep_going: status %d, response %+v", status, resp)
	}
	want := []string{"L0/fc1: engine-fault (bomb: L0/fc1)", "L0/gelu: skipped", "L0/fc2: skipped",
		"L0/res2: skipped", "final_ln: skipped", "lm_head: skipped"}
	if strings.Join(resp.Failures, "\n") != strings.Join(want, "\n") {
		t.Fatalf("keep_going failures %q, want %q", resp.Failures, want)
	}
	// The operators ahead of the fault were stored by the first request.
	if resp.OpsProcessed != 10 || resp.Stats.Iterations == 0 || resp.Cache.Hits != 9 {
		t.Fatalf("keep_going keeps the report — ops, stats, cache block: %+v", resp)
	}
	if stats := getStats(t, ts); stats.Errors != 1 || stats.Failed != 1 {
		t.Fatalf("a 422 counts under failed: %+v", stats)
	}
}

// TestRecheckEngineFaults: a faulting base is a failed base like any
// other (it used to be a 400 about the client's request), and a
// faulting candidate is a failed candidate that names the operator.
func TestRecheckEngineFaults(t *testing.T) {
	body := map[string]any{
		"base":       graphJSON(t, recheckGs(t, false, "gelu")),
		"candidates": []json.RawMessage{graphJSON(t, recheckGs(t, true, "gelu"))},
		"gd":         graphJSON(t, recheckGd(t)),
		"rel":        recheckRel,
	}

	// The base pass is the first check to reach "act".
	ts, _ := newFaultServer(t, bombAt("act", func(call int64) bool { return call == 1 }))
	status, rr := postRecheck(t, ts, body)
	if status != http.StatusOK || rr.BaseVerdict != "failed" || rr.Candidates[0].Verdict != "refined" {
		t.Fatalf("faulting base: status %d, response %+v", status, rr)
	}

	// The candidate is the second.
	ts, logged := newFaultServer(t, bombAt("act", func(call int64) bool { return call == 2 }))
	status, rr = postRecheck(t, ts, body)
	if status != http.StatusUnprocessableEntity || rr.BaseVerdict != "refined" {
		t.Fatalf("faulting candidate: status %d, response %+v", status, rr)
	}
	c := rr.Candidates[0]
	if c.Verdict != "failed" || len(c.Failures) != 1 || c.Failures[0] != "act: engine-fault (bomb: act)" {
		t.Fatalf("faulting candidate: %+v", c)
	}
	if strings.Contains(c.Error, "\n") || !strings.HasPrefix(c.Error, "engine fault while checking operator") {
		t.Fatalf("the body carries the fault's first line only, got %q", c.Error)
	}
	if len(c.NewlyFailing) != 1 || c.NewlyFailing[0].Label != "act" || c.RecheckedOps == 0 {
		t.Fatalf("the delta survives the fault: %+v", c)
	}
	if !strings.Contains(logged.String(), "goroutine ") {
		t.Fatalf("the stack belongs in the daemon's log, got:\n%s", logged.String())
	}
	if stats := getStats(t, ts); stats.Failed != 1 || stats.Errors != 0 {
		t.Fatalf("a failed candidate counts under failed: %+v", stats)
	}
}
