package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"entangle/internal/core"
	"entangle/internal/graph"
	"entangle/internal/shape"
	"entangle/internal/vcache"
)

// The recheck fixture mirrors internal/core's diff tests: an add
// feeding an activation plus an independent branch, two-rank split on
// dim 0. Swapping the add's operands preserves refinement but moves
// the cone fingerprint; changing the activation breaks refinement.
func recheckGd(t *testing.T) *graph.Graph {
	t.Helper()
	bd := graph.NewBuilder("Gd", nil)
	half := shape.Of(2, 6)
	X0, X1 := bd.Input("X0", half), bd.Input("X1", half)
	Y0, Y1 := bd.Input("Y0", half), bd.Input("Y1", half)
	V0, V1 := bd.Input("V0", half), bd.Input("V1", half)
	Z0 := bd.Unary("r0/act", "gelu", bd.Add("r0/adder", X0, Y0))
	Z1 := bd.Unary("r1/act", "gelu", bd.Add("r1/adder", X1, Y1))
	U0 := bd.Unary("r0/side", "gelu", V0)
	U1 := bd.Unary("r1/side", "gelu", V1)
	bd.Output(Z0, Z1, U0, U1)
	return bd.MustBuild()
}

func recheckGs(t *testing.T, swap bool, fn string) *graph.Graph {
	t.Helper()
	bs := graph.NewBuilder("Gs", nil)
	X := bs.Input("X", shape.Of(4, 6))
	Y := bs.Input("Y", shape.Of(4, 6))
	V := bs.Input("V", shape.Of(4, 6))
	a, b := X, Y
	if swap {
		a, b = Y, X
	}
	Z := bs.Unary("act", fn, bs.Add("adder", a, b))
	U := bs.Unary("side", "gelu", V)
	bs.Output(Z, U)
	return bs.MustBuild()
}

func graphJSON(t testing.TB, g *graph.Graph) json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postRecheck(t *testing.T, ts *httptest.Server, body any) (int, RecheckResponse) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/recheck", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr RecheckResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, rr
}

var recheckRel = map[string][]string{
	"X": {"concat(X0, X1, dim=0)"},
	"Y": {"concat(Y0, Y1, dim=0)"},
	"V": {"concat(V0, V1, dim=0)"},
}

// TestRecheckBatch submits a base graph with two candidates — the
// operand-swap edit and an identical copy — and checks the
// per-candidate deltas: the edit re-saturates only its downstream
// cone, the copy replays everything.
func TestRecheckBatch(t *testing.T) {
	ts, _ := newTestServer(t)
	gd := graphJSON(t, recheckGd(t))
	base := graphJSON(t, recheckGs(t, false, "gelu"))

	status, rr := postRecheck(t, ts, map[string]any{
		"base":       base,
		"candidates": []json.RawMessage{graphJSON(t, recheckGs(t, true, "gelu")), base},
		"gd":         gd,
		"rel":        recheckRel,
	})
	if status != http.StatusOK || rr.BaseVerdict != "refined" {
		t.Fatalf("status %d, response %+v", status, rr)
	}
	if len(rr.Candidates) != 2 {
		t.Fatalf("candidates %+v", rr.Candidates)
	}
	edit := rr.Candidates[0]
	if edit.Verdict != "refined" || edit.UnchangedOps != 1 || edit.ReplayedOps != 1 || edit.RecheckedOps != 2 {
		t.Fatalf("edited candidate %+v", edit)
	}
	if len(edit.Changed) != 2 || len(edit.NewlyFailing) != 0 {
		t.Fatalf("edited candidate delta %+v", edit)
	}
	same := rr.Candidates[1]
	if same.Verdict != "refined" || same.UnchangedOps != 3 || same.ReplayedOps != 3 || same.RecheckedOps != 0 {
		t.Fatalf("identical candidate %+v", same)
	}
}

// TestRecheckNewlyFailing: a semantically broken candidate turns the
// batch 422, with the edited operator classified newly failing while
// its untouched siblings still replay.
func TestRecheckNewlyFailing(t *testing.T) {
	ts, _ := newTestServer(t)
	status, rr := postRecheck(t, ts, map[string]any{
		"base":       graphJSON(t, recheckGs(t, false, "gelu")),
		"candidates": []json.RawMessage{graphJSON(t, recheckGs(t, false, "relu"))},
		"gd":         graphJSON(t, recheckGd(t)),
		"rel":        recheckRel,
	})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, response %+v", status, rr)
	}
	c := rr.Candidates[0]
	if c.Verdict != "failed" || len(c.NewlyFailing) != 1 || c.NewlyFailing[0].Label != "act" {
		t.Fatalf("broken candidate %+v", c)
	}
	if c.ReplayedOps != 2 || c.RecheckedOps != 1 {
		t.Fatalf("broken candidate counts %+v", c)
	}
	if len(c.Failures) == 0 {
		t.Fatalf("broken candidate lists no failures: %+v", c)
	}
}

// TestRecheckBadRequests: malformed bodies are 400s, not checks.
func TestRecheckBadRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	gd := graphJSON(t, recheckGd(t))
	base := graphJSON(t, recheckGs(t, false, "gelu"))
	for name, body := range map[string]map[string]any{
		"no candidates": {"base": base, "gd": gd, "rel": recheckRel},
		"no base":       {"candidates": []json.RawMessage{base}, "gd": gd, "rel": recheckRel},
		"bad timeout":   {"base": base, "candidates": []json.RawMessage{base}, "gd": gd, "rel": recheckRel, "timeout": "yes"},
	} {
		if status, _ := postRecheck(t, ts, body); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, status)
		}
	}
}

// TestRecheckDraining: once a drain has begun, a recheck batch is
// bounced at the gate with 503, matching /v1/check's admission
// semantics.
func TestRecheckDraining(t *testing.T) {
	vc, err := vcache.Open(vcache.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Options: core.Options{Cache: vc}})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	base := graphJSON(t, recheckGs(t, false, "gelu"))
	status, rr := postRecheck(t, ts, map[string]any{
		"base":       base,
		"candidates": []json.RawMessage{base},
		"gd":         graphJSON(t, recheckGd(t)),
		"rel":        recheckRel,
	})
	if status != http.StatusServiceUnavailable || rr.BaseVerdict != "cancelled" {
		t.Fatalf("status %d, response %+v", status, rr)
	}
}
