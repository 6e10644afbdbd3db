package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"entangle/internal/core"
	"entangle/internal/expr"
	"entangle/internal/graph"
	"entangle/internal/models"
	"entangle/internal/vcache"
)

// update rewrites testdata/golden_responses.txt. The file was recorded
// at the commit preceding the per-operator ledger refactor; regenerate
// it only for a change that is meant to alter response bodies.
var update = flag.Bool("update", false, "rewrite golden files")

const goldenResponses = "testdata/golden_responses.txt"

var wallClock = regexp.MustCompile(`"duration_ms": [0-9]+`)

// goldenEdit clones gs and rewires the last two-operand add/sum in
// topological order: swapped operands preserve refinement, a
// duplicated operand breaks it.
func goldenEdit(t *testing.T, gs *graph.Graph, broken bool) *graph.Graph {
	t.Helper()
	order, err := gs.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if (v.Op != expr.OpAdd && v.Op != expr.OpSum) || len(v.Inputs) != 2 || v.Inputs[0] == v.Inputs[1] {
			continue
		}
		edited := gs.Clone()
		n := edited.Node(v.ID)
		if broken {
			n.Inputs[1] = n.Inputs[0]
		} else {
			n.Inputs[0], n.Inputs[1] = n.Inputs[1], n.Inputs[0]
		}
		return edited
	}
	t.Fatal("no add/sum operator to edit")
	return nil
}

// TestGoldenResponses pins status and body (minus wall-clock fields)
// of /v1/check and /v1/recheck, plus /v1/stats' daemon counters, over one daemon: cold, warm,
// keep_going failure, a recheck batch (edit, identical, broken edit),
// malformed timeouts, and admission refusal while draining; then, over
// a daemon whose checker faults, what an engine fault is answered with.
func TestGoldenResponses(t *testing.T) {
	build := func(b *models.Built, err error) *models.Built {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	gpt := build(models.GPT(models.Options{TP: 2}))
	gptBad := build(models.GPT(models.Options{TP: 2, Bug: models.Bug7MissingAllReduce}))
	moe := build(models.SeedMoE(models.Options{TP: 2}))

	daemon := func(opts core.Options) (*Server, *httptest.Server) {
		t.Helper()
		vc, err := vcache.Open(vcache.Config{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		opts.Cache = vc
		srv := New(Config{Options: opts, MaxConcurrent: 2})
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		return srv, ts
	}
	srv, ts := daemon(core.Options{})

	var got strings.Builder
	do := func(name, method, path string, body []byte) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "== %s: %d ==\n%s", name, resp.StatusCode, wallClock.ReplaceAll(data, []byte(`"duration_ms": 0`)))
	}
	setField := func(k string, v any) func(*map[string]any) {
		return func(m *map[string]any) { (*m)[k] = v }
	}
	recheckBody := func(timeout string) []byte {
		var check map[string]json.RawMessage
		if err := json.Unmarshal(requestBody(t, moe, nil), &check); err != nil {
			t.Fatal(err)
		}
		body := map[string]any{
			"base": check["gs"],
			"candidates": []json.RawMessage{
				graphJSON(t, goldenEdit(t, moe.Gs, false)), check["gs"], graphJSON(t, goldenEdit(t, moe.Gs, true)),
			},
			"gd":  check["gd"],
			"rel": check["rel"],
		}
		if timeout != "" {
			body["timeout"] = timeout
		}
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	do("check cold", "POST", "/v1/check", requestBody(t, gpt, nil))
	do("check warm verbose", "POST", "/v1/check", requestBody(t, gpt, setField("verbose", true)))
	do("check failed", "POST", "/v1/check", requestBody(t, gptBad, nil))
	do("check failed keep_going", "POST", "/v1/check", requestBody(t, gptBad, setField("keep_going", true)))
	do("check bad timeout", "POST", "/v1/check", requestBody(t, gpt, setField("timeout", "-1s")))
	do("check bad graph", "POST", "/v1/check", requestBody(t, gpt, setField("gd", json.RawMessage(`[]`))))
	do("recheck", "POST", "/v1/recheck", recheckBody(""))
	do("recheck bad timeout", "POST", "/v1/recheck", recheckBody("soon"))
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	do("check draining", "POST", "/v1/check", requestBody(t, gpt, nil))
	do("recheck draining", "POST", "/v1/recheck", recheckBody(""))
	// Daemon counters only: the shared cache's global lookup totals are
	// free to drop when the checker probes less.
	stats := getStats(t, ts)
	stats.UptimeSeconds, stats.Cache = 0, nil
	fmt.Fprintf(&got, "== stats ==\n%+v\n", stats)

	// A second daemon whose checker panics at one operator, as a buggy
	// lemma would: the engine-fault answers (the daemon's log, where the
	// stacks go, is not part of them).
	log.SetOutput(io.Discard)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	_, ts = daemon(core.Options{PreOp: bombAt("L0/fc1", always)})
	do("fault check", "POST", "/v1/check", requestBody(t, gpt, nil))
	do("fault check keep_going", "POST", "/v1/check", requestBody(t, gpt, setField("keep_going", true)))
	var check map[string]json.RawMessage
	if err := json.Unmarshal(requestBody(t, gpt, nil), &check); err != nil {
		t.Fatal(err)
	}
	faulting, err := json.Marshal(map[string]any{
		"base":       check["gs"],
		"candidates": []json.RawMessage{graphJSON(t, goldenEdit(t, gpt.Gs, false))},
		"gd":         check["gd"],
		"rel":        check["rel"],
	})
	if err != nil {
		t.Fatal(err)
	}
	do("fault recheck", "POST", "/v1/recheck", faulting)
	stats = getStats(t, ts)
	stats.UptimeSeconds, stats.Cache = 0, nil
	fmt.Fprintf(&got, "== fault stats ==\n%+v\n", stats)

	if *update {
		if err := os.WriteFile(goldenResponses, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenResponses)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("responses differ from %s at line %d:\n  want %s\n  got  %s", goldenResponses, i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("responses differ from %s in length: want %d lines, got %d", goldenResponses, len(wl), len(gl))
	}
}
