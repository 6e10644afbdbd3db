package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"entangle/internal/core"
	"entangle/internal/expr"
	"entangle/internal/models"
	"entangle/internal/vcache"
)

// renderRel prints a relation term in the grammar exprparse reads —
// the same translation cmd/entangle-graphgen performs for the CLI's
// sidecar files.
func renderRel(t *expr.Term) string {
	if t.IsLeaf() {
		return t.Name
	}
	switch t.Op {
	case expr.OpConcat:
		var b strings.Builder
		b.WriteString("concat(")
		for _, a := range t.Args {
			b.WriteString(renderRel(a) + ", ")
		}
		return b.String() + "dim=" + t.Ints[0].String() + ")"
	case expr.OpSum:
		parts := make([]string, len(t.Args))
		for i, a := range t.Args {
			parts[i] = renderRel(a)
		}
		return "sum(" + strings.Join(parts, ", ") + ")"
	case expr.OpSlice:
		return fmt.Sprintf("slice(%s, %s, %s, %s)",
			renderRel(t.Args[0]), t.Ints[0], t.Ints[1], t.Ints[2])
	}
	return t.String()
}

// requestBody builds a /v1/check body from a built model.
func requestBody(t testing.TB, b *models.Built, mutate func(*map[string]any)) []byte {
	t.Helper()
	var gs, gd bytes.Buffer
	if err := b.Gs.Write(&gs); err != nil {
		t.Fatal(err)
	}
	if err := b.Gd.Write(&gd); err != nil {
		t.Fatal(err)
	}
	rel := map[string][]string{}
	for _, id := range b.Ri.Tensors() {
		name := b.Gs.Tensor(id).Name
		for _, m := range b.Ri.Get(id) {
			rel[name] = append(rel[name], renderRel(m))
		}
	}
	body := map[string]any{
		"gs":  json.RawMessage(gs.Bytes()),
		"gd":  json.RawMessage(gd.Bytes()),
		"rel": rel,
	}
	if mutate != nil {
		mutate(&body)
	}
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func post(t *testing.T, ts *httptest.Server, body []byte) (int, CheckResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/check", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cr CheckResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, cr
}

func getStats(t *testing.T, ts *httptest.Server) StatsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

func newTestServer(t *testing.T) (*httptest.Server, *vcache.Cache) {
	t.Helper()
	vc, err := vcache.Open(vcache.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{Options: core.Options{Cache: vc}}))
	t.Cleanup(ts.Close)
	return ts, vc
}

// TestCheckWarmCache drives the daemon's reason to exist: the second
// check of the same model hits the shared cache and performs zero live
// saturation work, and /v1/stats shows the hits.
func TestCheckWarmCache(t *testing.T) {
	b, err := models.GPT(models.Options{TP: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := newTestServer(t)
	body := requestBody(t, b, nil)

	status, cold := post(t, ts, body)
	if status != http.StatusOK || cold.Verdict != "refined" {
		t.Fatalf("cold: status %d resp %+v", status, cold)
	}
	if cold.OpsProcessed == 0 || len(cold.OutputRelation) == 0 {
		t.Fatalf("cold response incomplete: %+v", cold)
	}
	if cold.Cache.Stores == 0 {
		t.Fatalf("cold run stored nothing: %+v", cold.Cache)
	}

	status, warm := post(t, ts, body)
	if status != http.StatusOK || warm.Verdict != "refined" {
		t.Fatalf("warm: status %d resp %+v", status, warm)
	}
	if warm.Cache.Hits == 0 || warm.Cache.Misses != 0 {
		t.Fatalf("warm run missed the shared cache: %+v", warm.Cache)
	}
	if warm.LiveStats.Iterations != 0 {
		t.Fatalf("warm run re-saturated: %+v", warm.LiveStats)
	}
	if got, want := fmt.Sprint(warm.OutputRelation), fmt.Sprint(cold.OutputRelation); got != want {
		t.Fatalf("warm relation differs:\n  cold: %s\n  warm: %s", want, got)
	}

	stats := getStats(t, ts)
	if stats.Requests != 2 || stats.Refined != 2 {
		t.Fatalf("stats: %+v", stats)
	}
	if stats.Cache == nil || stats.Cache.Hits == 0 {
		t.Fatalf("stats must surface non-zero cache hits: %+v", stats)
	}
}

// TestOneRegistryAcrossRequests: a daemon configured without a registry
// materializes the default one once, every request's checker shares it,
// and its keys are the ones a nil-registry checker derives — so CLI and
// daemon runs over one cache directory replay each other's verdicts.
func TestOneRegistryAcrossRequests(t *testing.T) {
	b, err := models.GPT(models.Options{TP: 2})
	if err != nil {
		t.Fatal(err)
	}
	vc, err := vcache.Open(vcache.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Options: core.Options{Cache: vc}})
	reg := srv.cfg.Options.Registry
	if reg == nil {
		t.Fatal("New left the lemma registry to be rebuilt per request")
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	body := requestBody(t, b, nil)
	for _, phase := range []string{"cold", "warm"} {
		if status, resp := post(t, ts, body); status != http.StatusOK {
			t.Fatalf("%s: status %d resp %+v", phase, status, resp)
		}
		if srv.cfg.Options.Registry != reg {
			t.Fatalf("%s: request replaced the shared registry", phase)
		}
	}
	direct, err := core.NewChecker(core.Options{Cache: vc}).Check(b.Gs, b.Gd, b.Ri)
	if err != nil {
		t.Fatal(err)
	}
	if direct.Cache.Misses != 0 || int(direct.Cache.Hits) != direct.OpsProcessed {
		t.Fatalf("nil-registry checker derives different keys than the daemon: %+v", direct.Cache)
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(buf.String()) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, buf.String())
	}
}

// TestCheckFailure posts a buggy model: the daemon must localize the
// failure (422, the failing operator named) rather than crash, and
// keep_going must list every failure.
func TestCheckFailure(t *testing.T) {
	b, err := models.GPT(models.Options{TP: 2, Bug: models.Bug7MissingAllReduce})
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := newTestServer(t)

	status, resp := post(t, ts, requestBody(t, b, nil))
	if status != http.StatusUnprocessableEntity || resp.Verdict != "failed" {
		t.Fatalf("status %d resp %+v", status, resp)
	}
	if !strings.Contains(resp.Error, "refinement failed") {
		t.Fatalf("error not localized: %q", resp.Error)
	}

	status, resp = post(t, ts, requestBody(t, b, func(m *map[string]any) {
		(*m)["keep_going"] = true
	}))
	if status != http.StatusUnprocessableEntity || len(resp.Failures) == 0 {
		t.Fatalf("keep_going: status %d resp %+v", status, resp)
	}

	if stats := getStats(t, ts); stats.Failed != 2 {
		t.Fatalf("stats after failures: %+v", stats)
	}
}

func TestBadRequests(t *testing.T) {
	b, err := models.Regression(models.Options{GradAccum: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := newTestServer(t)
	// R_i relates G_s inputs only: an entry on a produced tensor, here
	// one spelled like an input's, is refused before any search.
	produced := func(m *map[string]any) {
		rel := (*m)["rel"].(map[string][]string)
		rel[b.Gs.Tensor(b.Gs.Nodes[0].Outputs[0]).Name] = rel[b.Gs.Tensor(b.Gs.Inputs[0]).Name]
	}

	cases := map[string][]byte{
		"not json":     []byte("{"),
		"missing gd":   requestBody(t, b, func(m *map[string]any) { delete(*m, "gd") }),
		"bad timeout":  requestBody(t, b, func(m *map[string]any) { (*m)["timeout"] = "soon" }),
		"unknown name": requestBody(t, b, func(m *map[string]any) { (*m)["rel"] = map[string][]string{"nope": {"x"}} }),
		"bad format":   requestBody(t, b, func(m *map[string]any) { (*m)["format"] = "protobuf" }),
		"produced rel": requestBody(t, b, produced),
	}
	// The body is read whole: what follows the request object counts, a
	// null graph is a missing one, and a member is honoured wherever it
	// stands — here after the graphs it governs.
	good := requestBody(t, b, nil)
	trailing := func(member string) []byte {
		return append(append(good[:len(good)-1:len(good)-1], member...), '}')
	}
	wantText := map[string]string{
		"trailing garbage": "decoding request: invalid character 'x' after top-level value",
		"null graph":       "loading G_s: missing graph",
		"late format":      `unknown format "protobuf"`,
		"late timeout":     `bad timeout "soon"`,
		"produced rel":     "R_i relates G_s inputs only",
	}
	cases["trailing garbage"] = append(append([]byte(nil), good...), " x"...)
	cases["null graph"] = requestBody(t, b, func(m *map[string]any) { (*m)["gs"] = nil })
	cases["late format"] = trailing(`,"format":"protobuf"`)
	cases["late timeout"] = trailing(`,"timeout":"soon"`)
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			status, resp := post(t, ts, body)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d resp %+v", status, resp)
			}
			if resp.Error == "" {
				t.Fatal("bad request carried no error text")
			}
			if want := wantText[name]; !strings.Contains(resp.Error, want) {
				t.Fatalf("error %q does not say %q", resp.Error, want)
			}
		})
	}

	// 413 is a matter of the body's length alone: a request that would
	// decode, padded past the bound, is too large.
	small := httptest.NewServer(New(Config{MaxBodyBytes: int64(len(good)) + 64}))
	defer small.Close()
	if status, resp := post(t, small, good); status != http.StatusOK {
		t.Fatalf("under the bound: status %d resp %+v", status, resp)
	}
	padded := append(append([]byte(nil), good...), bytes.Repeat([]byte(" "), 65)...)
	if status, resp := post(t, small, padded); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("padded past the bound: status %d resp %+v", status, resp)
	}

	// Wrong methods.
	resp, err := http.Get(ts.URL + "/v1/check")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/check: %d", resp.StatusCode)
	}
}

// TestRequestTimeout threads the per-request deadline through the
// check: an immediately-expiring timeout yields a cancellation, not a
// verdict.
func TestRequestTimeout(t *testing.T) {
	b, err := models.GPT(models.Options{TP: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := newTestServer(t)
	status, resp := post(t, ts, requestBody(t, b, func(m *map[string]any) {
		(*m)["timeout"] = "1ns"
	}))
	if status != http.StatusServiceUnavailable || resp.Verdict != "cancelled" {
		t.Fatalf("status %d resp %+v", status, resp)
	}
}

// TestConcurrentRequests hammers one daemon with a mixed model fleet —
// run under -race in CI. All requests share one cache; repeats of the
// same model must come back warm and identical.
func TestConcurrentRequests(t *testing.T) {
	builds := []func() (*models.Built, error){
		func() (*models.Built, error) { return models.GPT(models.Options{TP: 2}) },
		func() (*models.Built, error) { return models.Llama(models.Options{TP: 2}) },
		func() (*models.Built, error) { return models.Regression(models.Options{GradAccum: 2}) },
	}
	bodies := make([][]byte, len(builds))
	for i, build := range builds {
		b, err := build()
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = requestBody(t, b, nil)
	}
	ts, _ := newTestServer(t)

	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan string, rounds*len(bodies))
	for round := 0; round < rounds; round++ {
		for i := range bodies {
			wg.Add(1)
			go func(body []byte) {
				defer wg.Done()
				status, resp := post(t, ts, body)
				if status != http.StatusOK || resp.Verdict != "refined" {
					errs <- fmt.Sprintf("status %d resp %+v", status, resp)
				}
			}(bodies[i])
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	stats := getStats(t, ts)
	if stats.Requests != rounds*int64(len(bodies)) || stats.Refined != stats.Requests {
		t.Fatalf("stats: %+v", stats)
	}
	if stats.Cache == nil || stats.Cache.Hits == 0 {
		t.Fatalf("repeated models never hit the shared cache: %+v", stats)
	}
	if stats.InFlight != 0 {
		t.Fatalf("in-flight leak: %+v", stats)
	}
}

// TestMalformedCheckCountsOnce: a check the core rejects as malformed
// (here a collective inside G_s) is one 400 and one error in
// /v1/stats, on /v1/check and as the base of a /v1/recheck alike.
func TestMalformedCheckCountsOnce(t *testing.T) {
	b, err := models.GPT(models.Options{TP: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts, _ := newTestServer(t)
	// G_d checked against itself: every input maps to its namesake, so
	// the request parses and the core meets the all-reduce in "G_s".
	gd := graphJSON(t, b.Gd)
	rel := map[string][]string{}
	for _, in := range b.Gd.Inputs {
		name := b.Gd.Tensor(in).Name
		rel[name] = []string{name}
	}
	check, err := json.Marshal(map[string]any{"gs": gd, "gd": gd, "rel": rel})
	if err != nil {
		t.Fatal(err)
	}
	status, resp := post(t, ts, check)
	if status != http.StatusBadRequest || !strings.Contains(resp.Error, "contains collective") {
		t.Fatalf("check: status %d resp %+v", status, resp)
	}
	if got := getStats(t, ts).Errors; got != 1 {
		t.Fatalf("after one malformed check: errors = %d, want 1", got)
	}
	recheck := map[string]any{"base": gd, "candidates": []json.RawMessage{gd}, "gd": gd, "rel": rel}
	if status, _ := postRecheck(t, ts, recheck); status != http.StatusBadRequest {
		t.Fatalf("recheck: status %d", status)
	}
	if got := getStats(t, ts).Errors; got != 2 {
		t.Fatalf("after a malformed recheck base: errors = %d, want 2", got)
	}
}
