package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"

	"entangle/internal/core"
	"entangle/internal/exprparse"
	"entangle/internal/fingerprint"
	"entangle/internal/hlo"
	"entangle/internal/models"
	"entangle/internal/vcache"
)

// hloBody is requestBody with both graphs as HLO text.
func hloBody(t testing.TB, b *models.Built) []byte {
	t.Helper()
	var gs, gd bytes.Buffer
	if err := hlo.Print(&gs, b.Gs); err != nil {
		t.Fatal(err)
	}
	if err := hlo.Print(&gd, b.Gd); err != nil {
		t.Fatal(err)
	}
	return requestBody(t, b, func(m *map[string]any) {
		(*m)["format"], (*m)["gs"], (*m)["gd"] = "hlo", gs.String(), gd.String()
	})
}

// FuzzCheckEnvelope: on any bytes at all, the span-indexed request
// decoders and json.Unmarshal into the same structs give the same
// verdict and, when they accept, the same fields.
func FuzzCheckEnvelope(f *testing.F) {
	gpt, err := models.GPT(models.Options{TP: 2})
	if err != nil {
		f.Fatal(err)
	}
	reg, err := models.Regression(models.Options{GradAccum: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(requestBody(f, gpt, nil))
	f.Add(hloBody(f, reg))
	recheck, err := json.Marshal(map[string]any{"base": graphJSON(f, reg.Gs), "candidates": []json.RawMessage{graphJSON(f, reg.Gs), []byte("null")},
		"gd": graphJSON(f, reg.Gd), "rel": map[string][]string{"x": {"concat(a, b, dim=0)"}}, "timeout": "30s"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(recheck)
	for _, seed := range []string{
		`{`, `null`, `[]`, `{} x`, ` {"gs":null,"GS":{},"gd":[1,2.5e-3,"é"],"rel":{"a":["b"]},"rel":{"c":null},"keep_going":true} `,
		`{"format":"hlo","format":null,"timeout":5}`, `{"candidates":[{},null,[]],"candidates":null,"Candidateſ":[1]}`,
		`{"verbose":"yes"}`, `{"rel":{"a":"b"}}`, `{"unknown":{"deep":[[[]]]},"timeout":"1s"}`, `{"gs":{"name":"g"},}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var check, checkRef CheckRequest
		err, refErr := check.decode(body), json.Unmarshal(body, &checkRef)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("check: span decoder says %v, json.Unmarshal says %v", err, refErr)
		}
		if err == nil && !reflect.DeepEqual(check, checkRef) {
			t.Fatalf("check: decoded %+v, json.Unmarshal %+v", check, checkRef)
		}
		var recheck, recheckRef RecheckRequest
		err, refErr = recheck.decode(body), json.Unmarshal(body, &recheckRef)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("recheck: span decoder says %v, json.Unmarshal says %v", err, refErr)
		}
		if len(recheckRef.Candidates) == 0 {
			recheckRef.Candidates = nil // "candidates": [] and null are both "none"
		}
		if err == nil && !reflect.DeepEqual(recheck, recheckRef) {
			t.Fatalf("recheck: decoded %+v, json.Unmarshal %+v", recheck, recheckRef)
		}
	})
}

// frontEnd is everything between a /v1/check body and the first cache
// probe: the envelope, both graphs, the relation, the G_d index, every
// G_s cone hash and the G_d digest, which the daemon's table tab holds
// (a hit) or derives (a miss).
func frontEnd(t testing.TB, tab *digestTable, body []byte) {
	var req CheckRequest
	if err := req.decode(body); err != nil {
		t.Fatal(err)
	}
	gs, err := decodeGraph(req.Gs, req.Format)
	if err != nil {
		t.Fatal(err)
	}
	gd, _, err := tab.decodeGd(req.Gd, req.Format)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := exprparse.ParseRelation(req.Rel, gs, gd)
	if err != nil {
		t.Fatal(err)
	}
	gdix, err := fingerprint.NewGdIndex(gd)
	if err != nil {
		t.Fatal(err)
	}
	order, err := gs.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	hasher := fingerprint.NewConeHasher(gs, ri, gdix)
	for _, v := range order {
		hasher.Node(v.ID)
	}
}

// frontEndRuns is frontEnd of body against a table that holds its G_d
// (hit) or does not (a miss: the table is emptied first).
func frontEndRuns(t testing.TB, body []byte, hit bool) func() {
	var tab digestTable
	return func() {
		if !hit {
			clear(tab.slots[:])
		}
		frontEnd(t, &tab, body)
	}
}

// TestFrontEndAllocs is the front end's allocation ratchet: a request's
// way to its cache keys may allocate at most 10% more than it did once
// graphs were built from per-graph slabs (414 for the JSON body, 497 for
// the HLO one, as they still do when the digest table misses; 3053 and
// 3897 when encoding/json reflected the graphs into structs, the HLO
// reader sat behind a 1 MiB scanner buffer and the hasher wrote hex
// strings through fmt) — and a request whose G_d the table holds, at
// most 10% more than it did once the table was there (405 and 488).
func TestFrontEndAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	gpt, err := models.GPT(models.Options{TP: 2})
	if err != nil {
		t.Fatal(err)
	}
	llama, err := models.Llama(models.Options{TP: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		body      []byte
		miss, hit float64 // at those commits
	}{
		{"GPT TP2 L1 (JSON)", requestBody(t, gpt, nil), 414, 405},
		{"Llama-3 TP2 L1 (HLO)", hloBody(t, llama), 497, 488},
	} {
		for _, r := range []struct {
			table    string
			hit      bool
			recorded float64
		}{{"miss", false, c.miss}, {"hit", true, c.hit}} {
			got := testing.AllocsPerRun(20, frontEndRuns(t, c.body, r.hit))
			t.Logf("%s, digest table %s: %.0f allocations per request", c.name, r.table, got)
			if got > 1.1*r.recorded {
				t.Errorf("%s, digest table %s: %.0f allocations per request, ceiling %.0f", c.name, r.table, got, 1.1*r.recorded)
			}
		}
	}
}

// warmCheck is one /v1/check of body against s, through the handler,
// answered 200.
func warmCheck(t testing.TB, s *Server, body []byte) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/check", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
}

// primedServer is a daemon whose verdict cache has seen every body once.
func primedServer(t testing.TB, bodies ...[]byte) *Server {
	vc, err := vcache.Open(vcache.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Options: core.Options{Cache: vc}})
	for _, body := range bodies {
		warmCheck(t, s, body)
	}
	return s
}

// bytesPerRun is what one call of f allocates in bytes, averaged over
// runs after a warm-up call — AllocsPerRun's measure, for bytes.
func bytesPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestWarmCheckAllocs is the warm path's allocation ratchet: a whole
// /v1/check the cache has every verdict of — envelope, both graphs,
// relation, keys, replay, response — may allocate at most 10% more
// objects and bytes than it did once the daemon kept one G_d digest per
// distinct G_d and replay decoded terms without per-node garbage (712
// objects and 101,384 bytes for the JSON body, 846 and 121,048 for the
// HLO one; 793 and 111,013, 948 and 131,295 once verdicts were held as
// their bytes; 1789 and 168,187, 1923 and 197,580 before the graphs were
// built from slabs and replay shared its leaves).
func TestWarmCheckAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	gpt, err := models.GPT(models.Options{TP: 2})
	if err != nil {
		t.Fatal(err)
	}
	llama, err := models.Llama(models.Options{TP: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name         string
		body         []byte
		allocs, size float64 // at that commit
	}{
		{"GPT TP2 L1 (JSON)", requestBody(t, gpt, nil), 712, 101384},
		{"Llama-3 TP2 L1 (HLO)", hloBody(t, llama), 846, 121048},
	} {
		s := primedServer(t, c.body)
		check := func() { warmCheck(t, s, c.body) }
		allocs, size := testing.AllocsPerRun(50, check), bytesPerRun(50, check)
		t.Logf("%s: %.0f allocations, %.0f bytes per request", c.name, allocs, size)
		if allocs > 1.1*c.allocs {
			t.Errorf("%s: %.0f allocations per request, ceiling %.0f", c.name, allocs, 1.1*c.allocs)
		}
		if size > 1.1*c.size {
			t.Errorf("%s: %.0f bytes per request, ceiling %.0f", c.name, size, 1.1*c.size)
		}
	}
}

// TestReleasedBodyIsNotRead: a request body's buffer goes back to
// bodies once the response is written, and a later request reads its
// body into it. Nothing may read the old bytes then: the graphs and the
// relation decoded from a body, and a response written from it, are
// unchanged after the released buffer is overwritten.
func TestReleasedBodyIsNotRead(t *testing.T) {
	gpt, err := models.GPT(models.Options{TP: 2})
	if err != nil {
		t.Fatal(err)
	}
	llama, err := models.Llama(models.Options{TP: 2, Cfg: models.Config{Layers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	a, b := requestBody(t, gpt, nil), requestBody(t, llama, nil)
	scribble := func(buf *bytes.Buffer) {
		old := buf.Bytes()[:buf.Cap()]
		for i := range old {
			old[i] = '#'
		}
	}

	buf := bodies.Get().(*bytes.Buffer)
	buf.Write(a)
	var req CheckRequest
	if err := req.decode(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	gs, err := decodeGraph(req.Gs, req.Format)
	if err != nil {
		t.Fatal(err)
	}
	gd, _, err := new(digestTable).decodeGd(req.Gd, req.Format)
	if err != nil {
		t.Fatal(err)
	}
	ri, err := exprparse.ParseRelation(req.Rel, gs, gd)
	if err != nil {
		t.Fatal(err)
	}
	decoded := func() string {
		js, err := gs.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		jd, err := gd.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return string(js) + string(jd) + ri.Render(gs)
	}
	before := decoded()
	releaseBody(buf)
	scribble(buf)
	if decoded() != before {
		t.Error("the graphs and relation decoded from a body changed when its released buffer was overwritten")
	}

	s := New(Config{Options: core.Options{KeepGoing: true}})
	check := func(body []byte) (*httptest.ResponseRecorder, CheckResponse) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/check", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		var cr CheckResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
			t.Fatal(err)
		}
		cr.DurationMS = 0
		return rec, cr
	}
	rec, first := check(a)
	written := rec.Body.String()
	check(b) // reads its body into the buffer a's request released
	buf = bodies.Get().(*bytes.Buffer)
	scribble(buf)
	releaseBody(buf)
	if rec.Body.String() != written {
		t.Error("a response changed when its request's buffer was reused")
	}
	if _, again := check(a); !reflect.DeepEqual(again, first) {
		t.Errorf("the same body answered differently after its buffer was reused:\n%+v\n%+v", first, again)
	}
}

// benchBodies are the bodies the benchmarks time: the TP2 L1 pair the
// allocation ratchets pin, and a pair the size of the end-to-end
// benchmark's bodies (a G_d of 162 nodes as JSON, of 210 as HLO).
func benchBodies(b *testing.B) []struct {
	name string
	body []byte
} {
	build := func(model func(models.Options) (*models.Built, error), tp, layers int) *models.Built {
		m, err := model(models.Options{TP: tp, Cfg: models.Config{Layers: layers}})
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	return []struct {
		name string
		body []byte
	}{
		{"GPT-TP2-L1-JSON", requestBody(b, build(models.GPT, 2, 1), nil)},
		{"Llama-TP2-L1-HLO", hloBody(b, build(models.Llama, 2, 1))},
		{"GPT-TP4-L3-JSON", requestBody(b, build(models.GPT, 4, 3), nil)},
		{"Llama-TP4-L3-HLO", hloBody(b, build(models.Llama, 4, 3))},
	}
}

func BenchmarkWarmCheck(b *testing.B) {
	for _, c := range benchBodies(b) {
		b.Run(c.name, func(b *testing.B) {
			s := primedServer(b, c.body)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				warmCheck(b, s, c.body)
			}
		})
	}
}

func BenchmarkFrontEnd(b *testing.B) {
	for _, c := range benchBodies(b) {
		for _, table := range []string{"miss", "hit"} {
			b.Run(c.name+"/"+table, func(b *testing.B) {
				run := frontEndRuns(b, c.body, table == "hit")
				run()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
			})
		}
	}
}
