package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"

	"entangle/internal/core"
	"entangle/internal/exprparse"
	"entangle/internal/fingerprint"
	"entangle/internal/graph"
	"entangle/internal/hlo"
	"entangle/internal/jsonspan"
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

// sameGraph: the graph built from what the envelope pass read of a
// member is the one decodeGraph reads from the member's span, or both
// fail with one error text.
func sameGraph(t *testing.T, what string, m *graphMember, raw json.RawMessage, format string) {
	t.Helper()
	got, err := m.build(raw, format)
	want, wantErr := decodeGraph(raw, format)
	switch {
	case (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error():
		t.Fatalf("%s: built in place: %v; from its span: %v", what, err, wantErr)
	case !reflect.DeepEqual(got, want):
		t.Fatalf("%s: built in place %+v, from its span %+v", what, got, want)
	}
}

// FuzzCheckEnvelope: on any bytes at all, the span-indexed request
// decoders and json.Unmarshal into the same structs give the same
// verdict and, when they accept, the same fields; and every graph
// member built from what the envelope pass read in place is the graph
// decodeGraph reads from its span, or fails with the same error.
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
	var gs, gd bytes.Buffer
	if err := hlo.Print(&gs, reg.Gs); err != nil {
		f.Fatal(err)
	}
	if err := hlo.Print(&gd, reg.Gd); err != nil {
		f.Fatal(err)
	}
	recheck, err = json.Marshal(map[string]any{"base": gs.String(), "candidates": []any{gs.String(), graphJSON(f, reg.Gs)},
		"gd": gd.String(), "format": "hlo"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(recheck)
	for _, seed := range []string{
		`{`, `null`, `[]`, `{} x`, ` {"gs":null,"GS":{},"gd":[1,2.5e-3,"é"],"rel":{"a":["b"]},"rel":{"c":null},"keep_going":true} `,
		`{"format":"hlo","format":null,"timeout":5}`, `{"candidates":[{},null,[]],"candidates":null,"Candidateſ":[1]}`,
		`{"verbose":"yes"}`, `{"rel":{"a":"b"}}`, `{"unknown":{"deep":[[[]]]},"timeout":"1s"}`, `{"gs":{"name":"g"},}`,
		`{"gs":{"inputs":[{"name":"x","shape":["4"]}],"outputs":["x"]},"gd":"HloModule d\n%x = f32[4] parameter(0)\nROOT %r = tuple(%x)\n","format":"hlo"}`,
		`{"gs":{"name":"first","outputs":["x"]},"GS":{"name":"sécond","inputs":[{"name":"x\u00e9","shape":["2*S+1"]}],"outputs":["x\u00e9"]},"gd":null}`,
		`{"gs":{"nodes":[{"op":"add","inputs":["a",1]}]},"gd":{"nodes":[{"op":7}]},"base":{"nodes":{}},"candidates":[{"name":["x"]}]}`,
		`{"base":{"inputs":[{"name":"a","shape":["4"]}],"outputs":["a"]},"candidates":["HloModule c",{"outputs":["a"]}],"format":"json"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var in graphs
		var check, checkRef CheckRequest
		err, refErr := check.decode(body, &in), json.Unmarshal(body, &checkRef)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("check: span decoder says %v, json.Unmarshal says %v", err, refErr)
		}
		if err == nil && !reflect.DeepEqual(check, checkRef) {
			t.Fatalf("check: decoded %+v, json.Unmarshal %+v", check, checkRef)
		}
		if err == nil {
			sameGraph(t, "check gs", &in.gs, check.Gs, check.Format)
			sameGraph(t, "check gd", &in.gd, check.Gd, check.Format)
		}
		in = graphs{}
		var recheck, recheckRef RecheckRequest
		err, refErr = recheck.decode(body, &in), json.Unmarshal(body, &recheckRef)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("recheck: span decoder says %v, json.Unmarshal says %v", err, refErr)
		}
		if len(recheckRef.Candidates) == 0 {
			recheckRef.Candidates = nil // "candidates": [] and null are both "none"
		}
		if err == nil && !reflect.DeepEqual(recheck, recheckRef) {
			t.Fatalf("recheck: decoded %+v, json.Unmarshal %+v", recheck, recheckRef)
		}
		if err == nil {
			sameGraph(t, "recheck base", &in.base, recheck.Base, recheck.Format)
			sameGraph(t, "recheck gd", &in.gd, recheck.Gd, recheck.Format)
			for i, raw := range recheck.Candidates {
				sameGraph(t, fmt.Sprintf("recheck candidate %d", i), &in.candidates[i], raw, recheck.Format)
			}
		}
	})
}

// frontEnd is everything between a /v1/check body and the first cache
// probe: the envelope, both graphs, the relation, the G_d index, every
// G_s cone hash and the G_d digest, which the daemon's table tab holds
// (a hit) or derives (a miss).
func frontEnd(t testing.TB, tab *digestTable, body []byte) {
	var req CheckRequest
	var in graphs
	if err := req.decode(body, &in); err != nil {
		t.Fatal(err)
	}
	gs, err := in.gs.build(req.Gs, req.Format)
	if err != nil {
		t.Fatal(err)
	}
	gd, _, err := tab.decodeGd(&in.gd, req.Gd, req.Format)
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
// objects and bytes than it did once a full check stopped building a
// plan (697 objects and 82,200 bytes for the JSON body, 823 and 108,400
// for the HLO one; 699 and 83,000, 825 and 109,450 once graph members
// were indexed where they stand in the envelope; 712 and 101,384, 846 and
// 121,048 once the daemon kept one G_d digest per distinct G_d and
// replay decoded terms without per-node garbage; 793 and 111,013, 948
// and 131,295 once verdicts were held as their bytes; 1789 and 168,187,
// 1923 and 197,580 before the graphs were built from slabs and replay
// shared its leaves).
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
		{"GPT TP2 L1 (JSON)", requestBody(t, gpt, nil), 697, 82200},
		{"Llama-3 TP2 L1 (HLO)", hloBody(t, llama), 823, 108400},
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
	var in graphs
	if err := req.decode(buf.Bytes(), &in); err != nil {
		t.Fatal(err)
	}
	gs, err := in.gs.build(req.Gs, req.Format)
	if err != nil {
		t.Fatal(err)
	}
	gd, _, err := new(digestTable).decodeGd(&in.gd, req.Gd, req.Format)
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

// TestReleasedIndexIsNotRead: a graph built from an index keeps nothing
// of it. The graphs and the relation built from a body are unchanged
// after the indexes they were built from read other documents. The
// body's output names are spelt with an escape, so they are read into
// each index's side buffer, not left in the body, and the second
// document spells every '/' as an escape, so it overwrites the side
// buffers too.
func TestReleasedIndexIsNotRead(t *testing.T) {
	gpt, err := models.GPT(models.Options{TP: 2})
	if err != nil {
		t.Fatal(err)
	}
	llama, err := models.Llama(models.Options{TP: 2, Cfg: models.Config{Layers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	body := bytes.ReplaceAll(requestBody(t, gpt, nil), []byte(`.out"`), []byte(`\u002eout"`))
	var req CheckRequest
	var in graphs
	if err := req.decode(body, &in); err != nil {
		t.Fatal(err)
	}
	built := []*graph.Index{in.gs.ix, in.gd.ix}
	if built[0] == nil || built[1] == nil {
		t.Fatal("the graph members were not read in place")
	}
	gs, err := in.gs.build(req.Gs, req.Format)
	if err != nil {
		t.Fatal(err)
	}
	gd, _, err := new(digestTable).decodeGd(&in.gd, req.Gd, req.Format)
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
	other := graphJSON(t, llama.Gd)
	for _, ix := range built {
		for _, doc := range [][]byte{graphJSON(t, llama.Gs), bytes.ReplaceAll(other, []byte(`/`), []byte(`\/`))} {
			if err := ix.Read(jsonspan.New(doc)); err != nil {
				t.Fatal(err)
			}
			if _, err := ix.Build(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if decoded() != before {
		t.Error("the graphs and relation built from a body changed when their indexes read other documents")
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
