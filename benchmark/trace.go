package main

// The traced run: a fixed prefix of the workload's stream replayed
// in-process from a single goroutine, with spans around the calls into
// each layer's public functions. Instrumenting the program itself is a
// later change (ROADMAP item 2); until then a request is traced twice
// over: once through the real Server.ServeHTTP (span server.handler),
// and once re-enacted layer by layer against a shadow verdict store
// kept in the same state as the server's (span replay and its
// children). harness.trace_coverage compares the two, so a layer the
// re-enactment misses shows up as coverage below 1.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"entangle/internal/cluster"
	"entangle/internal/core"
	"entangle/internal/egraph"
	"entangle/internal/exprparse"
	"entangle/internal/fingerprint"
	"entangle/internal/graph"
	"entangle/internal/hlo"
	"entangle/internal/lemmas"
	"entangle/internal/relation"
	"entangle/internal/server"
	"entangle/internal/vcache"
)

// span is one timed interval. Spans of one request share Req; Parent
// is the span that caused this one (-1 at the root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how untimed priming reuses the traced code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) record(name string, parent, req int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// begin opens a span; the returned function closes it.
func (t *tracer) begin(name string, parent, req int) (id int, end func()) {
	if t == nil {
		return -1, func() {}
	}
	now := time.Now()
	id = t.record(name, parent, req, now, now)
	return id, func() {
		now := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		t.spans[id].End = now
		t.mu.Unlock()
	}
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (children may overlap each
// other: operator checks run on a worker pool).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// recordingStore is the shadow verdict store of the re-enactment: a
// vcache with a span around every Get and Put the checker makes, and a
// sample of the entries real checks produced.
type recordingStore struct {
	inner *vcache.Cache
	tr    *tracer

	mu          sync.Mutex
	parent, req int
	captured    []capturedEntry
}

type capturedEntry struct {
	key   fingerprint.Hash
	entry *vcache.Entry
}

// maxCaptured bounds the entry sample the vcache and cluster
// micro-measurements run over.
const maxCaptured = 512

func (s *recordingStore) under(parent, req int) {
	s.mu.Lock()
	s.parent, s.req = parent, req
	s.mu.Unlock()
}

func (s *recordingStore) where() (int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.parent, s.req
}

func (s *recordingStore) Get(key fingerprint.Hash) *vcache.Entry {
	t0 := time.Now()
	e := s.inner.Get(key)
	parent, req := s.where()
	s.tr.record("vcache.get", parent, req, t0, time.Now())
	return e
}

func (s *recordingStore) Put(key fingerprint.Hash, e *vcache.Entry) error {
	t0 := time.Now()
	err := s.inner.Put(key, e)
	parent, req := s.where()
	s.tr.record("vcache.put", parent, req, t0, time.Now())
	s.mu.Lock()
	if len(s.captured) < maxCaptured {
		s.captured = append(s.captured, capturedEntry{key, e})
	}
	s.mu.Unlock()
	return err
}

func (s *recordingStore) Stats() *vcache.Stats { return s.inner.Stats() }

// replayed is what one re-enacted request reported.
type replayed struct {
	ops, hits int
	live      egraph.Stats
	graphs    []*graph.Graph // as decoded: G_s, G_d and, on a recheck, the candidate
	rel       map[string][]string
	ri        *relation.Relation
	candRi    *relation.Relation
	jsonBytes int
	hloBytes  int
}

// reenactor runs one request body through the layers the handler calls,
// in the handler's order, against store. With a nil tracer it only
// brings store into the state the request leaves behind.
type reenactor struct {
	tr    *tracer
	store *recordingStore
}

func (e *reenactor) decodeGraph(parent, req int, raw json.RawMessage, format string, out *replayed) (*graph.Graph, error) {
	var g *graph.Graph
	var err error
	if format == "hlo" {
		_, end := e.tr.begin("hlo.parse", parent, req)
		var text string
		if err = json.Unmarshal(raw, &text); err == nil {
			g, err = hlo.Parse(bytes.NewReader([]byte(text)))
		}
		end()
		out.hloBytes += len(raw)
	} else {
		_, end := e.tr.begin("graph.read", parent, req)
		g, err = graph.Read(bytes.NewReader(raw))
		end()
		out.jsonBytes += len(raw)
	}
	if err == nil {
		out.graphs = append(out.graphs, g)
	}
	return g, err
}

// runCheck runs one core check against store the way the daemon does,
// with a child of span per live operator check from the public
// OpObserver hook.
func runCheck(tr *tracer, store core.VerdictStore, span, req int, run func(context.Context, *core.Checker) (*core.Report, error)) (*core.Report, error) {
	opts := core.Options{Cache: store}
	if tr != nil {
		opts.OpObserver = func(v *graph.Node, d time.Duration) {
			now := time.Now()
			tr.record("core.op", span, req, now.Add(-d), now)
		}
	}
	// The daemon bounds every check by its default request timeout.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	return run(ctx, core.NewChecker(opts))
}

// check re-enacts one of the request's checks against the shadow store
// under a span named name.
func (e *reenactor) check(name string, parent, req int, out *replayed, run func(context.Context, *core.Checker) (*core.Report, error)) (*core.Report, error) {
	id, end := e.tr.begin(name, parent, req)
	e.store.under(id, req)
	report, err := runCheck(e.tr, e.store, id, req, run)
	end()
	if err != nil {
		return nil, err
	}
	out.ops += report.OpsProcessed
	out.hits += int(report.Cache.Hits)
	out.live.Merge(report.LiveStats)
	return report, nil
}

func (e *reenactor) run(parent, req int, b *body) (*replayed, error) {
	out := &replayed{}
	if b.Path == "/v1/recheck" {
		return out, e.recheck(parent, req, b, out)
	}
	_, end := e.tr.begin("server.decode", parent, req)
	var cr server.CheckRequest
	err := json.NewDecoder(bytes.NewReader(b.Data)).Decode(&cr)
	end()
	if err != nil {
		return nil, err
	}
	gs, err := e.decodeGraph(parent, req, cr.Gs, cr.Format, out)
	if err != nil {
		return nil, err
	}
	gd, err := e.decodeGraph(parent, req, cr.Gd, cr.Format, out)
	if err != nil {
		return nil, err
	}
	out.rel = cr.Rel
	_, end = e.tr.begin("exprparse.relation", parent, req)
	out.ri, err = exprparse.ParseRelation(cr.Rel, gs, gd)
	end()
	if err != nil {
		return nil, err
	}
	report, err := e.check("core.check", parent, req, out, func(ctx context.Context, c *core.Checker) (*core.Report, error) {
		return c.CheckContext(ctx, gs, gd, out.ri)
	})
	if err != nil {
		return nil, err
	}
	_, end = e.tr.begin("server.encode", parent, req)
	resp := server.CheckResponse{Verdict: "refined", OpsProcessed: report.OpsProcessed,
		DurationMS: report.Duration.Milliseconds(), Stats: report.Stats, LiveStats: report.LiveStats,
		Cache: report.Cache, OutputRelation: map[string][]string{}}
	for _, o := range gs.Outputs {
		var exprs []string
		for _, t := range report.OutputRelation.Get(o) {
			exprs = append(exprs, t.String())
		}
		resp.OutputRelation[gs.Tensor(o).Name] = exprs
	}
	err = encodeIndented(resp)
	end()
	return out, err
}

func (e *reenactor) recheck(parent, req int, b *body, out *replayed) error {
	_, end := e.tr.begin("server.decode", parent, req)
	var rr server.RecheckRequest
	err := json.NewDecoder(bytes.NewReader(b.Data)).Decode(&rr)
	end()
	if err != nil {
		return err
	}
	base, err := e.decodeGraph(parent, req, rr.Base, rr.Format, out)
	if err != nil {
		return err
	}
	gd, err := e.decodeGraph(parent, req, rr.Gd, rr.Format, out)
	if err != nil {
		return err
	}
	out.rel = rr.Rel
	_, end = e.tr.begin("exprparse.relation", parent, req)
	out.ri, err = exprparse.ParseRelation(rr.Rel, base, gd)
	end()
	if err != nil {
		return err
	}
	// The handler first re-checks the base (a replay once primed).
	if _, err := e.check("core.check", parent, req, out, func(ctx context.Context, c *core.Checker) (*core.Report, error) {
		return c.CheckContext(ctx, base, gd, out.ri)
	}); err != nil {
		return err
	}
	cand, err := e.decodeGraph(parent, req, rr.Candidates[0], rr.Format, out)
	if err != nil {
		return err
	}
	_, end = e.tr.begin("exprparse.relation", parent, req)
	out.candRi, err = exprparse.ParseRelation(rr.Rel, cand, gd)
	end()
	if err != nil {
		return err
	}
	var delta *core.DeltaReport
	if _, err := e.check("core.recheck", parent, req, out, func(ctx context.Context, c *core.Checker) (*core.Report, error) {
		// A nil delta comes with an error; so does a candidate that
		// does not refine, which no generated request is.
		var derr error
		if delta, derr = c.DiffCheckContext(ctx, base, cand, gd, out.ri, out.candRi); derr != nil {
			return nil, derr
		}
		return delta.Report, nil
	}); err != nil {
		return err
	}
	_, end = e.tr.begin("server.encode", parent, req)
	err = encodeIndented(server.RecheckResponse{BaseVerdict: "refined", Candidates: []server.RecheckCandidate{{
		Verdict: "refined", UnchangedOps: delta.UnchangedOps, ReplayedOps: delta.ReplayedOps,
		RecheckedOps: delta.RecheckedOps, Changed: delta.Changed,
		DurationMS: delta.Report.Duration.Milliseconds(), Cache: delta.Report.Cache}}})
	end()
	return err
}

// encodeIndented encodes v the way the daemon writes responses.
func encodeIndented(v any) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// isolatedChecks is how many requests of a traced prefix, evenly
// spaced, also get the whole-check measurements of isolated.
const isolatedChecks = 48

// isolated times the layers a check calls internally, on their own, on
// the same inputs: what a request pays for them inside core.check. With
// checks set it also times whole checks of the request's graphs against
// a verdict store of their own, in memory: empty (core.check_cold),
// primed by that first check (core.check_warm), and the diff of an
// add/sum operand swap against it (core.diffplan, core.diffcheck) — the
// request's own candidate on a /v1/recheck body. Every workload thus
// reports every layer's cost on its inputs, whether or not its requests
// take that path.
func isolated(tr *tracer, parent, req int, r *replayed, checks bool, agg *aggregate) error {
	_, end := tr.begin("lemmas.registry_build", parent, req)
	reg := lemmas.Default()
	reg.Rules()
	reg.Fingerprint()
	end()

	gs, gd := r.graphs[0], r.graphs[1]
	_, end = tr.begin("fingerprint.cone_hash", parent, req)
	gdix, err := fingerprint.NewGdIndex(gd)
	if err == nil {
		cones := fingerprint.NewConeHasher(gs, r.ri, gdix)
		for _, v := range gs.Nodes {
			cones.Node(v.ID)
		}
		fingerprint.GraphDigest(gd)
	}
	end()
	if err != nil {
		return err
	}
	agg.hashedNodes += float64(len(gs.Nodes) + len(gd.Nodes))
	if !checks {
		return nil
	}

	store, err := vcache.Open(vcache.Config{})
	if err != nil {
		return err
	}
	full := func(ctx context.Context, c *core.Checker) (*core.Report, error) {
		return c.CheckContext(ctx, gs, gd, r.ri)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id, end := tr.begin("core.check_cold", parent, req)
	_, err = runCheck(tr, store, id, req, full)
	end()
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	agg.coldChecks++
	agg.coldAllocs += float64(after.Mallocs - before.Mallocs)
	agg.coldKB += float64(after.TotalAlloc-before.TotalAlloc) / 1024
	id, end = tr.begin("core.check_warm", parent, req)
	_, err = runCheck(tr, store, id, req, full)
	end()
	if err != nil {
		return err
	}

	var cand *graph.Graph
	candRi := r.candRi
	if len(r.graphs) == 3 {
		cand = r.graphs[2]
	} else if sites := swapSites(gs); len(sites) > 0 {
		cand = swapOperands(gs, sites[len(sites)/2])
		if candRi, err = exprparse.ParseRelation(r.rel, cand, gd); err != nil {
			return err
		}
	} else {
		return nil
	}
	_, end = tr.begin("core.diffplan", parent, req)
	_, err = core.DiffPlan(gs, r.ri, cand, candRi, gd)
	end()
	if err != nil {
		return err
	}
	id, end = tr.begin("core.diffcheck", parent, req)
	_, err = runCheck(tr, store, id, req, func(ctx context.Context, c *core.Checker) (*core.Report, error) {
		delta, err := c.DiffCheckContext(ctx, gs, cand, gd, r.ri, candRi)
		if err != nil {
			return nil, err
		}
		return delta.Report, nil
	})
	end()
	return err
}

// serve sends one request through node's real handler on a recorder.
func serve(nd *node, b *body) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	nd.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, b.Path, bytes.NewReader(b.Data)))
	return rec
}

// primeTraced brings the nodes and the shadow store into the workload's
// primed state side by side, untimed.
func primeTraced(t *target, store *recordingStore, w *workload, res *runResult) error {
	var shadowErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		quiet := &reenactor{store: store}
		for _, r := range w.prime {
			if _, err := quiet.run(-1, -1, r.body); err != nil {
				shadowErr = fmt.Errorf("priming shadow store with %s: %w", r.body.Name, err)
				return
			}
		}
	}()
	for _, r := range w.prime {
		rec := serve(t.nodes[r.node], r.body)
		problem, shape := checkAnswer(r, rec.Code, rec.Body.Bytes())
		res.record(r.body.Name, problem, shape)
	}
	wg.Wait()
	return shadowErr
}

func runTraced(ctx context.Context, name string, cfg runConfig) (*runResult, error) {
	res := newRunResult()
	for _, m := range perLayerMetrics {
		res.metrics[m.Name] = 0
	}
	w, err := buildWorkload(name, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	t, err := startInProcess(ctx, w.nodes, w.cacheParent(cfg.workDir))
	if err != nil {
		return nil, err
	}
	defer t.stop()
	shadowDirs, err := cacheDirs(w.cacheParent(cfg.workDir), 1)
	if err != nil {
		return nil, err
	}
	shadowCache, err := vcache.Open(vcache.Config{Dir: shadowDirs[0]})
	if err != nil {
		return nil, err
	}
	store := &recordingStore{inner: shadowCache}
	if err := primeTraced(t, store, w, res); err != nil {
		return nil, err
	}
	if res.failed > 0 {
		return res, nil
	}

	tr := newTracer()
	store.tr = tr
	re := &reenactor{tr: tr, store: store}
	before, err := t.stats()
	if err != nil {
		return nil, err
	}
	var agg aggregate
	prefix := w.stream[:w.traced]
	stride := max(1, len(prefix)/isolatedChecks)
	for i, r := range prefix {
		root, endRoot := tr.begin("request", -1, i)

		_, end := tr.begin("server.handler", root, i)
		rec := serve(t.nodes[r.node], r.body)
		end()
		problem, shape := checkAnswer(r, rec.Code, rec.Body.Bytes())
		res.record(r.body.Name, problem, shape)
		if rec.Code/100 != 2 {
			agg.non2xx++
		}
		agg.bytesIn += float64(len(r.body.Data))
		agg.bytesOut += float64(rec.Body.Len())

		rp, end := tr.begin("replay", root, i)
		out, err := re.run(rp, i, r.body)
		end()
		if err != nil {
			return nil, fmt.Errorf("re-enacting %s: %w", r.body.Name, err)
		}
		iso, end := tr.begin("isolated", root, i)
		err = isolated(tr, iso, i, out, i%stride == 0, &agg)
		end()
		if err != nil {
			return nil, fmt.Errorf("isolated layers of %s: %w", r.body.Name, err)
		}
		endRoot()
		agg.add(out)
	}
	after, err := t.stats()
	if err != nil {
		return nil, err
	}
	if res.failed > 0 {
		return res, nil
	}

	overhead, err := httpOverhead(t, prefix)
	if err != nil {
		return nil, err
	}
	if err := vcacheMicro(tr, store.captured, cfg.workDir); err != nil {
		return nil, err
	}
	if err := clusterMicro(ctx, tr, store.captured); err != nil {
		return nil, err
	}

	layerMetrics(res.metrics, tr.spans, &agg, float64(len(prefix)), before, after)
	res.metrics["server.http_overhead_ms"] = overhead
	res.metrics["harness.shape_violations"] = float64(res.shapeViolations)
	res.info["requests"] = float64(len(prefix))
	res.info["spans"] = float64(len(tr.spans))
	return res, writeTrace(filepath.Join(cfg.outDir, "trace-"+name+".json"), name, cfg.seed, tr.spans)
}

// layerMetrics reduces the spans, the re-enacted requests' reports and
// the nodes' /v1/stats before and after the traced prefix to the
// per-layer metrics. Timings are medians of per-request totals.
func layerMetrics(m map[string]float64, spans []span, agg *aggregate, nreq float64, before, after fleetStats) {
	byName := map[string][]float64{}       // every span
	perReq := map[string]map[int]float64{} // per-request totals
	var handlerSum, coveredSum float64
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s.ms())
		if s.Req >= 0 {
			if perReq[s.Name] == nil {
				perReq[s.Name] = map[int]float64{}
			}
			perReq[s.Name][s.Req] += s.ms()
		}
		if s.Name == "server.handler" {
			handlerSum += s.ms()
		}
		if s.Parent >= 0 && spans[s.Parent].Name == "replay" {
			coveredSum += s.ms()
		}
	}
	perRequest := func(name string) float64 {
		var xs []float64
		for _, v := range perReq[name] {
			xs = append(xs, v)
		}
		return median(xs)
	}
	us := func(name string) float64 { return median(byName[name]) * 1e3 }

	m["server.handler_ms"] = perRequest("server.handler")
	m["server.decode_ms"] = perRequest("server.decode")
	m["server.encode_ms"] = perRequest("server.encode")
	m["server.bytes_in_per_request"] = agg.bytesIn / nreq
	m["server.bytes_out_per_request"] = agg.bytesOut / nreq
	m["server.http_non2xx"] = agg.non2xx
	m["graph.read_ms"] = perRequest("graph.read")
	m["graph.read_mb_per_s"] = ratio(agg.jsonBytes/1e6, sum(byName["graph.read"])/1e3)
	m["graph.nodes_per_request"] = agg.graphNodes / nreq
	m["hlo.parse_ms"] = perRequest("hlo.parse")
	m["hlo.parse_mb_per_s"] = ratio(agg.hloBytes/1e6, sum(byName["hlo.parse"])/1e3)
	m["exprparse.relation_ms"] = perRequest("exprparse.relation")
	m["lemmas.registry_build_ms"] = perRequest("lemmas.registry_build")
	m["fingerprint.cone_hash_ms"] = perRequest("fingerprint.cone_hash")
	m["fingerprint.us_per_node"] = ratio(sum(byName["fingerprint.cone_hash"])*1e3, agg.hashedNodes)
	m["core.check_cold_ms"] = perRequest("core.check_cold")
	m["core.check_warm_ms"] = perRequest("core.check_warm")
	m["core.diffplan_ms"] = perRequest("core.diffplan")
	m["core.diffcheck_ms"] = perRequest("core.diffcheck")
	m["core.op_check_ms_p50"] = percentile(byName["core.op"], 50)
	m["core.op_check_ms_p95"] = percentile(byName["core.op"], 95)
	m["core.ops_checked"] = agg.ops
	m["core.ops_replayed"] = agg.hits
	m["core.ops_rechecked"] = agg.ops - agg.hits
	m["core.replay_share"] = ratio(agg.hits, agg.ops)
	m["core.allocs_per_check_cold"] = ratio(agg.coldAllocs, agg.coldChecks)
	m["core.kb_per_check_cold"] = ratio(agg.coldKB, agg.coldChecks)
	apps := 0.0
	for _, n := range agg.live.Applications {
		apps += float64(n)
	}
	m["egraph.iterations"] = float64(agg.live.Iterations)
	m["egraph.matches"] = float64(agg.live.Matches)
	m["egraph.applications"] = apps
	m["egraph.nodes"] = float64(agg.live.Nodes)
	m["egraph.applications_per_match"] = ratio(apps, float64(agg.live.Matches))
	m["egraph.budget_hits"] = float64(agg.live.BudgetHit)
	m["vcache.get_mem_us"] = us("vcache.get_mem")
	m["vcache.get_disk_us"] = us("vcache.get_disk")
	m["vcache.put_us"] = us("vcache.put_fresh")
	m["vcache.encode_us"] = us("vcache.encode")
	m["vcache.decode_us"] = us("vcache.decode")

	cache := func(f func(vcache.StatsSnapshot) int64) float64 { return float64(f(after.cache) - f(before.cache)) }
	fleet := func(f func(cluster.CacheStats) int64) float64 { return float64(f(after.cluster) - f(before.cluster)) }
	lookups := cache(func(c vcache.StatsSnapshot) int64 { return c.Hits + c.Misses })
	m["vcache.mem_hit_share"] = ratio(cache(func(c vcache.StatsSnapshot) int64 { return c.MemHits }), lookups)
	m["vcache.disk_hit_share"] = ratio(cache(func(c vcache.StatsSnapshot) int64 { return c.DiskHits }), lookups)
	m["vcache.evictions"] = cache(func(c vcache.StatsSnapshot) int64 { return c.Evictions })
	m["vcache.stores"] = cache(func(c vcache.StatsSnapshot) int64 { return c.Stores })
	m["cluster.fetch_rtt_ms"] = median(byName["cluster.fetch"])
	m["cluster.offer_rtt_ms"] = median(byName["cluster.offer"])
	peerHits := fleet(func(c cluster.CacheStats) int64 { return c.PeerHits })
	fetches := fleet(func(c cluster.CacheStats) int64 { return c.PeerHits + c.PeerMisses + c.Degraded })
	m["cluster.forwards_per_request"] = fleet(func(c cluster.CacheStats) int64 { return c.Forwards }) / nreq
	m["cluster.peer_fetches_per_request"] = fetches / nreq
	m["cluster.peer_hit_share"] = ratio(peerHits, fetches)
	m["cluster.degraded"] = fleet(func(c cluster.CacheStats) int64 { return c.Degraded })
	m["cluster.retries"] = float64(after.client.Retries - before.client.Retries)
	m["cluster.forward_failures"] = fleet(func(c cluster.CacheStats) int64 { return c.ForwardFailures })
	m["harness.trace_coverage"] = ratio(coveredSum, handlerSum)
}

// aggregate sums what the traced requests reported beside their spans.
type aggregate struct {
	bytesIn, bytesOut, non2xx       float64
	jsonBytes, hloBytes, graphNodes float64
	hashedNodes                     float64
	ops, hits                       float64
	live                            egraph.Stats
	coldChecks, coldAllocs, coldKB  float64
}

// add takes one re-enacted request.
func (a *aggregate) add(r *replayed) {
	a.jsonBytes += float64(r.jsonBytes)
	a.hloBytes += float64(r.hloBytes)
	for _, g := range r.graphs {
		a.graphNodes += float64(len(g.Nodes))
	}
	a.ops += float64(r.ops)
	a.hits += float64(r.hits)
	a.live.Merge(r.live)
}

// httpOverhead is what the socket adds to a request: the median, over
// a sample of the traced requests, of a round trip over loopback HTTP
// to the in-process listener minus the same request's handler time on
// a recorder. Every sampled request is warm by now, so both sides do
// the same work.
func httpOverhead(t *target, prefix []request) (float64, error) {
	c := newHTTPClient()
	defer c.CloseIdleConnections()
	var extra []float64
	for _, r := range subsample(prefix, 100) {
		nd := t.nodes[r.node]
		best := [2]float64{}
		for pass := 0; pass < 3; pass++ { // keep each side's fastest of three
			t0 := time.Now()
			rec := serve(nd, r.body)
			d := ms(time.Since(t0))
			t0 = time.Now()
			status, _, err := post(c, nd.url+r.body.Path, r.body.Data)
			h := ms(time.Since(t0))
			if err != nil {
				return 0, err
			}
			if rec.Code != http.StatusOK || status != http.StatusOK {
				return 0, fmt.Errorf("%s: warm replay answered %d / %d", r.body.Name, rec.Code, status)
			}
			if pass == 0 || d < best[0] {
				best[0] = d
			}
			if pass == 0 || h < best[1] {
				best[1] = h
			}
		}
		extra = append(extra, best[1]-best[0])
	}
	return median(extra), nil
}

// vcacheMicro times the verdict cache's public operations on entries
// real checks produced: a fresh store, a memory hit, a disk hit (a
// second cache opened on the same directory), and the entry codec.
func vcacheMicro(tr *tracer, entries []capturedEntry, workDir string) error {
	dir, err := os.MkdirTemp(workDir, "vmicro-")
	if err != nil {
		return err
	}
	first, err := vcache.Open(vcache.Config{Dir: dir})
	if err != nil {
		return err
	}
	second, err := vcache.Open(vcache.Config{Dir: dir})
	if err != nil {
		return err
	}
	timed := func(name string, f func() error) error {
		_, end := tr.begin(name, -1, -1)
		defer end()
		return f()
	}
	for _, ce := range entries {
		if err := timed("vcache.put_fresh", func() error { return first.Put(ce.key, ce.entry) }); err != nil {
			return err
		}
	}
	for _, ce := range entries {
		var data []byte
		err := timed("vcache.get_mem", func() error { return found(first.Get(ce.key)) })
		if err == nil {
			err = timed("vcache.get_disk", func() error { return found(second.Get(ce.key)) })
		}
		if err == nil {
			err = timed("vcache.encode", func() (e error) { data, e = vcache.EncodeEntry(ce.key, ce.entry); return })
		}
		if err == nil {
			err = timed("vcache.decode", func() error { _, e := vcache.DecodeEntry(ce.key, data); return e })
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func found(e *vcache.Entry) error {
	if e == nil {
		return fmt.Errorf("vcache: stored entry not found")
	}
	return nil
}

// clusterMicro times one peer round trip each way over the real
// HTTPTransport against a live node of a two-node fleet of its own.
func clusterMicro(ctx context.Context, tr *tracer, entries []capturedEntry) error {
	t, err := startInProcess(ctx, 2, "")
	if err != nil {
		return err
	}
	defer t.stop()
	client := cluster.NewClient(cluster.ClientConfig{Transport: &cluster.HTTPTransport{}})
	peer := cluster.Member{ID: t.nodes[0].id, URL: t.nodes[0].url}
	for _, ce := range subsample(entries, 256) {
		_, end := tr.begin("cluster.offer", -1, -1)
		err := client.Offer(ctx, peer, ce.key, ce.entry)
		end()
		if err != nil {
			return err
		}
		_, end = tr.begin("cluster.fetch", -1, -1)
		_, err = client.Fetch(ctx, peer, ce.key)
		end()
		if err != nil {
			return err
		}
	}
	return nil
}

func writeTrace(path, workload string, seed int64, spans []span) error {
	self := selfTimes(spans)
	type out struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	rows := make([]out, len(spans))
	for i, s := range spans {
		rows[i] = out{s, self[i]}
	}
	data, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": rows})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
