// Package server is the HTTP front end of the entangled checker
// daemon: a long-lived process that keeps one warm verdict cache (and
// one materialized lemma registry) across many refinement checks, so a
// CI fleet or an interactive capture loop pays the saturation cost of
// each operator exactly once.
//
// Endpoints:
//
//	POST /v1/check    — graph pair + input relation in, Report out
//	POST /v1/recheck  — base G_s + edited candidates in, per-candidate
//	                    incremental delta out (only each edit's
//	                    downstream cone is re-saturated)
//	GET  /v1/healthz  — liveness ("ok")
//	GET  /v1/stats    — daemon counters + verdict-cache counters
//	POST|PUT /v1/peer/verdicts — fleet nodes only: a batch of verdicts
//	                    fetched from / offered to this node's shard
//
// The handlers are codecs: every check — /v1/check, a recheck's base
// pass, each candidate — goes through run, what it amounts to is
// core.Classify's decision, and answers is the daemon's reading of it.
//
// Checks run under a bounded admission gate (Config.MaxConcurrent, see
// gate.go) and a per-request deadline threaded through context, so one
// pathological graph can neither monopolize the process nor hang a
// drain. Graceful shutdown is explicit: Server.Drain flips the gate so
// no new check is admitted (even on connections already open) and
// waits for admitted checks to finish; cmd/entangled calls it on
// SIGTERM alongside http.Server.Shutdown. The gate's admission/drain
// protocol is exhaustively model-checked in internal/mc/models.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"entangle/internal/cluster"
	"entangle/internal/core"
	"entangle/internal/egraph"
	"entangle/internal/exprparse"
	"entangle/internal/graph"
	"entangle/internal/hlo"
	"entangle/internal/jsonspan"
	"entangle/internal/lemmas"
	"entangle/internal/relation"
	"entangle/internal/vcache"
)

// Config parameterizes a daemon.
type Config struct {
	// Options is the base checker configuration shared by every
	// request; Options.Cache (when non-nil) is the warm verdict cache.
	// A request's keep_going field overrides Options.KeepGoing for
	// that request only.
	Options core.Options
	// MaxConcurrent bounds simultaneous checks (0 = GOMAXPROCS).
	// Requests beyond the bound queue on the semaphore until a slot
	// frees or their context expires.
	MaxConcurrent int
	// DefaultTimeout bounds each check when the request carries no
	// timeout of its own (0 = none).
	DefaultTimeout time.Duration
	// MaxBodyBytes bounds every request body via http.MaxBytesReader
	// (0 = DefaultMaxBodyBytes). Oversized requests get 413 instead of
	// buffering without bound.
	MaxBodyBytes int64
	// Local is this node's own verdict shard, served to fleet peers on
	// cluster.PeerPath — the raw store, where Options.Cache is the
	// fleet-routing one (see cluster.Shard). Nil disables the peer
	// endpoint (404).
	Local *vcache.Cache
	// ClusterInfo, when non-nil, is rendered into /v1/stats under
	// "cluster" (the daemon wires the fleet cache's counters here).
	ClusterInfo func() any
}

// DefaultMaxBodyBytes bounds request bodies when Config.MaxBodyBytes
// is zero: large enough for captured production graphs, small enough
// that a malicious or confused client cannot buffer the daemon into
// the ground.
const DefaultMaxBodyBytes = 64 << 20

// Server handles the daemon's HTTP API. Safe for concurrent use.
type Server struct {
	cfg   Config
	shard *cluster.Shard // nil unless Config.Local is set
	mux   *http.ServeMux
	gate  *Gate
	start time.Time
	// gds holds the digest of each distinct G_d decoded, for the
	// checker's cache keys.
	gds digestTable

	requests atomic.Int64 // /v1/check requests accepted
	refined  atomic.Int64 // checks that verified refinement
	failed   atomic.Int64 // checks that disproved or degraded
	errored  atomic.Int64 // malformed requests, cancellations, faults
	inflight atomic.Int64 // checks currently running or queued
}

// New builds a server.
func New(cfg Config) *Server {
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.Options.Registry == nil {
		cfg.Options.Registry = lemmas.Default() // once, not per request
	}
	s := &Server{
		cfg:   cfg,
		mux:   http.NewServeMux(),
		gate:  NewGate(cfg.MaxConcurrent),
		start: time.Now(),
	}
	if cfg.Local != nil {
		s.shard = &cluster.Shard{Local: cfg.Local}
	}
	s.mux.HandleFunc("/v1/check", only(http.MethodPost, s.handleCheck))
	s.mux.HandleFunc("/v1/recheck", only(http.MethodPost, s.handleRecheck))
	s.mux.HandleFunc(cluster.PeerPath, s.handlePeerVerdicts)
	s.mux.HandleFunc("/v1/healthz", only(http.MethodGet, s.handleHealthz))
	s.mux.HandleFunc("/v1/stats", only(http.MethodGet, s.handleStats))
	return s
}

// only answers every other method 405.
func only(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		h(w, r)
	}
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain begins graceful shutdown: no new check is admitted from this
// point on (queued requests are bounced with 503 "draining"), and the
// call blocks until every already-admitted check completes or ctx
// expires. Idempotent; safe to run alongside http.Server.Shutdown.
func (s *Server) Drain(ctx context.Context) error { return s.gate.Drain(ctx) }

// CheckRequest is the /v1/check body. Graphs arrive in the JSON
// interchange format (or, with format "hlo", as HLO-flavoured text in
// a JSON string); the relation uses the same name→expressions map as
// the CLI's -rel sidecar.
type CheckRequest struct {
	Format    string              `json:"format,omitempty"` // "json" (default) or "hlo"
	Gs        json.RawMessage     `json:"gs"`
	Gd        json.RawMessage     `json:"gd"`
	Rel       map[string][]string `json:"rel"`
	Timeout   string              `json:"timeout,omitempty"` // Go duration, e.g. "30s"
	KeepGoing bool                `json:"keep_going,omitempty"`
	Verbose   bool                `json:"verbose,omitempty"` // include the full relation
}

// CheckResponse is the /v1/check reply. Verdict is "refined",
// "failed", or "cancelled"; Error carries the failure text verbatim
// (the same rendering the CLI prints, minus an engine fault's stack).
type CheckResponse struct {
	Verdict string `json:"verdict"`
	Error   string `json:"error,omitempty"`
	// Failures lists every failing operator's deterministic
	// description (keep_going mode).
	Failures []string `json:"failures,omitempty"`
	// OutputRelation maps each G_s output name to its clean
	// expressions over G_d outputs.
	OutputRelation map[string][]string `json:"output_relation,omitempty"`
	// FullRelation is the intermediate-tensor relation rendering
	// (verbose requests only).
	FullRelation string          `json:"full_relation,omitempty"`
	OpsProcessed int             `json:"ops_processed"`
	DurationMS   int64           `json:"duration_ms"`
	Stats        egraph.Stats    `json:"stats"`
	LiveStats    egraph.Stats    `json:"live_stats"`
	Cache        core.CacheStats `json:"cache"`
}

// StatsResponse is the /v1/stats reply.
type StatsResponse struct {
	UptimeSeconds float64               `json:"uptime_seconds"`
	Requests      int64                 `json:"requests"`
	Refined       int64                 `json:"refined"`
	Failed        int64                 `json:"failed"`
	Errors        int64                 `json:"errors"`
	InFlight      int64                 `json:"in_flight"`
	MaxConcurrent int                   `json:"max_concurrent"`
	Draining      bool                  `json:"draining"`
	PeerGets      int64                 `json:"peer_gets,omitempty"`
	PeerPuts      int64                 `json:"peer_puts,omitempty"`
	Cache         *vcache.StatsSnapshot `json:"cache,omitempty"`
	// Cluster is the fleet cache's counter block (Config.ClusterInfo);
	// absent on single-node daemons.
	Cluster any `json:"cluster,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.requests.Load(),
		Refined:       s.refined.Load(),
		Failed:        s.failed.Load(),
		Errors:        s.errored.Load(),
		InFlight:      s.inflight.Load(),
		MaxConcurrent: s.cfg.MaxConcurrent,
		Draining:      s.gate.Snapshot().Draining,
	}
	if s.cfg.Options.Cache != nil {
		snap := s.cfg.Options.Cache.Stats().Snapshot()
		resp.Cache = &snap
	}
	if s.shard != nil {
		resp.PeerGets, resp.PeerPuts = s.shard.Served()
	}
	if s.cfg.ClusterInfo != nil {
		resp.Cluster = s.cfg.ClusterInfo()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handlePeerVerdicts mounts the node's shard (cluster.Shard, where the
// peer protocol lives) behind the daemon's own concerns: the body bound
// and a drain. Peers treat 503 like any transport failure — they degrade
// to a local cold check — so a drain never waits on peer chatter.
func (s *Server) handlePeerVerdicts(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.shard == nil:
		http.Error(w, "not a fleet node", http.StatusNotFound)
	case s.gate.Snapshot().Draining:
		http.Error(w, "draining", http.StatusServiceUnavailable)
	default:
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		setWriteDeadline(w)
		s.shard.ServeHTTP(w, r)
	}
}

// decodeBody reads a request body whole under the configured byte
// bound and hands it to decode. A body over the bound is answered 413
// whatever it holds, one that does not decode 400; in both cases the
// request is counted as errored and nil is returned. Otherwise the
// body's buffer is returned: what decode read stays spans of it, so the
// handler hands it back with releaseBody only once it has written its
// response.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, decode func(body []byte) error) *bytes.Buffer {
	body := bodies.Get().(*bytes.Buffer)
	// At most one allocation for a body that is as long as it says; a
	// length nobody has sent yet reserves no more than bodyReserve.
	body.Grow(int(min(max(r.ContentLength, 0), bodyReserve)) + bytes.MinRead)
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		s.refuse(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
	case err != nil:
		s.badRequest(w, "reading request: %v", err)
	default:
		if err = decode(body.Bytes()); err != nil {
			s.badRequest(w, "decoding request: %v", err)
		}
	}
	if err != nil {
		releaseBody(body)
		return nil
	}
	return body
}

// bodyReserve caps what a Content-Length header alone makes the daemon
// allocate, and the size of a body buffer bodies keeps.
const bodyReserve = 1 << 20

// bodies holds request-body buffers between requests: a verdict-warm
// check allocates little else, so a fresh buffer per body would set the
// pace of the collector.
var bodies = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// releaseBody hands a body buffer back; one grown past bodyReserve is
// left to the collector.
func releaseBody(b *bytes.Buffer) {
	if b.Cap() <= bodyReserve+bytes.MinRead {
		b.Reset()
		bodies.Put(b)
	}
}

// decode reads a /v1/check body in one pass: a span scanner checks the
// whole text and indexes the request object's members. Each graph
// member is read where it stands into in (see graphMember.read), and its
// exact span is kept; the strings and the relation are read by the
// scanner, and the flags go through encoding/json on their own spans,
// in the order they appear, so a repeated, null or mistyped member
// means what json.Unmarshal into the struct makes it mean.
func (req *CheckRequest) decode(body []byte, in *graphs) error {
	s := jsonspan.New(body)
	err := s.Object(func(key []byte) error {
		switch jsonspan.Field(key, "format", "gs", "gd", "rel", "timeout", "keep_going", "verbose") {
		case 0:
			return text(s, &req.Format)
		case 1:
			return in.gs.read(s, &req.Gs)
		case 2:
			return in.gd.read(s, &req.Gd)
		case 3:
			return rel(s, &req.Rel)
		case 4:
			return text(s, &req.Timeout)
		case 5:
			return small(s, &req.KeepGoing)
		case 6:
			return small(s, &req.Verbose)
		}
		return s.Skip()
	})
	if err != nil {
		return err
	}
	return s.End()
}

// decode reads a /v1/recheck body the way CheckRequest.decode reads a
// check's.
func (req *RecheckRequest) decode(body []byte, in *graphs) error {
	s := jsonspan.New(body)
	err := s.Object(func(key []byte) error {
		switch jsonspan.Field(key, "format", "base", "candidates", "gd", "rel", "timeout") {
		case 0:
			return text(s, &req.Format)
		case 1:
			return in.base.read(s, &req.Base)
		case 2:
			req.Candidates, in.candidates = nil, nil
			return s.Array(func() error {
				req.Candidates = append(req.Candidates, nil)
				in.candidates = append(in.candidates, graphMember{})
				return in.candidates[len(in.candidates)-1].read(s, &req.Candidates[len(req.Candidates)-1])
			})
		case 3:
			return in.gd.read(s, &req.Gd)
		case 4:
			return rel(s, &req.Rel)
		case 5:
			return text(s, &req.Timeout)
		}
		return s.Skip()
	})
	if err != nil {
		return err
	}
	return s.End()
}

// graphs is what the envelope pass read of a request's graph members
// beyond their spans, which the request's exported fields keep.
type graphs struct {
	gs, gd, base graphMember
	candidates   []graphMember
}

// graphMember is one graph member read in place: an object into a
// graph.Index, a string unquoted into the module text hlo parses. A
// member read neither way has only its span (an empty string is left to
// it too: decodeGraph makes the same of it).
type graphMember struct {
	ix     *graph.Index
	module string
}

// read reads a graph member's value into m, replacing what m held, and
// its span into raw. An object is indexed and a string unquoted where
// they stand. A value that cannot be read so, for any reason, is passed
// over again for its span alone: build then hands the span to
// decodeGraph, which reports what is wrong with it as it always has —
// the same words, offsets and order.
func (m *graphMember) read(s *jsonspan.Scanner, raw *json.RawMessage) (err error) {
	*m = graphMember{}
	switch s.Peek() {
	case '{':
		ix := new(graph.Index)
		if *raw, err = s.Try(func() error { return ix.Read(s) }); err == nil {
			m.ix = ix
			return nil
		}
	case '"':
		if *raw, err = s.Try(func() (err error) {
			m.module, _, err = s.Text()
			return err
		}); err == nil {
			return nil
		}
	}
	*raw, err = s.Span()
	return err
}

// build makes the graph of a member whose span is raw, and lets go of
// what read made of it. Only a member read the way format reads a graph
// is built from that; any other — a string under "json", an object
// under "hlo", a null, an unknown format — goes to decodeGraph.
func (m *graphMember) build(raw json.RawMessage, format string) (*graph.Graph, error) {
	ix, module := m.ix, m.module
	*m = graphMember{}
	switch {
	case ix != nil && (format == "" || format == "json"):
		return ix.Build()
	case module != "" && format == "hlo":
		return hlo.ParseString(module)
	}
	return decodeGraph(raw, format)
}

// text reads a string member: a null leaves dst as it was.
func text(s *jsonspan.Scanner, dst *string) error {
	v, ok, err := s.Text()
	if ok {
		*dst = v
	}
	return err
}

// rel reads the relation member as json.Unmarshal reads it into a
// map[string][]string: a null empties the map, an object adds its
// members to the map a repeated member already made (a member named
// twice keeps its last list), a null list is nil and an empty one is
// not, a null in a list is "".
func rel(s *jsonspan.Scanner, dst *map[string][]string) error {
	if null, err := s.Null(); null || err != nil {
		if null {
			*dst = nil
		}
		return err
	}
	if *dst == nil {
		*dst = map[string][]string{}
	}
	return s.Object(func(name []byte) error {
		var exprs []string
		null, err := s.Null()
		if !null && err == nil {
			exprs = []string{}
			err = s.Array(func() error {
				v, _, err := s.Text()
				exprs = append(exprs, v)
				return err
			})
		}
		(*dst)[string(name)] = exprs
		return err
	})
}

// small decodes the next value into dst with encoding/json.
func small(s *jsonspan.Scanner, dst any) error {
	raw, err := s.Span()
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, dst)
}

// answers is the daemon's whole reading of a check's outcome: the
// status it is answered with and the verdict word in the body. A fault
// is the daemon's failure (500), an invalid problem the client's (400).
var answers = map[core.Outcome]struct {
	status  int
	verdict string
}{
	core.Refined:   {http.StatusOK, "refined"},
	core.Failed:    {http.StatusUnprocessableEntity, "failed"},
	core.Cancelled: {http.StatusServiceUnavailable, "cancelled"},
	core.Fault:     {http.StatusInternalServerError, "failed"},
	core.Invalid:   {http.StatusBadRequest, "failed"},
}

// count files one classified check under its /v1/stats counter, which
// agrees with its status: 200 refined, 422 failed, anything else errors.
func (s *Server) count(o core.Outcome) {
	switch o {
	case core.Refined:
		s.refined.Add(1)
	case core.Failed:
		s.failed.Add(1)
	default:
		s.errored.Add(1)
	}
}

// run is the daemon's one way to run a check: a context of its own (the
// request's, which caps a whole batch, under the per-check timeout), a
// gate slot, the check, and core.Classify over what came back. The gate
// bounds concurrent saturations and refuses admission once a drain has
// begun; a check it refuses, or one still queued at its deadline, is
// Cancelled with the reason as its message instead of running late. msg
// is the error as a response body carries it.
func (s *Server) run(r *http.Request, timeout time.Duration,
	check func(context.Context) (*core.Report, error)) (o core.Outcome, report *core.Report, msg string) {
	ctx, cancel := context.WithCancel(r.Context())
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(r.Context(), timeout)
	}
	defer cancel()
	if err := s.gate.Acquire(ctx); err != nil {
		return core.Cancelled, nil, err.Error()
	}
	defer s.gate.Release()
	report, err := check(ctx)
	if o = core.Classify(ctx, report, err); err != nil {
		msg = err.Error()
	}
	if o == core.Fault || (report != nil && len(report.Failures) > 0 && report.Failures[0].Kind == core.VerdictEngineFault) {
		// An engine fault's text ends in the panicking goroutine's stack,
		// which is the daemon's to log: the client gets the first line
		// (and, from a KeepGoing report, the operator among its failures).
		log.Printf("entangled: %s", msg)
		msg, _, _ = strings.Cut(msg, "\n")
	}
	return o, report, msg
}

// describe lists a report's failing operators, one deterministic line
// each (KeepGoing mode; nil otherwise).
func describe(report *core.Report) (failures []string) {
	if report != nil {
		for _, v := range report.Failures {
			failures = append(failures, v.Describe())
		}
	}
	return failures
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	var req CheckRequest
	var in graphs
	body := s.decodeBody(w, r, func(body []byte) error { return req.decode(body, &in) })
	if body == nil {
		return
	}
	defer releaseBody(body)
	gs, err := in.gs.build(req.Gs, req.Format)
	if err != nil {
		s.badRequest(w, "loading G_s: %v", err)
		return
	}
	gd, gdDigest, err := s.gds.decodeGd(&in.gd, req.Gd, req.Format)
	if err != nil {
		s.badRequest(w, "loading G_d: %v", err)
		return
	}
	ri, err := exprparse.ParseRelation(req.Rel, gs, gd)
	if err != nil {
		s.badRequest(w, "loading relation: %v", err)
		return
	}
	timeout, ok := s.parseTimeout(w, req.Timeout)
	if !ok {
		return
	}
	opts := s.cfg.Options
	opts.KeepGoing = opts.KeepGoing || req.KeepGoing
	o, report, msg := s.run(r, timeout, func(ctx context.Context) (*core.Report, error) {
		return core.NewChecker(opts).WithGdDigest(gd, gdDigest).CheckContext(ctx, gs, gd, ri)
	})
	s.count(o)
	resp := CheckResponse{Verdict: answers[o].verdict, Error: msg, Failures: describe(report)}
	if report != nil {
		resp.OpsProcessed = report.OpsProcessed
		resp.DurationMS = report.Duration.Milliseconds()
		resp.Stats = report.Stats
		resp.LiveStats = report.LiveStats
		resp.Cache = report.Cache
	}
	if o == core.Refined {
		resp.OutputRelation = renderOutputs(report, gs)
		if req.Verbose {
			resp.FullRelation = report.FullRelation.Render(gs)
		}
	}
	writeJSON(w, answers[o].status, resp)
}

// RecheckRequest is the /v1/recheck body: one base (already-verified)
// sequential graph plus edited candidate variants, all sharing the
// same G_d and relation sidecar (parsed against each graph by input
// name). Each candidate is re-verified incrementally against the base:
// operators whose upstream cone is unchanged replay their verdicts
// from the daemon's warm cache, only each edit's downstream cone is
// re-saturated.
type RecheckRequest struct {
	Format     string              `json:"format,omitempty"` // "json" (default) or "hlo"
	Base       json.RawMessage     `json:"base"`
	Candidates []json.RawMessage   `json:"candidates"`
	Gd         json.RawMessage     `json:"gd"`
	Rel        map[string][]string `json:"rel"`
	Timeout    string              `json:"timeout,omitempty"` // per-check Go duration
}

// RecheckCandidate is one candidate's delta in the /v1/recheck reply.
// Verdict is "refined", "failed", or "cancelled" (a drain begun
// mid-batch cancels the remaining candidates; completed ones keep
// their results).
type RecheckCandidate struct {
	Verdict      string          `json:"verdict"`
	Error        string          `json:"error,omitempty"`
	Failures     []string        `json:"failures,omitempty"`
	UnchangedOps int             `json:"unchanged_ops"`
	ReplayedOps  int             `json:"replayed_ops"`
	RecheckedOps int             `json:"rechecked_ops"`
	Changed      []core.DeltaOp  `json:"changed,omitempty"`
	NewlyFailing []core.DeltaOp  `json:"newly_failing,omitempty"`
	DurationMS   int64           `json:"duration_ms"`
	Cache        core.CacheStats `json:"cache"`
}

// RecheckResponse is the /v1/recheck reply. Status mirrors handleCheck
// per batch: 503 when the base check or any candidate was cancelled,
// 422 when any candidate failed refinement, 200 when every candidate
// refined.
type RecheckResponse struct {
	BaseVerdict string             `json:"base_verdict"`
	Candidates  []RecheckCandidate `json:"candidates"`
	Error       string             `json:"error,omitempty"`
}

func (s *Server) handleRecheck(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	var req RecheckRequest
	var in graphs
	body := s.decodeBody(w, r, func(body []byte) error { return req.decode(body, &in) })
	if body == nil {
		return
	}
	defer releaseBody(body)
	if len(req.Candidates) == 0 {
		s.badRequest(w, "recheck needs at least one candidate graph")
		return
	}
	base, err := in.base.build(req.Base, req.Format)
	if err != nil {
		s.badRequest(w, "loading base G_s: %v", err)
		return
	}
	gd, gdDigest, err := s.gds.decodeGd(&in.gd, req.Gd, req.Format)
	if err != nil {
		s.badRequest(w, "loading G_d: %v", err)
		return
	}
	baseRi, err := exprparse.ParseRelation(req.Rel, base, gd)
	if err != nil {
		s.badRequest(w, "loading relation against base: %v", err)
		return
	}
	timeout, ok := s.parseTimeout(w, req.Timeout)
	if !ok {
		return
	}

	// Warm the cache with the base graph's verdicts under one gate slot
	// (replays when the daemon has seen it before). A base that fails
	// refinement is delta context — candidates then classify their own
	// failures as pre-existing — not a batch error.
	resp := RecheckResponse{BaseVerdict: "refined"}
	checker := core.NewChecker(s.cfg.Options).WithGdDigest(gd, gdDigest)
	switch o, _, msg := s.run(r, timeout, func(ctx context.Context) (*core.Report, error) {
		failed, err := checker.CheckBaseContext(ctx, base, gd, baseRi)
		if failed {
			resp.BaseVerdict = "failed"
		}
		return nil, err
	}); o {
	case core.Refined:
	case core.Cancelled:
		s.errored.Add(1)
		resp.BaseVerdict, resp.Error = answers[o].verdict, msg
		writeJSON(w, answers[o].status, resp)
		return
	default:
		s.refuse(w, answers[o].status, "checking base G_s: %s", msg)
		return
	}

	// Each candidate takes its own gate slot, so a drain begun
	// mid-batch bounces the remaining candidates ("draining") while the
	// finished ones keep their deltas; the worst status answers the batch.
	status := http.StatusOK
	for i, raw := range req.Candidates {
		o, c := s.recheckOne(r, timeout, checker, &req, &in.candidates[i], raw, base, gd, baseRi)
		s.count(o)
		resp.Candidates = append(resp.Candidates, c)
		status = max(status, answers[o].status)
	}
	writeJSON(w, status, resp)
}

// recheckOne incrementally re-verifies one candidate against the warmed
// base under its own gate slot. Within a batch a candidate that cannot be
// loaded or checked is a failed candidate, never Invalid or Fault.
func (s *Server) recheckOne(r *http.Request, timeout time.Duration, checker *core.Checker, req *RecheckRequest,
	m *graphMember, raw json.RawMessage, base, gd *graph.Graph, baseRi *relation.Relation) (core.Outcome, RecheckCandidate) {
	failed := func(format string, err error) (core.Outcome, RecheckCandidate) {
		return core.Failed, RecheckCandidate{Verdict: answers[core.Failed].verdict, Error: fmt.Sprintf(format, err)}
	}
	cand, err := m.build(raw, req.Format)
	if err != nil {
		return failed("loading candidate: %v", err)
	}
	ri, err := exprparse.ParseRelation(req.Rel, cand, gd)
	if err != nil {
		return failed("loading relation against candidate: %v", err)
	}
	var delta *core.DeltaReport
	o, report, msg := s.run(r, timeout, func(ctx context.Context) (*core.Report, error) {
		var err error
		if delta, err = checker.DiffCheckContext(ctx, base, cand, gd, baseRi, ri); delta == nil {
			return nil, err
		}
		return delta.Report, err
	})
	if o == core.Invalid || o == core.Fault {
		o = core.Failed
	}
	c := RecheckCandidate{Verdict: answers[o].verdict, Error: msg, Failures: describe(report)}
	if delta != nil {
		c.UnchangedOps = delta.UnchangedOps
		c.ReplayedOps = delta.ReplayedOps
		c.RecheckedOps = delta.RecheckedOps
		c.Changed = delta.Changed
		c.NewlyFailing = delta.NewlyFailing
		c.DurationMS = report.Duration.Milliseconds()
		c.Cache = report.Cache
	}
	return o, c
}

// parseTimeout reads a request's timeout field (empty selects
// Config.DefaultTimeout, 0 = none); a malformed value is answered 400
// and reported as !ok.
func (s *Server) parseTimeout(w http.ResponseWriter, field string) (timeout time.Duration, ok bool) {
	if field == "" {
		return s.cfg.DefaultTimeout, true
	}
	timeout, err := time.ParseDuration(field)
	if err != nil || timeout <= 0 {
		s.badRequest(w, "bad timeout %q", field)
		return 0, false
	}
	return timeout, true
}

// refuse answers a request that never became a classified check —
// unreadable, oversized, a base pass that could not run — and counts it
// as errored.
func (s *Server) refuse(w http.ResponseWriter, status int, format string, args ...any) {
	s.errored.Add(1)
	writeJSON(w, status, CheckResponse{Verdict: "failed", Error: fmt.Sprintf(format, args...)})
}

func (s *Server) badRequest(w http.ResponseWriter, format string, args ...any) {
	s.refuse(w, http.StatusBadRequest, format, args...)
}

// decodeGraph reads one graph member of a request from its span, a
// sub-slice of the body: what build does with a member the envelope pass
// could not read in place, or read as another format reads a graph.
func decodeGraph(raw json.RawMessage, format string) (*graph.Graph, error) {
	if len(raw) == 0 || string(raw) == "null" {
		return nil, fmt.Errorf("missing graph")
	}
	switch format {
	case "", "json":
		g := &graph.Graph{}
		if err := g.UnmarshalJSON(raw); err != nil {
			return nil, err
		}
		return g, nil
	case "hlo":
		text, _, err := jsonspan.New(raw).Text()
		if err != nil {
			return nil, fmt.Errorf("hlo graphs must be JSON strings: %v", err)
		}
		return hlo.ParseString(text)
	}
	return nil, fmt.Errorf("unknown format %q", format)
}

// renderOutputs maps each G_s output name to its clean expressions, in
// the relation's deterministic order.
func renderOutputs(report *core.Report, gs *graph.Graph) map[string][]string {
	out := make(map[string][]string, len(gs.Outputs))
	for _, o := range gs.Outputs {
		var exprs []string
		for _, t := range report.OutputRelation.Get(o) {
			exprs = append(exprs, t.String())
		}
		out[gs.Tensor(o).Name] = exprs
	}
	return out
}

// writeDeadline bounds writing one response. It is set as the writing
// starts, so it bounds the write, not the check before it: a check is
// bounded by its own timeout, and a /v1/recheck batch runs one check
// after another before it writes once.
const writeDeadline = time.Minute

// setWriteDeadline starts w's write deadline (a writer with no
// connection under it, such as a test recorder, has none).
func setWriteDeadline(w http.ResponseWriter) {
	_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(writeDeadline))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	setWriteDeadline(w)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
