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
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync/atomic"
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
	// Local is this node's own verdict shard, served raw to fleet
	// peers on /v1/peer/verdicts. It is deliberately distinct from
	// Options.Cache: in a fleet, Options.Cache is the cluster-routing
	// store, and peer traffic must hit the local shard directly or a
	// fetch could recurse back into the fleet. Nil disables the peer
	// endpoints (404).
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
	cache core.VerdictStore
	mux   *http.ServeMux
	gate  *Gate
	start time.Time

	requests atomic.Int64 // /v1/check requests accepted
	refined  atomic.Int64 // checks that verified refinement
	failed   atomic.Int64 // checks that disproved or degraded
	errored  atomic.Int64 // malformed requests, cancellations, faults
	inflight atomic.Int64 // checks currently running or queued
	peerGets atomic.Int64 // keys fetched over /v1/peer/verdicts (hit or miss)
	peerPuts atomic.Int64 // entries offered over /v1/peer/verdicts and accepted
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
		cache: cfg.Options.Cache,
		mux:   http.NewServeMux(),
		gate:  NewGate(cfg.MaxConcurrent),
		start: time.Now(),
	}
	s.mux.HandleFunc("/v1/check", s.handleCheck)
	s.mux.HandleFunc("/v1/recheck", s.handleRecheck)
	s.mux.HandleFunc("/v1/peer/verdicts", s.handlePeerVerdicts)
	s.mux.HandleFunc("/v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	return s
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
// (the same rendering the CLI prints).
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
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
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
	if s.cache != nil {
		snap := s.cache.Stats().Snapshot()
		resp.Cache = &snap
	}
	if s.cfg.Local != nil {
		resp.PeerGets = s.peerGets.Load()
		resp.PeerPuts = s.peerPuts.Load()
	}
	if s.cfg.ClusterInfo != nil {
		resp.Cluster = s.cfg.ClusterInfo()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handlePeerVerdicts serves the fleet's peer-to-peer verdict exchange,
// a batch per request: POST fetches this node's entries for the keys
// in the body, PUT accepts forwarded verdicts. Bodies and replies are
// cluster frame streams whose entry bytes are the vcache on-disk format
// (EncodeEntry/DecodeEntry), so the same defensive gate that protects
// the disk store protects the wire, frame by frame: an offered frame
// that fails DecodeEntry under its own key is refused — never stored,
// named in the reply — while its neighbours are stored, and a reply
// frame that fails the fetcher's decode is that key's miss. A body
// that does not parse as frames is refused as a whole (400). The
// handler serves Config.Local — the node's own shard — directly, never
// Options.Cache, so peer traffic cannot recurse back into fleet
// routing.
func (s *Server) handlePeerVerdicts(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Local == nil {
		http.Error(w, "not a fleet node", http.StatusNotFound)
		return
	}
	if s.gate.Snapshot().Draining {
		// Peers treat 503 like any transport failure: retry elsewhere in
		// time or degrade to a local cold check. Refusing early keeps a
		// drain from waiting on peer chatter.
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if r.Method != http.MethodPost && r.Method != http.MethodPut {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}

	// Read the whole request before the first reply byte. Offered
	// entries are stored as their frames arrive; the reply holds only
	// keys until it is written.
	frames := cluster.NewFrameReader(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	var reply []fingerprint.Hash // POST: the keys asked; PUT: the keys refused
	for {
		f, err := frames.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				http.Error(w, fmt.Sprintf("batch exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, fmt.Sprintf("reading batch: %v", err), http.StatusBadRequest)
			return
		}
		if r.Method == http.MethodPost {
			reply = append(reply, f.Key)
			continue
		}
		// The decode gate is the correctness boundary: a frame that
		// fails validation is refused, so a confused or corrupting peer
		// can never plant a wrong verdict in this shard.
		e, err := vcache.DecodeEntry(f.Key, f.Data)
		if err != nil || s.cfg.Local.Put(f.Key, e) != nil {
			reply = append(reply, f.Key)
			continue
		}
		s.peerPuts.Add(1)
	}

	w.Header().Set("Content-Type", "application/octet-stream")
	out := bufio.NewWriter(w)
	var buf []byte
	for _, key := range reply {
		f := cluster.Frame{Key: key}
		if r.Method == http.MethodPost {
			s.peerGets.Add(1)
			if e := s.cfg.Local.Get(key); e != nil {
				// An entry that will not encode is answered as a miss,
				// which only ever means "compute it yourself".
				f.Data, _ = vcache.EncodeEntry(key, e)
			}
		}
		buf = cluster.AppendFrame(buf[:0], f)
		_, _ = out.Write(buf)
	}
	_ = out.Flush()
}

// decodeBody decodes a JSON request body under the configured byte
// bound. Oversized bodies are answered 413 and malformed ones 400; in
// both cases the request is counted as errored and false is returned.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.errored.Add(1)
			writeJSON(w, http.StatusRequestEntityTooLarge, CheckResponse{
				Verdict: "failed",
				Error:   fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
			})
			return false
		}
		s.badRequest(w, "decoding request: %v", err)
		return false
	}
	return true
}

func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	s.requests.Add(1)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	var req CheckRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	gs, err := decodeGraph(req.Gs, req.Format)
	if err != nil {
		s.badRequest(w, "loading G_s: %v", err)
		return
	}
	gd, err := decodeGraph(req.Gd, req.Format)
	if err != nil {
		s.badRequest(w, "loading G_d: %v", err)
		return
	}
	ri, err := exprparse.ParseRelation(req.Rel, gs, gd)
	if err != nil {
		s.badRequest(w, "loading relation: %v", err)
		return
	}
	checkCtx, ok := s.parseTimeout(w, r, req.Timeout)
	if !ok {
		return
	}
	ctx, cancel := checkCtx()
	defer cancel()
	if msg, err := s.admit(ctx); err != nil {
		s.errored.Add(1)
		writeJSON(w, http.StatusServiceUnavailable,
			CheckResponse{Verdict: "cancelled", Error: msg})
		return
	}
	defer s.gate.Release()

	opts := s.cfg.Options
	opts.KeepGoing = opts.KeepGoing || req.KeepGoing
	report, err := core.NewChecker(opts).CheckContext(ctx, gs, gd, ri)
	switch {
	case err == nil:
		s.refined.Add(1)
		resp := CheckResponse{
			Verdict:      "refined",
			OpsProcessed: report.OpsProcessed,
			DurationMS:   report.Duration.Milliseconds(),
			Stats:        report.Stats,
			LiveStats:    report.LiveStats,
			Cache:        report.Cache,
		}
		resp.OutputRelation = renderOutputs(report, gs)
		if req.Verbose {
			resp.FullRelation = report.FullRelation.Render(gs)
		}
		writeJSON(w, http.StatusOK, resp)

	case ctx.Err() != nil:
		s.errored.Add(1)
		writeJSON(w, http.StatusServiceUnavailable,
			CheckResponse{Verdict: "cancelled", Error: err.Error()})

	default:
		resp := CheckResponse{Verdict: "failed", Error: err.Error()}
		if core.FailingOp(err) == nil {
			// Malformed graphs or an engine fault, not an analysis
			// verdict.
			s.badRequest(w, "%v", err)
			return
		}
		s.failed.Add(1)
		if report != nil {
			resp.OpsProcessed = report.OpsProcessed
			resp.DurationMS = report.Duration.Milliseconds()
			resp.Stats = report.Stats
			resp.LiveStats = report.LiveStats
			resp.Cache = report.Cache
			for _, v := range report.Failures {
				resp.Failures = append(resp.Failures, v.Describe())
			}
		}
		writeJSON(w, http.StatusUnprocessableEntity, resp)
	}
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
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	s.requests.Add(1)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	var req RecheckRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Candidates) == 0 {
		s.badRequest(w, "recheck needs at least one candidate graph")
		return
	}
	base, err := decodeGraph(req.Base, req.Format)
	if err != nil {
		s.badRequest(w, "loading base G_s: %v", err)
		return
	}
	gd, err := decodeGraph(req.Gd, req.Format)
	if err != nil {
		s.badRequest(w, "loading G_d: %v", err)
		return
	}
	baseRi, err := exprparse.ParseRelation(req.Rel, base, gd)
	if err != nil {
		s.badRequest(w, "loading relation against base: %v", err)
		return
	}
	// Per-check context: the request context caps the whole batch, the
	// timeout caps each admitted check individually.
	checkCtx, ok := s.parseTimeout(w, r, req.Timeout)
	if !ok {
		return
	}

	// Warm the cache with the base graph's verdicts under one gate slot
	// (replays when the daemon has seen it before). Base refinement
	// failures are delta context — candidates then classify their own
	// failures as pre-existing — not batch errors.
	resp := RecheckResponse{BaseVerdict: "refined"}
	warm := s.cfg.Options
	warm.KeepGoing = true
	baseErr := func() error {
		ctx, cancel := checkCtx()
		defer cancel()
		if _, err := s.admit(ctx); err != nil {
			return err
		}
		defer s.gate.Release()
		_, err := core.NewChecker(warm).CheckContext(ctx, base, gd, baseRi)
		if core.FailingOp(err) != nil {
			resp.BaseVerdict = "failed"
			return nil
		}
		return err
	}()
	if baseErr != nil {
		if r.Context().Err() != nil || errors.Is(baseErr, ErrDraining) || errors.Is(baseErr, context.DeadlineExceeded) {
			s.errored.Add(1)
			resp.BaseVerdict = "cancelled"
			resp.Error = baseErr.Error()
			writeJSON(w, http.StatusServiceUnavailable, resp)
			return
		}
		s.badRequest(w, "checking base G_s: %v", baseErr)
		return
	}

	// Each candidate takes its own gate slot, so a drain begun
	// mid-batch bounces the remaining candidates ("draining") while the
	// finished ones keep their deltas.
	anyFailed, anyCancelled := false, false
	for _, raw := range req.Candidates {
		resp.Candidates = append(resp.Candidates, s.recheckOne(checkCtx, req.Format, raw, base, baseRi, gd, req.Rel))
		c := &resp.Candidates[len(resp.Candidates)-1]
		switch c.Verdict {
		case "refined":
			s.refined.Add(1)
		case "failed":
			s.failed.Add(1)
			anyFailed = true
		default:
			s.errored.Add(1)
			anyCancelled = true
		}
	}
	switch {
	case anyCancelled:
		writeJSON(w, http.StatusServiceUnavailable, resp)
	case anyFailed:
		writeJSON(w, http.StatusUnprocessableEntity, resp)
	default:
		writeJSON(w, http.StatusOK, resp)
	}
}

// recheckOne incrementally re-verifies a single candidate against the
// warmed base under its own gate slot.
func (s *Server) recheckOne(checkCtx func() (context.Context, context.CancelFunc),
	format string, raw json.RawMessage, base *graph.Graph, baseRi *relation.Relation,
	gd *graph.Graph, rel map[string][]string) RecheckCandidate {
	cand, err := decodeGraph(raw, format)
	if err != nil {
		return RecheckCandidate{Verdict: "failed", Error: fmt.Sprintf("loading candidate: %v", err)}
	}
	ri, err := exprparse.ParseRelation(rel, cand, gd)
	if err != nil {
		return RecheckCandidate{Verdict: "failed", Error: fmt.Sprintf("loading relation against candidate: %v", err)}
	}
	ctx, cancel := checkCtx()
	defer cancel()
	if msg, err := s.admit(ctx); err != nil {
		return RecheckCandidate{Verdict: "cancelled", Error: msg}
	}
	defer s.gate.Release()

	delta, err := core.NewChecker(s.cfg.Options).DiffCheckContext(ctx, base, cand, gd, baseRi, ri)
	if delta == nil {
		if ctx.Err() != nil {
			return RecheckCandidate{Verdict: "cancelled", Error: err.Error()}
		}
		return RecheckCandidate{Verdict: "failed", Error: err.Error()}
	}
	c := RecheckCandidate{
		Verdict:      "refined",
		UnchangedOps: delta.UnchangedOps,
		ReplayedOps:  delta.ReplayedOps,
		RecheckedOps: delta.RecheckedOps,
		Changed:      delta.Changed,
		NewlyFailing: delta.NewlyFailing,
		DurationMS:   delta.Report.Duration.Milliseconds(),
		Cache:        delta.Report.Cache,
	}
	if err != nil {
		c.Verdict = "failed"
		c.Error = err.Error()
		for _, v := range delta.Report.Failures {
			c.Failures = append(c.Failures, v.Describe())
		}
	}
	return c
}

// parseTimeout turns a request's timeout field (empty selects
// Config.DefaultTimeout) into a constructor of per-check contexts; a
// malformed value is answered 400 and reported as !ok.
func (s *Server) parseTimeout(w http.ResponseWriter, r *http.Request, field string) (func() (context.Context, context.CancelFunc), bool) {
	timeout := s.cfg.DefaultTimeout
	if field != "" {
		var err error
		if timeout, err = time.ParseDuration(field); err != nil || timeout <= 0 {
			s.badRequest(w, "bad timeout %q", field)
			return nil, false
		}
	}
	return func() (context.Context, context.CancelFunc) {
		if timeout > 0 {
			return context.WithTimeout(r.Context(), timeout)
		}
		return context.WithCancel(r.Context())
	}, true
}

// admit takes a gate slot, which the caller releases. The gate bounds
// concurrent saturations and refuses admission once a drain has begun;
// a request whose deadline expires while queued reports the
// cancellation (msg, for the client) instead of running late.
func (s *Server) admit(ctx context.Context) (msg string, err error) {
	switch err = s.gate.Acquire(ctx); {
	case err == nil:
		return "", nil
	case errors.Is(err, ErrDraining):
		return err.Error(), err
	}
	return fmt.Sprintf("queued past deadline: %v", err), err
}

func (s *Server) badRequest(w http.ResponseWriter, format string, args ...any) {
	s.errored.Add(1)
	writeJSON(w, http.StatusBadRequest,
		CheckResponse{Verdict: "failed", Error: fmt.Sprintf(format, args...)})
}

func decodeGraph(raw json.RawMessage, format string) (*graph.Graph, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("missing graph")
	}
	switch format {
	case "", "json":
		return graph.Read(bytes.NewReader(raw))
	case "hlo":
		var text string
		if err := json.Unmarshal(raw, &text); err != nil {
			return nil, fmt.Errorf("hlo graphs must be JSON strings: %v", err)
		}
		return hlo.Parse(bytes.NewReader([]byte(text)))
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

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
