package core

// The planning layer separates *deciding what to check* from
// *executing checks*. A Plan assigns every G_s operator (in topo
// order) a Disposition — run it live, replay its cached verdict, or,
// in diff mode, skip it as provably unchanged — plus the reason for
// the decision. The wavefront executor (scheduler.go → checkOp)
// consumes the Plan instead of re-deriving dispositions inline, which
// is what makes incremental re-verification (diff.go) a planner
// variant rather than a second checker.
//
// Planning is best-effort, execution is honest: a prefetched cache
// entry that fails to replay falls back to a live check, and a
// SkipUnchanged operator with no cached verdict is checked live — the
// Plan can cost wall-clock time when it is stale, never correctness.
// Counter discipline matches the unplanned path exactly: hits, misses,
// and replay rejects are counted when an operator *executes*, so
// operators the scheduler never runs (beyond the earliest failure, or
// in a skipped taint cone) contribute nothing, planned or not.

import (
	"encoding/json"
	"fmt"

	"entangle/internal/vcache"
)

// Disposition is the planner's per-operator decision.
type Disposition int

const (
	// DispCheck: run the operator's saturation live (no cached verdict,
	// or its cone changed in a diff).
	DispCheck Disposition = iota
	// DispReplayCache: a verdict for the operator's exact cone and
	// ambient configuration is cached; replay it instead of saturating.
	DispReplayCache
	// DispSkipUnchanged: diff mode — the operator's upstream-cone
	// fingerprint is identical in the old and new graphs, so its old
	// verdict still holds; replay from the cache (or check live on a
	// cache miss, which is a performance loss, never a stale verdict).
	DispSkipUnchanged
	// DispTaintedUpstream: diff mode — the operator's own cone changed
	// because an upstream operator's cone changed; it must be re-checked
	// along with the edit that tainted it.
	DispTaintedUpstream
)

var dispositionNames = map[Disposition]string{
	DispCheck:           "check",
	DispReplayCache:     "replay-cache",
	DispSkipUnchanged:   "skip-unchanged",
	DispTaintedUpstream: "tainted-upstream",
}

func (d Disposition) String() string {
	if s, ok := dispositionNames[d]; ok {
		return s
	}
	return fmt.Sprintf("Disposition(%d)", int(d))
}

// MarshalJSON encodes the disposition as its canonical name, keeping
// /v1/recheck's changed operators readable and stable across
// reorderings of the enum.
func (d Disposition) MarshalJSON() ([]byte, error) {
	s, ok := dispositionNames[d]
	if !ok {
		return nil, fmt.Errorf("core: unknown disposition %d", int(d))
	}
	return json.Marshal(s)
}

// UnmarshalJSON inverts MarshalJSON.
func (d *Disposition) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	for k, v := range dispositionNames {
		if v == s {
			*d = k
			return nil
		}
	}
	return fmt.Errorf("core: unknown disposition %q", s)
}

// Plan modes.
const (
	// PlanModeFull plans a from-scratch check: every operator is
	// checked or replayed, none skipped.
	PlanModeFull = "full"
	// PlanModeDiff plans an incremental re-check of an edited graph
	// against the verdicts of its predecessor.
	PlanModeDiff = "diff"
)

// PlanOp is one operator's planned treatment. Plan.Ops[i] is the
// operator at position i of the G_s topological order — the same index
// the wavefront scheduler uses.
type PlanOp struct {
	Label       string      `json:"label"`
	Disposition Disposition `json:"disposition"`
	// Reason says why the disposition was chosen ("cache miss",
	// "cone unchanged", "upstream cone changed", …).
	Reason string `json:"reason"`

	// entry is the cache entry prefetched at plan time, consumed by
	// checkOp on this operator's worker. Entries are immutable once
	// stored, so holding the pointer across the plan/execute boundary
	// is safe under concurrent cache traffic.
	entry *vcache.Entry
}

// Plan is the checker's decision layer output: one PlanOp per G_s
// operator in topological order, plus disposition totals.
type Plan struct {
	Mode string   `json:"mode"`
	Ops  []PlanOp `json:"ops"`
	// Disposition totals, for report surfaces and quick triage.
	Checks  int `json:"checks"`
	Replays int `json:"replays"`
	Skips   int `json:"skips"`
	Tainted int `json:"tainted"`
}

// recount refreshes the disposition totals from Ops.
func (p *Plan) recount() {
	p.Checks, p.Replays, p.Skips, p.Tainted = 0, 0, 0, 0
	for i := range p.Ops {
		switch p.Ops[i].Disposition {
		case DispReplayCache:
			p.Replays++
		case DispSkipUnchanged:
			p.Skips++
		case DispTaintedUpstream:
			p.Tainted++
		default:
			p.Checks++
		}
	}
}

// prefetch probes the cache once per operator, attaching the entries
// the executor will replay. Probes happen single-threaded at plan time
// (the cone hasher's memo and the keys are already built), so a store
// that can answer many keys at once is handed the whole run's keys in
// one call; they touch no run
// counters — hits and misses are accounted when operators execute,
// keeping counter totals identical to the unplanned path.
func (r *runState) prefetch(p *Plan) {
	if r.cache == nil {
		return
	}
	keys := r.cache.keys.keys
	var entries []*vcache.Entry
	if batch, ok := r.cache.cache.(manyGetter); ok {
		entries = batch.GetMany(keys)
	} else {
		entries = make([]*vcache.Entry, len(keys))
		for i, key := range keys {
			entries[i] = r.cache.cache.Get(key)
		}
	}
	for i, e := range entries {
		p.Ops[i].entry = e
	}
}

// buildPlan produces the full-check plan: replay every operator whose
// verdict is already cached, check the rest.
func (r *runState) buildPlan() *Plan {
	p := &Plan{Mode: PlanModeFull, Ops: make([]PlanOp, len(r.order))}
	for i, v := range r.order {
		p.Ops[i] = PlanOp{Label: v.Label, Disposition: DispCheck, Reason: "no cache configured"}
	}
	r.prefetch(p)
	if r.cache != nil {
		for i := range p.Ops {
			if p.Ops[i].entry != nil {
				p.Ops[i].Disposition = DispReplayCache
				p.Ops[i].Reason = "verdict cached"
			} else {
				p.Ops[i].Reason = "cache miss"
			}
		}
	}
	p.recount()
	return p
}
