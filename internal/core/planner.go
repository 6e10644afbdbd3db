package core

// A diff's plan (diff.go) gives every operator of the edited G_s (in
// topo order) a Disposition — re-check it, or skip it as provably
// unchanged — plus the reason for the decision. The plan is advisory,
// execution is honest: a skip-unchanged operator replays its cached
// verdict, and one with no cached verdict is checked live — a stale
// plan can cost wall-clock time, never correctness.

import (
	"encoding/json"
	"fmt"
)

// Disposition is a diff plan's per-operator decision.
type Disposition int

const (
	// DispCheck: the operator's cone changed at the operator itself;
	// run its saturation live.
	DispCheck Disposition = iota
	// DispSkipUnchanged: the operator's upstream-cone fingerprint is
	// identical in the old and new graphs, so its old verdict still
	// holds; replay from the cache (or check live on a cache miss,
	// which is a performance loss, never a stale verdict).
	DispSkipUnchanged
	// DispTaintedUpstream: the operator's own cone changed because an
	// upstream operator's cone changed; it must be re-checked along
	// with the edit that tainted it.
	DispTaintedUpstream
)

var dispositionNames = map[Disposition]string{
	DispCheck:           "check",
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

// PlanOp is one operator's planned treatment. Plan.Ops[i] is the
// operator at position i of the G_s topological order — the same index
// the wavefront scheduler uses.
type PlanOp struct {
	Label       string      `json:"label"`
	Disposition Disposition `json:"disposition"`
	// Reason says why the disposition was chosen ("cone unchanged",
	// "upstream cone changed", "cone changed").
	Reason string `json:"reason"`
}

// Plan is DiffPlan's output: one PlanOp per operator of the edited G_s
// in topological order.
type Plan struct {
	Ops []PlanOp `json:"ops"`
}
