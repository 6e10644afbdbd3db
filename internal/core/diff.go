package core

// Diff-aware incremental re-verification: production users edit one
// operator of an already-verified model and resubmit. The cone
// fingerprints of internal/fingerprint chain every operator's hash
// through its producers, so comparing the old and new graphs'
// cone-fingerprint sets computes the minimal dirty set exactly: an
// operator whose upstream cone (structure, shapes, attributes, and the
// input-relation entries it consumes) is unchanged keeps its hash, and
// its cached verdict — keyed on that hash — still holds. DiffPlan
// turns that comparison into a Plan; DiffCheckContext executes it,
// replaying unchanged operators from the verdict cache and saturating
// only the edit's downstream cone, then classifies the outcome into a
// DeltaReport.
//
// Scope: the diff is G_s-sided with G_d and the options fixed. Editing
// G_d (or the lemma registry, budgets, …) changes the ambient digest,
// so every key misses and the "diff" degrades to an honestly-counted
// full re-check — slower, never stale.

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"entangle/internal/fingerprint"
	"entangle/internal/graph"
	"entangle/internal/relation"
	"entangle/internal/vcache"
)

// DiffPlan compares an edited graph against its predecessor and plans
// the minimal re-check: operators whose cone fingerprint also occurs
// in the old graph are SkipUnchanged (their verdict is replayable);
// operators with a changed cone are Check when the change originates
// at them and TaintedUpstream when a producer's cone changed. Each
// relation is parsed against its own graph, so old and new carry their
// own input relations; gd anchors the G_d-leaf encoding shared by
// both.
//
// DiffPlan is a pure function of the graphs and relations — no cache
// probes, no clocks — which is what lets the internal/mc planner model
// check its two safety properties ("a replayed verdict is never
// stale", "every changed-cone operator is re-checked") exhaustively at
// bounded scopes against this exact code.
func DiffPlan(oldGs *graph.Graph, oldRi *relation.Relation, newGs *graph.Graph, newRi *relation.Relation, gd *graph.Graph) (*Plan, error) {
	gdOrder, err := gd.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("core: diff: G_d: %v", err)
	}
	kd := newKeyDerivation(fingerprint.IndexGd(gd, gdOrder), nil)
	old, err := kd.diffBase(oldGs, oldRi)
	if err != nil {
		return nil, err
	}
	newOrder, err := newGs.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("core: diff: new G_s: %v", err)
	}
	if err := checkRiDomain(newGs, newRi); err != nil {
		return nil, err
	}
	return diffPlan(old, kd.side(newGs, newRi, newOrder), newGs.Producers(newOrder)), nil
}

// diffBase derives the predecessor graph's side of a diff.
func (kd *keyDerivation) diffBase(oldGs *graph.Graph, oldRi *relation.Relation) (*sideKeys, error) {
	order, err := oldGs.TopoSort()
	if err != nil {
		return nil, fmt.Errorf("core: diff: old G_s: %v", err)
	}
	if err := checkRiDomain(oldGs, oldRi); err != nil {
		return nil, err
	}
	return kd.side(oldGs, oldRi, order), nil
}

// diffPlan is DiffPlan over already-derived cone fingerprints and the
// new graph's producer lists over cur.order.
func diffPlan(old, cur *sideKeys, producers [][]int) *Plan {
	oldSet := make(map[fingerprint.Hash]bool, len(old.cones))
	for _, cone := range old.cones {
		oldSet[cone] = true
	}
	plan := &Plan{Ops: make([]PlanOp, len(cur.order))}
	dirty := make([]bool, len(cur.order))
	for i, v := range cur.order {
		dirty[i] = !oldSet[cur.cones[i]]
		// A producer's changed cone is part of this operator's cone, so
		// upstreamDirty implies dirty — the cases below are exhaustive.
		upstreamDirty := slices.ContainsFunc(producers[i], func(j int) bool { return dirty[j] })
		op := PlanOp{Label: v.Label}
		switch {
		case !dirty[i]:
			op.Disposition = DispSkipUnchanged
			op.Reason = "cone unchanged"
		case upstreamDirty:
			op.Disposition = DispTaintedUpstream
			op.Reason = "upstream cone changed"
		default:
			op.Disposition = DispCheck
			op.Reason = "cone changed"
		}
		plan.Ops[i] = op
	}
	return plan
}

// DeltaOp is one re-checked operator's entry in the delta report.
type DeltaOp struct {
	Label       string      `json:"label"`
	Disposition Disposition `json:"disposition"`
	// Cause says why the operator was re-checked and, for a failing
	// one, what its old verdict was.
	Cause string `json:"cause"`
	// Verdict is the new check's outcome for the operator.
	Verdict string `json:"verdict"`
	// NewlyFailing marks an operator that fails now but was not known
	// to fail before the edit: its old cone had a cached Refined
	// verdict, or no cached verdict at all (conservatively included,
	// with Cause saying so).
	NewlyFailing bool `json:"newly_failing,omitempty"`
}

// DeltaReport is the outcome of an incremental re-verification: the
// full execution report of the new graph plus the delta
// classification — what changed, what was replayed, and which failures
// are new.
type DeltaReport struct {
	// Report is the new graph's complete check report (KeepGoing mode,
	// so Failures carries every failing operator).
	Report *Report `json:"-"`
	// Changed lists the re-checked operators (dispositions Check and
	// TaintedUpstream) in topological order.
	Changed []DeltaOp `json:"changed"`
	// NewlyFailing is the subset of Changed with NewlyFailing set.
	NewlyFailing []DeltaOp `json:"newly_failing,omitempty"`
	// UnchangedOps counts operators the plan proved unchanged;
	// ReplayedOps counts verdicts actually reconstructed from the
	// cache; RecheckedOps counts live saturations this run performed.
	// ReplayedOps < UnchangedOps means some unchanged operators missed
	// the cache and were checked live — a performance loss, never a
	// stale verdict.
	UnchangedOps int `json:"unchanged_ops"`
	ReplayedOps  int `json:"replayed_ops"`
	RecheckedOps int `json:"rechecked_ops"`
}

// Render formats the delta one line per re-checked operator, in
// topological order. Deterministic: no durations, no pointers — the
// CLI prints it and tests compare it byte for byte.
func (d *DeltaReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "diff: %d ops — %d unchanged (%d replayed), %d re-checked\n",
		d.UnchangedOps+len(d.Changed), d.UnchangedOps, d.ReplayedOps, d.RecheckedOps)
	for _, op := range d.Changed {
		fmt.Fprintf(&b, "  %s: %s (%s) -> %s\n", op.Label, op.Disposition, op.Cause, op.Verdict)
	}
	if len(d.NewlyFailing) > 0 {
		b.WriteString("newly failing:\n")
		for _, op := range d.NewlyFailing {
			fmt.Fprintf(&b, "  %s: %s\n", op.Label, op.Cause)
		}
	}
	return b.String()
}

// CheckBaseContext is the pass a diff starts from: a full check of the
// predecessor that leaves its verdicts in Options.Cache, with KeepGoing
// forced on so every independent verdict is stored whatever else
// fails. failed says the base itself does not refine — context for the
// delta, whose failures then classify as pre-existing, not an error;
// err is only ever fatal (read it with Classify).
func (c *Checker) CheckBaseContext(ctx context.Context, oldGs, gd *graph.Graph, oldRi *relation.Relation) (failed bool, err error) {
	opts := c.opts
	opts.KeepGoing = true
	report, err := (&Checker{opts: opts}).CheckContext(ctx, oldGs, gd, oldRi)
	if report != nil {
		return err != nil, nil
	}
	return false, err
}

// DiffCheck is DiffCheckContext with a background context.
func (c *Checker) DiffCheck(oldGs, newGs, gd *graph.Graph, oldRi, newRi *relation.Relation) (*DeltaReport, error) {
	return c.DiffCheckContext(context.Background(), oldGs, newGs, gd, oldRi, newRi)
}

// DiffCheckContext incrementally re-verifies an edited graph: it plans
// with DiffPlan, executes the plan against newGs (replaying unchanged
// operators from Options.Cache and saturating the rest), and
// classifies the outcome. The returned error follows CheckContext's
// KeepGoing convention: the earliest failing operator's error, nil
// when the new graph is fully refined, and a nil DeltaReport only on a
// fatal condition (cancellation, malformed input).
//
// KeepGoing is forced on: a diff's purpose is the complete delta
// picture, and first-error mode would hide every failure past the
// earliest one. Without a cache the plan still computes the dirty set,
// but every "replay" falls back to a live check.
func (c *Checker) DiffCheckContext(ctx context.Context, oldGs, newGs, gd *graph.Graph, oldRi, newRi *relation.Relation) (*DeltaReport, error) {
	opts := c.opts
	opts.KeepGoing = true
	run, report, err := (&Checker{opts: opts}).checkContext(ctx, newGs, gd, newRi, oldGs, oldRi)
	if report == nil {
		return nil, err
	}
	return run.buildDelta(report), err
}

// buildDelta classifies an executed diff run. Plan ops align with
// Verdicts positionally (both are in topo order); a KeepGoing run may
// append one extra output-resolution verdict past the plan, which is
// execution detail, not delta. Only a failing re-checked operator's old
// verdict is ever read, so only that one is looked up.
func (r *runState) buildDelta(report *Report) *DeltaReport {
	// A verdict is replayed exactly when its probe hit, and a KeepGoing
	// run processes every operator it does not skip.
	replayed := int(report.Cache.Hits)
	d := &DeltaReport{Report: report, ReplayedOps: replayed, RecheckedOps: report.OpsProcessed - replayed}
	for i := range r.plan.Ops {
		po, verdict := &r.plan.Ops[i], report.Verdicts[i]
		if po.Disposition == DispSkipUnchanged {
			d.UnchangedOps++
			continue
		}
		do := DeltaOp{Label: po.Label, Disposition: po.Disposition,
			Cause: po.Reason, Verdict: verdict.Kind.String()}
		if verdict.Failed() && verdict.Kind != VerdictSkipped {
			switch r.oldVerdict(po.Label) {
			case "":
				do.NewlyFailing = true
				do.Cause += "; no cached verdict before the edit"
			case vcache.VerdictRefined:
				do.NewlyFailing = true
				do.Cause += "; refined before the edit"
			default:
				do.Cause += "; already failing before the edit"
			}
		}
		d.Changed = append(d.Changed, do)
		if do.NewlyFailing {
			d.NewlyFailing = append(d.NewlyFailing, do)
		}
	}
	return d
}
