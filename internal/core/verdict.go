package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"entangle/internal/graph"
)

// VerdictKind classifies the outcome of one operator's check. The
// paper's checker has a single failure mode — the first RefinementError
// aborts the walk — which conflates "refinement disproved" with
// "search budget exhausted, result unknown". The verdict lattice keeps
// those apart (GraphGuard-style graceful degradation: report partial
// results instead of aborting; the ecta line of work treats budget
// exhaustion in entangled search spaces as a first-class outcome).
type VerdictKind int

const (
	// VerdictRefined: a complete clean mapping of the operator's
	// outputs was found; refinement holds locally.
	VerdictRefined VerdictKind = iota
	// VerdictDisproved: saturation reached fixpoint and no clean
	// mapping exists — the e-graph enumerated every derivable
	// equivalence, so more budget cannot change the answer. This is
	// the paper's genuine bug-localization outcome.
	VerdictDisproved
	// VerdictInconclusive: the search stopped on its node or iteration
	// budget, after every escalation, before reaching fixpoint; a
	// mapping may exist beyond the limit.
	VerdictInconclusive
	// VerdictEngineFault: the operator's check panicked (a buggy
	// lemma, observer, or injected fault); the panic was recovered on
	// the worker and converted into this structured failure.
	VerdictEngineFault
	// VerdictSkipped: the operator sits in the downstream cone of a
	// failed operator and was not checked (KeepGoing mode only — its
	// input mappings are incomplete, so any verdict would be noise).
	VerdictSkipped
)

func (k VerdictKind) String() string {
	switch k {
	case VerdictRefined:
		return "refined"
	case VerdictDisproved:
		return "disproved"
	case VerdictInconclusive:
		return "inconclusive"
	case VerdictEngineFault:
		return "engine-fault"
	case VerdictSkipped:
		return "skipped"
	}
	return fmt.Sprintf("VerdictKind(%d)", int(k))
}

// OpVerdict is one operator's classified outcome.
type OpVerdict struct {
	// Op is the G_s operator checked (or skipped).
	Op *graph.Node
	// Kind classifies the outcome.
	Kind VerdictKind
	// Err carries the failure detail: *RefinementError for disproved
	// and budget-inconclusive operators, *EngineFaultError for
	// recovered panics, nil for refined and skipped operators.
	Err error
	// Escalations counts the budget-escalation retries this operator
	// consumed before the verdict was reached.
	Escalations int
	// Replayed marks a verdict reconstructed from the verdict cache
	// rather than computed by a live saturation. Like Duration it is
	// excluded from Describe — a warm report renders byte-identically
	// to the cold one — but DeltaReport reads it to count how much of a
	// diff run was replayed.
	Replayed bool
	// Duration is the operator's total check wall clock across all
	// attempts. Zero for skipped operators. Excluded from Describe so
	// rendered reports stay byte-identical across runs.
	Duration time.Duration
}

// Failed reports whether the verdict is a failure that KeepGoing mode
// records and propagates (everything except refined; skipped counts —
// its cone root already failed, and listing the cone keeps reports
// self-explanatory).
func (v OpVerdict) Failed() bool { return v.Kind != VerdictRefined }

// Describe renders the verdict as one deterministic line (no
// durations, no pointers): the chaos harness compares these across
// worker counts byte-for-byte.
func (v OpVerdict) Describe() string {
	switch v.Kind {
	case VerdictInconclusive:
		return fmt.Sprintf("%s: inconclusive (budget-exhausted, %d escalations)", v.Op.Label, v.Escalations)
	case VerdictEngineFault:
		if ef, ok := v.Err.(*EngineFaultError); ok {
			return fmt.Sprintf("%s: engine-fault (%v)", v.Op.Label, ef.Recovered)
		}
		return fmt.Sprintf("%s: engine-fault", v.Op.Label)
	default:
		return fmt.Sprintf("%s: %s", v.Op.Label, v.Kind)
	}
}

// FailingOp returns the operator an analysis verdict localizes: err is
// (or wraps) a *RefinementError or *InconclusiveError, the checker's
// statement about the model. It returns nil for everything else — a
// malformed input, a cancellation, an engine fault — where the check
// could not run rather than the model failing it.
func FailingOp(err error) *graph.Node {
	var re *RefinementError
	var ie *InconclusiveError
	switch {
	case errors.As(err, &re):
		return re.Op
	case errors.As(err, &ie):
		return ie.Op
	}
	return nil
}

// Outcome is what one whole check amounts to: the sentence a front end
// turns into an exit code or an HTTP status, and decides no part of.
type Outcome int

const (
	// Refined: G_d refines G_s and the report carries R_o.
	Refined Outcome = iota
	// Failed: the checker's statement about the model. Some operator is
	// disproved or inconclusive — or faulted in KeepGoing mode, where
	// the report survives and lists it beside the others.
	Failed
	// Cancelled: the run's context ended before a verdict.
	Cancelled
	// Fault: an operator's check panicked and took a first-error run
	// with it. The engine failed, not the model or the caller.
	Fault
	// Invalid: not a checkable problem — a malformed graph, a
	// collective in G_s, an input without a relation.
	Invalid
)

// Classify reads the outcome off what CheckContext, DiffCheckContext
// (pass its Report) or CheckBaseContext returned under ctx. The order
// decides: a run whose context ended is Cancelled whatever else it says,
// and a report with Failures is Failed even when the first is a fault.
func Classify(ctx context.Context, report *Report, err error) Outcome {
	var ef *EngineFaultError
	switch {
	case err == nil:
		return Refined
	case ctx.Err() != nil:
		return Cancelled
	case report != nil && len(report.Failures) > 0, FailingOp(err) != nil:
		return Failed
	case errors.As(err, &ef):
		return Fault
	}
	return Invalid
}

// EngineFaultError reports a panic recovered during one operator's
// check: the operator identity plus the recovered value and stack. It
// marks a fault in the checking engine (or an injected one), never a
// statement about the model being checked.
type EngineFaultError struct {
	// Op is the G_s operator whose check panicked.
	Op *graph.Node
	// Recovered is the value passed to panic.
	Recovered any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *EngineFaultError) Error() string {
	return fmt.Sprintf("engine fault while checking operator %q (op %s): panic: %v\n%s",
		e.Op.Label, e.Op.Op, e.Recovered, e.Stack)
}

// InconclusiveError reports that an operator's check ran out of budget
// before refinement could be proved or disproved. It wraps the final
// attempt's *RefinementError, so existing errors.As call sites that
// localize the failing operator keep working.
type InconclusiveError struct {
	// Op is the operator whose check was inconclusive.
	Op *graph.Node
	// Cause is the final attempt's RefinementError.
	Cause *RefinementError
}

func (e *InconclusiveError) Error() string {
	msg := fmt.Sprintf("refinement inconclusive for operator %q (op %s): budget-exhausted after %d budget escalation(s)",
		e.Op.Label, e.Op.Op, maxEscalations)
	if e.Cause != nil {
		msg += "\n" + e.Cause.Error()
	}
	return msg
}

// Unwrap exposes the underlying RefinementError to errors.As/Is.
func (e *InconclusiveError) Unwrap() error {
	if e.Cause == nil {
		return nil
	}
	return e.Cause
}
