package core

import (
	"container/heap"
	"strconv"
)

// SchedCore is the pure state machine at the heart of the wavefront
// scheduler: dependency counts, the ready min-heap, failure
// bookkeeping, and downstream-cone taint. It contains no locks, no
// goroutines, and no I/O — every transition is a plain method call —
// which is what lets two very different drivers share it verbatim:
//
//   - wavefrontState (scheduler.go) wraps it in a mutex + condition
//     variable and drives it from the production worker pool;
//   - the internal/mc wavefront model drives a Clone per explored
//     transition, so the exhaustively checked protocol is the shipped
//     scheduling logic, not a hand-written re-derivation of it.
//
// Keeping the two in lockstep is the point: a future change to
// scheduling semantics lands here, and the model checker re-verifies
// it for free.
type SchedCore struct {
	deps      []int   // outstanding producer count per topo index
	children  [][]int // consumer topo indices per topo index (shared, never mutated)
	tainted   []bool  // in the downstream cone of a failure (KeepGoing)
	outcomes  []SchedOutcome
	ready     minHeap // topo indices whose producers are all done
	keepGoing bool
	errAt     int // default mode: min topo index with a failure; n = none
}

// SchedOutcome is the scheduling-relevant résumé of one operator: the
// full OpVerdict (or egraph stats) never influences which operator
// runs next, only this four-point classification does.
type SchedOutcome int8

const (
	// SchedPending: not yet resolved (waiting, ready, or running).
	SchedPending SchedOutcome = iota
	// SchedOK: checked and refined; releases the operator's consumers.
	SchedOK
	// SchedFailed: checked and failed (disproved, inconclusive, or an
	// engine fault — the scheduler treats them identically).
	SchedFailed
	// SchedSkipped: in the downstream cone of a failure; never run
	// (KeepGoing mode only).
	SchedSkipped
)

func (o SchedOutcome) String() string {
	switch o {
	case SchedPending:
		return "pending"
	case SchedOK:
		return "ok"
	case SchedFailed:
		return "failed"
	case SchedSkipped:
		return "skipped"
	}
	return "?"
}

// NewSchedCore builds the scheduling core for a DAG given per-index
// parent lists (each parent once, graph.Producers' form). parents is
// not retained. Indices with no parents start ready.
func NewSchedCore(parents [][]int, keepGoing bool) *SchedCore {
	n := len(parents)
	c := &SchedCore{
		deps:      make([]int, n),
		children:  make([][]int, n),
		tainted:   make([]bool, n),
		outcomes:  make([]SchedOutcome, n),
		keepGoing: keepGoing,
		errAt:     n,
	}
	for i, ps := range parents {
		c.deps[i] = len(ps)
		for _, p := range ps {
			c.children[p] = append(c.children[p], i)
		}
		if len(ps) == 0 {
			heap.Push(&c.ready, i)
		}
	}
	return c
}

// Len returns the number of scheduled operators.
func (c *SchedCore) Len() int { return len(c.deps) }

// KeepGoing reports the failure-handling mode.
func (c *SchedCore) KeepGoing() bool { return c.keepGoing }

// Outcome returns operator i's scheduling outcome.
func (c *SchedCore) Outcome(i int) SchedOutcome { return c.outcomes[i] }

// ErrAt returns the earliest failing topo index (default mode), or
// Len() when no operator has failed.
func (c *SchedCore) ErrAt() int { return c.errAt }

// Runnable reports whether a worker should pick up work: something is
// ready, and (default mode) the earliest ready operator precedes the
// earliest failure — operators beyond it are cancelled, their results
// could not change the outcome. KeepGoing schedules everything that is
// not skipped.
func (c *SchedCore) Runnable() bool {
	if len(c.ready) == 0 {
		return false
	}
	return c.keepGoing || c.ready[0] < c.errAt
}

// Pop hands out the earliest ready operator. Callers must check
// Runnable first; always popping the minimum bounds speculative work
// beyond a failure and, with one worker, reproduces the exact
// sequential topo-order walk.
func (c *SchedCore) Pop() int {
	return heap.Pop(&c.ready).(int)
}

// Resolve records operator i's outcome and propagates the scheduling
// consequences: a success releases consumers (skipping tainted ones),
// a failure either cancels everything at or beyond it (default mode)
// or taints its downstream cone (KeepGoing). It returns the operators
// newly marked SchedSkipped, in the deterministic propagation order,
// so the caller can assign their verdicts. The result depends only on
// the DAG and which operators failed, never on scheduling order.
func (c *SchedCore) Resolve(i int, ok bool) (skipped []int) {
	if !ok {
		c.outcomes[i] = SchedFailed
		if !c.keepGoing {
			if i < c.errAt {
				c.errAt = i
			}
			return nil
		}
		return c.propagateTaint(i)
	}
	c.outcomes[i] = SchedOK
	for _, ch := range c.children[i] {
		c.deps[ch]--
		if c.deps[ch] == 0 {
			if c.tainted[ch] {
				// Last producer resolved, but an earlier one failed:
				// the cone member is skipped, never run.
				c.outcomes[ch] = SchedSkipped
				skipped = append(skipped, ch)
				skipped = append(skipped, c.propagateTaint(ch)...)
			} else {
				heap.Push(&c.ready, ch)
			}
		}
	}
	return skipped
}

// propagateTaint marks the downstream cone of a failed or skipped
// operator: every child loses a producer and is tainted; children
// whose producers have all resolved are marked SchedSkipped and
// propagate further.
func (c *SchedCore) propagateTaint(i int) (skipped []int) {
	stack := []int{i}
	for len(stack) > 0 {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ch := range c.children[j] {
			c.tainted[ch] = true
			c.deps[ch]--
			if c.deps[ch] == 0 {
				c.outcomes[ch] = SchedSkipped
				skipped = append(skipped, ch)
				stack = append(stack, ch)
			}
		}
	}
	return skipped
}

// Clone deep-copies the mutable scheduling state (children is shared —
// it is immutable after construction). The model checker clones once
// per explored transition.
func (c *SchedCore) Clone() *SchedCore {
	return &SchedCore{
		deps:      append([]int(nil), c.deps...),
		children:  c.children,
		tainted:   append([]bool(nil), c.tainted...),
		outcomes:  append([]SchedOutcome(nil), c.outcomes...),
		ready:     append(minHeap(nil), c.ready...),
		keepGoing: c.keepGoing,
		errAt:     c.errAt,
	}
}

// AppendKey appends a canonical encoding of the scheduling state —
// outcome vector plus the earliest-failure mark. Everything else
// (deps, ready, taint) is a pure function of the outcome vector and
// the DAG, so this short key fingerprints the full core state.
func (c *SchedCore) AppendKey(dst []byte) []byte {
	for _, o := range c.outcomes {
		dst = append(dst, "pofs"[o])
	}
	dst = append(dst, '#')
	return strconv.AppendInt(dst, int64(c.errAt), 10)
}
