package core

import (
	"context"
	"runtime/debug"
	"slices"
	"sync"

	"entangle/internal/egraph"
	"entangle/internal/graph"
)

// The wavefront scheduler exploits the independence already present in
// the refinement algorithm: processOp(v) reads only the relation
// entries of v's inputs and writes only those of v's outputs, so its
// dependency structure is exactly the G_s DAG. Operators whose
// producers have all been checked — a "wavefront" of the DAG, e.g.
// the q/k/v projections of one attention block, per-layer heads, or
// the experts of an MoE layer — saturate their per-operator e-graphs
// concurrently on a bounded worker pool. Every run, including
// Workers == 1, goes through this scheduler: one code path means the
// determinism argument below holds by construction instead of by
// keeping two walks in sync.
//
// The scheduling decisions themselves — who is ready, what a failure
// cancels, how far taint reaches — live in SchedCore (schedcore.go), a
// pure state machine with no locks or goroutines. This file only adds
// the concurrency shell: a mutex + condition variable around the core,
// per-operator result buffers, and panic-proof worker accounting. The
// split is what lets internal/mc model-check the exact shipped
// scheduling logic exhaustively (see internal/mc/models).
//
// Determinism guarantees, so Workers is purely a wall-clock knob:
//
//   - Relation contents: mappings of a tensor are produced solely by
//     its producer's processOp (itself deterministic), so the store's
//     final contents do not depend on completion order.
//   - Stats: per-operator results are buffered by topo index (the
//     ledger) and folded in topo order after the pool drains, never in
//     completion order, keeping Figure-6 heatmap counts reproducible.
//   - Errors (default mode): first-error-wins by *topo order*, not
//     wall-clock order. After a failure at topo index e, the scheduler
//     keeps running operators with smaller indices (their producers
//     all precede them, hence also < e) and only stops handing out
//     work at or beyond the earliest failure. When the pool drains,
//     every operator before the earliest failure has succeeded — so
//     the reported error names exactly the operator the sequential
//     walk would have failed on.
//   - Verdicts (KeepGoing mode): a failing operator taints its
//     downstream cone — every op transitively consuming one of its
//     outputs is marked Skipped without running — while independent
//     subgraphs keep checking. Taint propagation is a pure function of
//     the DAG and the per-operator verdicts (both
//     schedule-independent), so the final verdict vector, read out in
//     topo order, is identical for any worker count.
//   - Faults: checkOp converts panics into EngineFault verdicts, and
//     the worker's accounting (the active-slot decrement and pool
//     wake-up) runs in a defer, so even a panic that slips past the
//     recovery layer drains the pool instead of deadlocking it.

// runSchedule checks the operators of r.order on a pool of workers and
// fills report (stats, verdicts, cache counters, OpsProcessed) exactly
// as a sequential topo-order walk would, by folding the ledger. A
// non-nil return is fatal: a cancelled context, a malformed graph, or
// (default mode) the earliest per-operator failure. KeepGoing-mode
// per-operator failures are reported through report.Failures instead.
func (r *runState) runSchedule(ctx context.Context, workers int, report *Report) error {
	n := len(r.order)
	s := &wavefrontState{
		core:    NewSchedCore(r.producers, r.opts.KeepGoing),
		order:   r.order,
		ledger:  make([]opResult, n),
		fatalAt: n,
	}
	s.cond = sync.NewCond(&s.mu)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s.mu.Lock()
				for !s.stopped() && !s.runnable() {
					s.cond.Wait()
				}
				if !s.runnable() { // stopped: no schedulable work left
					s.mu.Unlock()
					return
				}
				i := s.core.Pop()
				s.active++
				s.mu.Unlock()

				r.runOne(ctx, s, i)
			}
		}()
	}
	wg.Wait()
	r.ledger = s.ledger

	if s.fatal != nil {
		return s.fatal
	}
	if errAt := s.core.ErrAt(); !s.core.KeepGoing() && errAt < n {
		return s.ledger[errAt].verdict.Err
	}
	// Deterministic aggregation: fold the ledger in topo order, never in
	// completion order.
	report.Verdicts = slices.Grow(report.Verdicts, n)
	for i := range s.ledger {
		res := &s.ledger[i]
		report.Stats.Merge(res.stats)
		switch {
		case res.verdict.Replayed:
			res.entry.EachApplication(func(rule string, n int) { report.Stats.Applications[rule] += n })
			report.LiveStats.Merge(egraph.Stats{}) // nothing ran; still materializes Applications
		case res.reused:
			report.LiveStats.Merge(egraph.Stats{})
		default:
			report.LiveStats.Merge(res.stats)
		}
		switch res.cache {
		case cacheHit:
			report.Cache.Hits++
		case cacheReject:
			report.Cache.ReplayRejects++
			fallthrough
		case cacheMiss:
			report.Cache.Misses++
		}
		if res.stored {
			report.Cache.Stores++
		}
		if res.verdict.Kind != VerdictSkipped {
			report.OpsProcessed++
		}
		report.Verdicts = append(report.Verdicts, res.verdict)
		if res.verdict.Failed() {
			report.Failures = append(report.Failures, res.verdict)
		}
	}
	return nil
}

// runOne checks order[i] and records the outcome. All accounting — the
// active-slot decrement, verdict recording, dependency propagation,
// and pool wake-up — happens in the deferred closure, so it runs even
// if the check panics past checkOp's own recovery. Before this defer a
// panicking lemma left s.active incremented forever: runnable() stayed
// false, stopped() never turned true, and every worker slept on the
// condition variable — the latent pool deadlock this layer fixes (and
// that the internal/mc known-bug model reproduces as a minimal trace).
func (r *runState) runOne(ctx context.Context, s *wavefrontState, i int) {
	var res opResult
	var fatal error
	completed := false
	defer func() {
		if !completed {
			// checkOp recovers panics itself; reaching here means the
			// scheduler-side bookkeeping around it panicked. Convert
			// to a structured fault rather than crash or deadlock.
			res = opResult{verdict: OpVerdict{Op: s.order[i], Kind: VerdictEngineFault,
				Err: &EngineFaultError{Op: s.order[i], Recovered: recover(), Stack: debug.Stack()}}}
		}
		s.mu.Lock()
		s.active--
		s.record(i, res, fatal)
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
	res, fatal = r.checkOp(ctx, i)
	completed = true
}

// wavefrontState is the mutex-guarded concurrency shell around
// SchedCore for one scheduled run: the core makes every scheduling
// decision, this struct buffers the per-operator results and keeps the
// pool's sleep/wake protocol honest.
type wavefrontState struct {
	mu   sync.Mutex
	cond *sync.Cond

	core  *SchedCore
	order []*graph.Node

	active int        // operators currently being processed
	ledger []opResult // the run's one per-operator record, topo-indexed

	fatal   error
	fatalAt int // min topo index with a fatal error; n = none
}

// record stores operator i's outcome and propagates scheduling
// consequences through the core. Caller holds s.mu.
func (s *wavefrontState) record(i int, res opResult, fatal error) {
	s.ledger[i] = res
	if fatal != nil {
		// Earliest-in-topo-order fatal wins, for the same determinism
		// reason as SchedCore.errAt; no children are released — the
		// pool drains.
		if i < s.fatalAt {
			s.fatalAt = i
			s.fatal = fatal
		}
		return
	}
	for _, c := range s.core.Resolve(i, res.verdict.Kind == VerdictRefined) {
		s.ledger[c].verdict = OpVerdict{Op: s.order[c], Kind: VerdictSkipped}
	}
}

// runnable reports whether a worker should pick up work. A fatal error
// stops all scheduling; otherwise the core decides.
func (s *wavefrontState) runnable() bool {
	return s.fatal == nil && s.core.Runnable()
}

// stopped reports whether the run has quiesced: nothing runnable and
// nothing active that could still unlock work. Workers then exit.
func (s *wavefrontState) stopped() bool {
	return s.active == 0 && !s.runnable()
}

// minHeap is a min-heap of topo indices: workers always pick the
// earliest ready operator, which bounds how much speculative work runs
// beyond a failure and keeps cancellation convergence fast. With one
// worker it reproduces the exact sequential topo-order walk.
type minHeap []int

func (h minHeap) Len() int            { return len(h) }
func (h minHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h minHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *minHeap) Push(x interface{}) { *h = append(*h, x.(int)) }
func (h *minHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
