// Package core implements ENTANGLE's contribution: the iterative
// model-refinement checker of §4. It walks the sequential model G_s in
// topological order and, for each operator v, computes a clean output
// relation R_v mapping v's outputs to tensors of the distributed
// implementation G_d (Listing 1/2), using equality saturation over a
// per-operator e-graph and the frontier-restricted exploration of G_d
// from Listing 3. A missing R_v is reported as a RefinementError
// naming v — the paper's bug-localization output.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"

	"entangle/internal/egraph"
	"entangle/internal/expr"
	"entangle/internal/graph"
	"entangle/internal/lemmas"
	"entangle/internal/relation"
	"entangle/internal/shape"
	"entangle/internal/sym"
	"entangle/internal/vcache"
)

// Options tune the checker. The zero value selects the defaults used
// throughout the evaluation. What the paper fixes — one lemma library
// under one budget (baseMaxIters, baseMaxNodes), the maxMappings
// simplest mappings per tensor, a frontier walk of at most |G_d|+1
// rounds — is a constant, not an option.
type Options struct {
	// DisableFrontier folds every G_d node into every per-operator
	// e-graph, disabling the §4.3.1 optimization. Used by the ablation
	// benchmarks.
	DisableFrontier bool
	// Registry supplies the lemma library; nil selects lemmas.Default().
	Registry *lemmas.Registry
	// Workers bounds the wavefront scheduler's pool: independent G_s
	// operators (every input's producer already checked) run their
	// per-operator e-graph saturations concurrently. 0 selects
	// runtime.GOMAXPROCS(0); 1 preserves the strictly sequential
	// topo-order walk. Any value produces byte-identical reports —
	// stats merge in topo order and a RefinementError always names
	// the earliest failing operator — so this is purely a wall-clock
	// knob.
	Workers int
	// OpObserver, when non-nil, is called after each saturation attempt
	// of an operator, with that attempt's wall-clock duration: an
	// escalated operator is observed once per attempt, a replayed one
	// not at all (OpVerdict.Duration is the whole per-operator time).
	// It is invoked from pool goroutines (the scheduler runs even
	// Workers == 1 on a pool of one) and must be safe for concurrent
	// use when Workers > 1. benchmark/trace.go uses it for the live
	// operator spans of a traced run. A panic in the observer is
	// recovered into an EngineFault verdict for the observed operator.
	OpObserver func(v *graph.Node, d time.Duration)
	// OpTimeout bounds each operator's wall-clock check time. An
	// operator that exceeds it is classified Inconclusive(Timeout)
	// instead of hanging or aborting the run. 0 disables the
	// per-operator deadline. (The whole-run deadline is the context
	// given to CheckContext.)
	OpTimeout time.Duration
	// KeepGoing selects graceful degradation: a failing operator's
	// downstream cone is skipped, independent subgraphs keep checking,
	// and Check returns a Report whose Failures field lists every
	// failing operator in topological order (strictly better bug
	// localization than the paper's single-error output). The returned
	// error is the earliest failure, as in the default mode. False
	// preserves the paper's first-error-only behaviour.
	KeepGoing bool
	// BudgetEscalations is how many times an operator whose saturation
	// hit its node or iteration limit without disproving refinement is
	// retried with a geometrically larger budget (×4 per escalation)
	// before being declared inconclusive. 0 selects the default of 1
	// escalation; negative disables escalation entirely.
	BudgetEscalations int
	// PreOp, when non-nil, runs before each operator's check on the
	// worker goroutine that will check it; returning a non-nil
	// SaturateOpts replaces that operator's base saturation budget
	// (escalation still multiplies it). Fault-injection harnesses
	// (internal/faultinject) use this hook to panic or starve
	// specific operators; a panic in PreOp is recovered into an
	// EngineFault verdict exactly like a panicking lemma.
	PreOp func(v *graph.Node) *egraph.SaturateOpts
	// Cache, when non-nil, is the content-addressed verdict cache
	// consulted before each operator's saturation (see cache.go for
	// the key construction and reuse-safety argument). One cache may
	// be shared across checkers and concurrent Check calls. Operators
	// whose budget a PreOp override replaced bypass the cache: the
	// override changes the effective budget without changing the key.
	// *vcache.Cache is the single-node store; a cluster.Cache routes
	// the same Get/Put through shard owners across a fleet.
	Cache VerdictStore

	// unplanned bypasses the planning layer (planner.go): dispositions
	// are decided inline at check time, the pre-plan code path. Both
	// paths produce byte-identical reports, which this package's tests
	// assert; it is a reference for them, set nowhere else.
	unplanned bool
}

const (
	// baseMaxIters and baseMaxNodes are every operator's first-attempt
	// saturation budget (escalation multiplies it by escalationFactor)
	// and the budget of a dedicated output-resolution pass.
	baseMaxIters = 24
	baseMaxNodes = 60_000
	// maxMappings caps how many clean mappings are kept per tensor (the
	// paper keeps "the simplest version of each set", §4.3.2; we keep
	// the maxMappings simplest distinct ones). It must exceed the
	// parallelism degree — replicated tensors carry one bare-leaf
	// mapping per rank, and dropping any starves the T_rel frontier.
	maxMappings = 16
	// escalationFactor is the geometric budget growth per escalation.
	escalationFactor = 4
)

// baseBudget returns the base saturation budget.
func baseBudget() egraph.SaturateOpts {
	return egraph.SaturateOpts{MaxIters: baseMaxIters, MaxNodes: baseMaxNodes}
}

func (o Options) withDefaults() Options {
	if o.Registry == nil {
		o.Registry = lemmas.Default()
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	switch {
	case o.BudgetEscalations == 0:
		o.BudgetEscalations = 1
	case o.BudgetEscalations < 0:
		o.BudgetEscalations = 0
	}
	return o
}

// RefinementError reports that G_d could not be shown to refine G_s,
// identifying the sequential operator whose outputs have no clean
// mapping — the actionable output of §6.2.
type RefinementError struct {
	Op     *graph.Node   // operator v ∈ G_s where the search terminated
	Tensor *graph.Tensor // the unmappable output tensor
	// InputMappings renders the relations of v's inputs, which the
	// paper's users inspect to localize the root cause.
	InputMappings string
}

func (e *RefinementError) Error() string {
	msg := fmt.Sprintf("refinement failed: could not map outputs for operator %q (op %s, output %q)",
		e.Op.Label, e.Op.Op, e.Tensor.Name)
	if e.InputMappings != "" {
		msg += "\ninput relations at the failing operator:\n" + e.InputMappings
	}
	return msg
}

// outputResolveError classifies a failed dedicated output-resolution
// pass (resolveOutput): the verdict names the producing operator and
// records whether the resolve saturation reached fixpoint (disproved)
// or stopped on a budget (inconclusive). It unwraps to the underlying
// *RefinementError, and CheckContext strips the wrapper before
// returning, so callers only ever see the refinement error; the
// wrapper exists so KeepGoing mode can record the verdict and hand
// back the partial report instead of dropping it.
type outputResolveError struct{ verdict OpVerdict }

func (e *outputResolveError) Error() string { return e.verdict.Err.Error() }
func (e *outputResolveError) Unwrap() error { return e.verdict.Err }

// Report is the result of a refinement check. On success every field
// is populated; in KeepGoing mode a failing check still returns the
// Report (alongside the earliest failure as the error) with Failures
// carrying the full multi-failure picture and OutputRelation nil.
type Report struct {
	// OutputRelation is the complete clean relation R_o mapping every
	// G_s output to expressions over G_d outputs. Nil when Failures is
	// non-empty: an incomplete walk cannot complete R_o.
	OutputRelation *relation.Relation
	// FullRelation additionally contains mappings of intermediate
	// tensors accumulated during the walk (useful for inspection).
	FullRelation *relation.Relation
	// Stats aggregates saturation statistics; Stats.Applications feeds
	// the Figure 6 lemma heatmap. Cache hits contribute their STORED
	// stats here, so the aggregate matches a cache-disabled run.
	Stats egraph.Stats
	// LiveStats aggregates only the saturation work actually performed
	// this run: cache hits contribute nothing. On a fully warm cache
	// LiveStats.Iterations is zero — the acceptance signal that no
	// operator was re-saturated.
	LiveStats egraph.Stats
	// Cache summarizes this run's verdict-cache traffic; zero when
	// Options.Cache is nil.
	Cache CacheStats
	// Plan is the decision layer's output this run executed: one
	// disposition per operator in topo order (planner.go). Never nil:
	// only this package's tests take the unplanned path.
	Plan *Plan
	// OpsProcessed counts the G_s operators actually checked (skipped
	// cone members in KeepGoing mode are excluded).
	OpsProcessed int
	// Duration is wall-clock verification time (Figure 3/4).
	Duration time.Duration
	// Verdicts classifies every operator in topological order.
	Verdicts []OpVerdict
	// Failures lists the non-refined verdicts in topological order —
	// the multi-failure bug-localization output of KeepGoing mode. In
	// the default first-error mode it is always empty (the first
	// failure is returned as the error instead).
	Failures []OpVerdict
}

// RenderFailures renders the multi-failure report one verdict per
// line, in topological order. The rendering is deterministic (no
// durations, stacks, or addresses): for a fixed model, fault seed, and
// options, any Workers value produces byte-identical output — the
// chaos harness asserts exactly that.
func (r *Report) RenderFailures() string {
	var b strings.Builder
	for _, v := range r.Failures {
		b.WriteString(v.Describe())
		b.WriteByte('\n')
	}
	return b.String()
}

// Checker verifies model refinement between a sequential model and a
// distributed implementation.
type Checker struct {
	opts Options
}

// NewChecker returns a checker with the given options.
func NewChecker(opts Options) *Checker {
	return &Checker{opts: opts.withDefaults()}
}

// Check solves the model refinement problem (§3.2): given G_s, G_d and
// a clean input relation R_i, it either returns a complete clean
// output relation R_o or a *RefinementError localizing the bug. It is
// CheckContext with a background context (no deadline, no
// cancellation).
func (c *Checker) Check(gs, gd *graph.Graph, ri *relation.Relation) (*Report, error) {
	return c.CheckContext(context.Background(), gs, gd, ri)
}

// CheckContext is Check under a context: cancelling ctx (deadline,
// Ctrl-C) aborts the run promptly — cancellation is observed between
// saturation iterations and between frontier folds, so the latency is
// bounded by one iteration — and returns an error wrapping ctx.Err().
// Every worker goroutine has exited by the time CheckContext returns.
//
// In KeepGoing mode a failed check returns a non-nil *Report (with
// Failures populated in topo order) alongside the earliest failure as
// the error; in the default mode a failed check returns a nil Report,
// as before.
func (c *Checker) CheckContext(ctx context.Context, gs, gd *graph.Graph, ri *relation.Relation) (*Report, error) {
	_, report, err := c.checkContext(ctx, gs, gd, ri, nil, nil)
	return report, err
}

// checkContext runs one check — a diff against oldGs/oldRi when oldGs
// is non-nil — and also returns its runState, for delta classification.
func (c *Checker) checkContext(ctx context.Context, gs, gd *graph.Graph, ri *relation.Relation, oldGs *graph.Graph, oldRi *relation.Relation) (*runState, *Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	//lint:ignore determinism Report.Duration is timing metadata, not checker input
	start := time.Now()
	order, err := gs.TopoSort()
	if err != nil {
		return nil, nil, fmt.Errorf("core: G_s: %v", err)
	}
	gdOrder, err := gd.TopoSort()
	if err != nil {
		return nil, nil, fmt.Errorf("core: G_d: %v", err)
	}
	run := &runState{
		opts:    c.opts,
		gs:      gs,
		gd:      gd,
		rel:     ri.CloneSized(len(gs.Tensors)),
		ctx:     mergedContext(gs, gd),
		order:   order,
		gdOrder: gdOrder,
	}
	run.rules, run.compiled = c.opts.Registry.Compiled() // materialized once per registry
	for _, in := range gs.Inputs {
		if !run.rel.Has(in) {
			return nil, nil, fmt.Errorf("core: input relation has no mapping for G_s input %q", gs.Tensor(in).Name)
		}
	}
	if err := run.prepare(oldGs, oldRi); err != nil {
		return nil, nil, err
	}

	report := &Report{FullRelation: run.rel, Stats: egraph.Stats{Applications: map[string]int{}}, Plan: run.plan}
	workers := c.opts.Workers
	if workers > len(order) {
		workers = len(order)
	}
	if err := run.runSchedule(ctx, workers, report); err != nil {
		return nil, nil, err
	}
	// finish seals the report: a failing KeepGoing run hands back the
	// partial report with the earliest failure as the error (the same
	// operator the default mode would have reported).
	finish := func(err error) (*runState, *Report, error) {
		run.reportCache(report)
		//lint:ignore determinism Report.Duration is timing metadata, not checker input
		report.Duration = time.Since(start)
		return run, report, err
	}
	if len(report.Failures) > 0 {
		// The walk is incomplete, so R_o cannot be resolved.
		return finish(report.Failures[0].Err)
	}

	// Listing 1 line 9: filter to the output relation over O(G_d).
	ro, err := run.resolveOutputs(ctx, report)
	if err != nil {
		var oe *outputResolveError
		if !errors.As(err, &oe) {
			return nil, nil, err // context cancellation or an engine error
		}
		if !c.opts.KeepGoing {
			return nil, nil, oe.verdict.Err
		}
		// An unmappable output discovered after a clean walk is a
		// failure like any other: record the verdict so KeepGoing mode
		// hands back the partial report instead of dropping it. (The
		// walk's per-operator budgets can trim mappings that a later
		// dedicated resolution pass then misses.)
		report.Verdicts = append(report.Verdicts, oe.verdict)
		report.Failures = append(report.Failures, oe.verdict)
		return finish(oe.verdict.Err)
	}
	report.OutputRelation = ro
	return finish(nil)
}

// prepare derives the run's keys (once, for every consumer) and
// decides each operator's disposition. oldGs non-nil selects the diff
// planner against that predecessor.
func (r *runState) prepare(oldGs *graph.Graph, oldRi *relation.Relation) error {
	if r.opts.Cache != nil || oldGs != nil {
		kd := newKeyDerivation(r.gd, r.gdOrder, &r.opts)
		cur := kd.side(r.gs, r.rel, r.order)
		var old *sideKeys
		if oldGs != nil {
			var err error
			if old, err = kd.diffBase(oldGs, oldRi); err != nil {
				return err
			}
			r.plan = diffPlan(old, cur, r.gs)
		}
		if r.opts.Cache != nil {
			snap := r.opts.Cache.Stats().Snapshot()
			r.cache = &cacheState{cache: r.opts.Cache, gdix: kd.gdix, keys: cur, old: old,
				baseCorrupt: snap.Corrupt, baseEvictions: snap.Evictions}
		}
	}
	switch {
	case r.plan != nil:
		r.prefetch(r.plan)
	case !r.opts.unplanned:
		r.plan = r.buildPlan()
	}
	return nil
}

// runState carries one Check invocation's working data. During a
// wavefront run it is shared across workers: gs, gd, ctx, rules, order
// and gdOrder are read-only after construction, and rel is internally
// synchronized (copy-on-read Get).
type runState struct {
	opts  Options
	gs    *graph.Graph
	gd    *graph.Graph
	rel   *relation.Relation
	ctx   *sym.Context
	rules []*egraph.Rule
	// compiled is the matcher's one-time analysis of rules, shared by
	// every saturation this run performs (it is read-only and safe
	// across workers).
	compiled *egraph.CompiledRules
	// order and gdOrder are topological orders of gs and gd; order's
	// indices are the ledger's, the plan's and the cache keys'.
	order, gdOrder []*graph.Node
	// cache is the per-run verdict-cache context (cache.go); nil when
	// Options.Cache is nil. Its keys are derived before the scheduler
	// starts and read-only afterwards.
	cache *cacheState
	// plan is the decision layer's output (planner.go), built before
	// the scheduler starts and read-only afterwards; nil only on the
	// unplanned reference path.
	plan *Plan
	// ledger is the scheduler's per-operator record (scheduler.go),
	// topo-indexed; set once the pool drains.
	ledger []opResult
	// gdDefs memoizes each G_d node's defining equations (gdDefOf),
	// indexed by node ID. The table is made by the first fold of the run —
	// a run that replays every verdict folds nothing — and an entry by the
	// first fold of its node; both are read-only from then on, so workers
	// share them.
	gdDefsOnce sync.Once
	gdDefs     []gdDef
}

// gdDef is one G_d node's defining equations, rebased into the G_d ID
// space: per output tensor, its leaf and the operator's expression over
// the input leaves (collectives expanded to clean operators).
type gdDef struct {
	once sync.Once
	outs []gdEquation
	err  error
}

type gdEquation struct{ leaf, def *expr.Term }

// gdDefOf returns n's equations, building them on first use. The terms
// are shared by every e-graph that folds n — the residual stream makes
// each later operator re-fold every earlier layer — so they must not be
// modified; AddTerm and LookupTerm only read them.
func (r *runState) gdDefOf(n *graph.Node) ([]gdEquation, error) {
	r.gdDefsOnce.Do(func() { r.gdDefs = make([]gdDef, len(r.gd.Nodes)) })
	d := &r.gdDefs[n.ID]
	d.once.Do(func() {
		d.outs = make([]gdEquation, len(n.Outputs))
		for i, out := range n.Outputs {
			def, err := r.gd.OutputExpr(n, i)
			if err != nil {
				d.outs, d.err = nil, err
				return
			}
			// Rebase leaves into the G_d ID space.
			def = def.Map(func(t *expr.Term) *expr.Term {
				if t.IsLeaf() && !relation.IsGd(t.TID) {
					return relation.GdLeaf(r.gd.Tensor(graph.TensorID(t.TID)))
				}
				return t
			})
			d.outs[i] = gdEquation{leaf: relation.GdLeaf(r.gd.Tensor(out)), def: def}
		}
	})
	return d.outs, d.err
}

func mergedContext(gs, gd *graph.Graph) *sym.Context {
	ctx := sym.NewContext()
	for _, a := range gs.Ctx.Assumptions() {
		ctx.AssumeGE(a, sym.Const(0))
	}
	for _, a := range gd.Ctx.Assumptions() {
		ctx.AssumeGE(a, sym.Const(0))
	}
	return ctx
}

// newEGraph builds a per-operator e-graph wired to both graphs' tensor
// shapes. The caller hands it back with Release once it has extracted
// what it needs — after its return statement's operands are evaluated,
// not in a defer: a panic must unwind past the Release, so that the
// graph it interrupted is dropped instead of recycled.
func (r *runState) newEGraph() *egraph.EGraph {
	eg := egraph.New(r.ctx)
	eg.SetLeafShapeFn(func(tid int) (shape.Shape, bool) {
		if relation.IsGd(tid) {
			id := relation.GdTensorID(tid)
			if int(id) < len(r.gd.Tensors) {
				return r.gd.Tensor(id).Shape, true
			}
			return nil, false
		}
		if tid >= 0 && tid < len(r.gs.Tensors) {
			return r.gs.Tensor(graph.TensorID(tid)).Shape, true
		}
		return nil, false
	})
	return eg
}

func allowGdLeaf(tid int) bool { return relation.IsGd(tid) }

// observedProcessOp wraps processOp with the OpObserver timing hook.
func (r *runState) observedProcessOp(ctx context.Context, v *graph.Node, budget egraph.SaturateOpts) (egraph.Stats, [][]*expr.Term, error) {
	if r.opts.OpObserver == nil {
		return r.processOp(ctx, v, budget)
	}
	//lint:ignore determinism observer latency is telemetry, not checker input
	start := time.Now()
	stats, outs, err := r.processOp(ctx, v, budget)
	//lint:ignore determinism observer latency is telemetry, not checker input
	r.opts.OpObserver(v, time.Since(start))
	return stats, outs, err
}

// recoveredProcessOp runs one check attempt under panic recovery: a
// panicking lemma, shape rule, or observer is converted into a
// structured *EngineFaultError naming the operator, with the stack,
// instead of unwinding through the worker pool (where, before this
// layer, it deadlocked the scheduler by leaking an active slot).
func (r *runState) recoveredProcessOp(ctx context.Context, v *graph.Node, budget egraph.SaturateOpts) (stats egraph.Stats, outs [][]*expr.Term, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			outs = nil
			err = &EngineFaultError{Op: v, Recovered: rec, Stack: debug.Stack()}
		}
	}()
	return r.observedProcessOp(ctx, v, budget)
}

// safePreOp invokes the PreOp hook under the same panic recovery.
func (r *runState) safePreOp(v *graph.Node) (override *egraph.SaturateOpts, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			override = nil
			err = &EngineFaultError{Op: v, Recovered: rec, Stack: debug.Stack()}
		}
	}()
	return r.opts.PreOp(v), nil
}

// cacheOutcome is what the verdict cache did for one executed operator;
// the zero value means no lookup (no cache, or a PreOp override).
type cacheOutcome uint8

const (
	cacheHit cacheOutcome = iota + 1
	cacheMiss
	// cacheReject: a validated entry that does not fit the current
	// graphs (a miss too) — this should never happen if the fingerprint
	// covers everything it must.
	cacheReject
)

// opResult is one operator's line in the run ledger (scheduler.go):
// every per-operator number in a Report is folded from it. stats is the
// operator's total saturation work — replayed from the cache when
// verdict.Replayed, performed this run otherwise.
type opResult struct {
	stats   egraph.Stats
	verdict OpVerdict
	cache   cacheOutcome
	stored  bool // the cache accepted the live verdict
}

// checkOp is the resilient per-operator harness: it runs processOp
// under panic recovery and a per-operator deadline, escalates the
// saturation budget when the search stops on a limit without reaching
// fixpoint, and classifies the outcome into an OpVerdict.
//
// The returned fatal error, when non-nil, aborts the whole check even
// in KeepGoing mode: it reports conditions that are not per-operator
// analysis outcomes — the run context was cancelled, or the input
// graphs are malformed.
//
// Determinism: for a fixed graph, options, and (injected) faults, the
// verdict depends only on the operator — attempts run the saturation
// from an empty e-graph with deterministic budgets — so any Workers
// value yields the same verdict for every operator. Timeout verdicts
// (OpTimeout) are the one wall-clock-dependent exception.
//
// The planned and unplanned paths differ only in *when* the cache was
// probed — plan time versus check time; entries are immutable, so the
// replayed bytes are the same — and the outcome is recorded here in
// both, keeping reports byte-identical between them.
func (r *runState) checkOp(ctx context.Context, i int) (res opResult, fatal error) {
	v, acc, verdict := r.order[i], &res.stats, &res.verdict
	*verdict = OpVerdict{Op: v, Kind: VerdictRefined}
	//lint:ignore determinism OpVerdict.Duration is timing metadata, not checker input
	start := time.Now()
	//lint:ignore determinism OpVerdict.Duration is timing metadata, not checker input
	defer func() { verdict.Duration = time.Since(start) }()

	opCtx := ctx
	if r.opts.OpTimeout > 0 {
		var cancel context.CancelFunc
		opCtx, cancel = context.WithTimeout(ctx, r.opts.OpTimeout)
		defer cancel()
	}

	budget := baseBudget()
	overridden := false
	if r.opts.PreOp != nil {
		override, err := r.safePreOp(v)
		if err != nil {
			verdict.Kind = VerdictEngineFault
			verdict.Err = err
			return
		}
		if override != nil {
			budget = *override
			overridden = true
		}
	}

	// A PreOp override changes the effective budget without changing
	// the cache key, so overridden operators bypass the cache in both
	// directions (no lookup, no store) — the plan's disposition is
	// advisory for overridden operators.
	useCache := r.cache != nil && !overridden
	if useCache {
		// A plan carries the plan-time probe; without one, probe now.
		var e *vcache.Entry
		if r.plan != nil {
			e = r.plan.Ops[i].entry
		} else {
			e = r.cache.cache.Get(r.cache.keys.keys[i])
		}
		res.cache = cacheMiss
		if e != nil {
			if stats, cached, ok := r.replayEntry(v, e); ok {
				res.cache, *acc, *verdict = cacheHit, stats, cached
				return
			}
			res.cache = cacheReject
		}
	}

	for attempt := 0; ; attempt++ {
		stats, outs, err := r.recoveredProcessOp(opCtx, v, budget)
		acc.Merge(stats)
		if err == nil {
			res.stored = useCache && r.storeVerdict(i, *acc, *verdict, outs)
			return
		}
		var ef *EngineFaultError
		if errors.As(err, &ef) {
			verdict.Kind = VerdictEngineFault
			verdict.Err = ef
			return
		}
		if ctx.Err() != nil {
			// The whole-run context (global -timeout, Ctrl-C) expired:
			// abort everything.
			fatal = fmt.Errorf("core: check cancelled at operator %q: %w", v.Label, ctx.Err())
			return
		}
		var re *RefinementError
		isRefinement := errors.As(err, &re)
		if opCtx.Err() != nil {
			// Only the per-operator deadline expired: this operator is
			// inconclusive, the rest of the run continues.
			verdict.Kind = VerdictInconclusive
			verdict.Reason = ReasonTimeout
			verdict.Err = &InconclusiveError{Op: v, Reason: ReasonTimeout, Escalations: verdict.Escalations, Cause: re}
			return
		}
		if !isRefinement {
			// Malformed input (a collective in G_s, an inexpressible
			// operator definition): not an analysis outcome.
			fatal = err
			return
		}
		if stats.Saturated || stats.Runs == 0 {
			// Fixpoint reached (or the failure precedes any search):
			// the e-graph holds every derivable equivalence and no
			// clean mapping exists — refinement is genuinely disproved
			// and more budget cannot change the answer.
			verdict.Kind = VerdictDisproved
			verdict.Err = re
			res.stored = useCache && r.storeVerdict(i, *acc, *verdict, nil)
			return
		}
		if attempt < r.opts.BudgetEscalations {
			// The search stopped on a budget, so the missing mapping
			// may lie just beyond it: retry with a geometrically
			// larger budget before declaring the operator inconclusive.
			budget.MaxIters *= escalationFactor
			budget.MaxNodes *= escalationFactor
			verdict.Escalations = attempt + 1
			continue
		}
		verdict.Kind = VerdictInconclusive
		verdict.Reason = ReasonBudgetExhausted
		verdict.Err = &InconclusiveError{Op: v, Reason: ReasonBudgetExhausted, Escalations: verdict.Escalations, Cause: re}
		return
	}
}

// processOp is compute_node_out_rel (Listing 2) with the Listing-3
// frontier optimization: seed the e-graph with v's output expression
// and its input mappings, fold in G_d operator definitions restricted
// to the related-tensor frontier, saturate with the lemma library, and
// extract the clean mappings of v's outputs. It returns the operator's
// saturation statistics; the caller merges them in topo order so the
// aggregate is identical however ops were scheduled. processOp only
// reads mappings of v's inputs (complete once their producers are
// done) and only writes mappings of v's outputs, which is what makes
// the wavefront schedule race-free and deterministic.
//
// ctx bounds the search: it is threaded into every Saturate call and
// checked between frontier iterations, so cancellation surfaces within
// one iteration as a context error (never disguised as a refinement
// failure). budget bounds each saturation run; checkOp escalates it
// across attempts.
func (r *runState) processOp(ctx context.Context, v *graph.Node, budget egraph.SaturateOpts) (egraph.Stats, [][]*expr.Term, error) {
	if expr.Collective(v.Op) {
		return egraph.Stats{}, nil, fmt.Errorf("core: sequential model %s contains collective %q", r.gs.Name, v.Label)
	}
	eg := r.newEGraph()
	acc, outs, err := r.processOpIn(ctx, eg, v, budget)
	eg.Release()
	return acc, outs, err
}

// processOpIn is processOp's search, run in the e-graph it is given.
func (r *runState) processOpIn(ctx context.Context, eg *egraph.EGraph, v *graph.Node, budget egraph.SaturateOpts) (egraph.Stats, [][]*expr.Term, error) {
	var acc egraph.Stats
	satOpts := budget
	satOpts.Ctx = ctx
	satOpts.Compiled = r.compiled

	// Step 1 (rewrite_t_to_expr): leaves for v's inputs, unioned with
	// every known mapping. In e-graph form, substitution is union.
	for _, in := range v.Inputs {
		t := r.gs.Tensor(in)
		cls := eg.AddTerm(relation.GsLeaf(t))
		maps := r.rel.Get(in)
		if len(maps) == 0 {
			return acc, nil, &RefinementError{Op: v, Tensor: t,
				InputMappings: fmt.Sprintf("  (no mapping recorded for input %q)", t.Name)}
		}
		for _, m := range maps {
			eg.Union(cls, eg.AddTerm(m))
		}
	}
	eg.Rebuild()

	outClasses := make([]egraph.ClassID, len(v.Outputs))
	for i := range v.Outputs {
		base, err := r.gs.OutputExpr(v, i)
		if err != nil {
			return acc, nil, err
		}
		outClasses[i] = eg.AddTerm(base)
	}

	// Listing 3: the related-tensor frontier T_rel starts from the G_d
	// tensors reachable through the mappings of v's inputs.
	tRel, folded := r.frontierSets()
	for _, gdID := range r.rel.GdLeaves(v.Inputs) {
		relate(tRel, gdID)
	}
	if r.opts.DisableFrontier {
		for i := range tRel {
			tRel[i] = true
		}
	}

	// The walk stops when T_rel stops growing, and after |G_d|+1
	// rounds at the latest.
	for iter := 0; iter <= len(r.gd.Nodes); iter++ {
		if err := ctx.Err(); err != nil {
			return acc, nil, fmt.Errorf("core: checking %q: %w", v.Label, err)
		}
		progress, err := r.foldReady(eg, tRel, folded, false)
		if err != nil {
			return acc, nil, err
		}
		if !progress && iter > 0 {
			break
		}

		acc.Merge(eg.Saturate(r.rules, satOpts))

		// Grow T_rel with tensors appearing in newly derived clean
		// expressions of v's outputs ("related to v's outputs"). Every
		// question this step asks is about the graph Saturate just left,
		// so one clean-cost table answers them all.
		clean := eg.CleanCosts(allowGdLeaf)
		grew := false
		for _, oc := range outClasses {
			for _, t := range clean.ExtractAll(oc, maxMappings) {
				for _, leaf := range t.Leaves() {
					if relation.IsGd(leaf) && relate(tRel, relation.GdTensorID(leaf)) {
						grew = true
					}
				}
			}
		}
		// Outputs of folded nodes whose class gained a clean
		// representation are also related.
		for _, n := range r.gdOrder {
			if !folded[n.ID] {
				continue
			}
			eqs, _ := r.gdDefOf(n) // folded: built, and without error
			for i, out := range n.Outputs {
				if tRel[out] {
					continue
				}
				if cls, ok := eg.LookupTerm(eqs[i].leaf); ok && clean.Has(cls) {
					tRel[out] = true
					grew = true
				}
			}
		}
		if !progress && !grew {
			break
		}
	}

	// A run cancelled mid-saturation must report the cancellation, not
	// a refinement failure extracted from a truncated e-graph.
	if err := ctx.Err(); err != nil {
		return acc, nil, fmt.Errorf("core: checking %q: %w", v.Label, err)
	}

	// Step 4: extract and record the clean output relation R_v. The
	// terms added to the relation are also returned, per output in the
	// order they were added, so checkOp can cache them for replay.
	outs := make([][]*expr.Term, 0, len(v.Outputs))
	for i, out := range v.Outputs {
		mappings := eg.ExtractAllClean(outClasses[i], allowGdLeaf, maxMappings)
		if len(mappings) == 0 {
			return acc, nil, &RefinementError{Op: v, Tensor: r.gs.Tensor(out),
				InputMappings: r.renderInputMappings(v)}
		}
		r.rel.AddAll(out, mappings)
		// Opportunistically record output-restricted mappings too.
		if r.gs.IsOutput(out) {
			restricted := eg.ExtractAllClean(outClasses[i], r.allowGdOutput, maxMappings)
			r.rel.AddAll(out, restricted)
			mappings = slices.Concat(mappings, restricted)
		}
		outs = append(outs, mappings)
	}
	return acc, outs, nil
}

// frontierSets returns the two sets a frontier walk keeps, both empty:
// the related G_d tensors and the folded G_d nodes, as tables over the
// graph's (dense) tensor and node IDs.
func (r *runState) frontierSets() (tRel, folded []bool) {
	return make([]bool, len(r.gd.Tensors)), make([]bool, len(r.gd.Nodes))
}

// relate adds the G_d tensor a mapping's leaf names to tRel and reports
// whether it was new. A leaf outside G_d's tensor table relates
// nothing: no G_d node consumes it.
func relate(tRel []bool, id graph.TensorID) bool {
	if int(id) >= len(tRel) || tRel[id] {
		return false
	}
	tRel[id] = true
	return true
}

// foldReady folds, in G_d topological order, every not-yet-folded G_d
// node whose inputs are all in tRel, and reports whether any was. With
// relateOutputs a folded node's outputs join tRel at once, so one pass
// cascades forward (output resolution); without, they join only when
// the caller finds them related (the Listing-3 frontier).
func (r *runState) foldReady(eg *egraph.EGraph, tRel, folded []bool, relateOutputs bool) (bool, error) {
	progress := false
nodes:
	for _, n := range r.gdOrder {
		if folded[n.ID] {
			continue
		}
		for _, in := range n.Inputs {
			if !tRel[in] {
				continue nodes
			}
		}
		if err := r.foldGdNode(eg, n); err != nil {
			return false, err
		}
		if relateOutputs {
			for _, out := range n.Outputs {
				tRel[out] = true
			}
		}
		folded[n.ID] = true
		progress = true
	}
	return progress, nil
}

// foldGdNode registers a G_d node's defining equations: for each
// output tensor, the leaf is unioned with the operator's expression
// over its input leaves (collectives expand to clean operators).
func (r *runState) foldGdNode(eg *egraph.EGraph, n *graph.Node) error {
	eqs, err := r.gdDefOf(n)
	if err != nil {
		return err
	}
	for _, eq := range eqs {
		eg.Union(eg.AddTerm(eq.leaf), eg.AddTerm(eq.def))
	}
	eg.Rebuild()
	return nil
}

func (r *runState) allowGdOutput(tid int) bool {
	if !relation.IsGd(tid) {
		return false
	}
	return r.gd.IsOutput(relation.GdTensorID(tid))
}

func (r *runState) renderInputMappings(v *graph.Node) string {
	var b strings.Builder
	for _, in := range v.Inputs {
		t := r.gs.Tensor(in)
		maps := r.rel.Get(in)
		if len(maps) == 0 {
			fmt.Fprintf(&b, "  %s: (unmapped)\n", t.Name)
			continue
		}
		for _, m := range maps {
			fmt.Fprintf(&b, "  %s = %s\n", t.Name, m)
		}
	}
	return b.String()
}

// resolveOutputs builds R_o: mappings of every G_s output restricted
// to expressions over O(G_d) (Listing 1 line 9). Outputs that did not
// resolve during their producing operator's pass get one dedicated
// resolution pass that folds G_d forward from their known mappings.
func (r *runState) resolveOutputs(ctx context.Context, report *Report) (*relation.Relation, error) {
	ro := relation.New()
	for _, o := range r.gs.Outputs {
		for _, m := range r.rel.Get(o) {
			if r.leavesAreGdOutputs(m) {
				ro.Add(o, m)
			}
		}
		if ro.Has(o) {
			continue
		}
		m, err := r.resolveOutput(ctx, o, report)
		if err != nil {
			return nil, err
		}
		ro.AddAll(o, m)
	}
	return ro, nil
}

func (r *runState) leavesAreGdOutputs(t *expr.Term) bool {
	for _, leaf := range t.Leaves() {
		if !relation.IsGd(leaf) || !r.gd.IsOutput(relation.GdTensorID(leaf)) {
			return false
		}
	}
	return true
}

func (r *runState) resolveOutput(ctx context.Context, o graph.TensorID, report *Report) ([]*expr.Term, error) {
	producer := r.gs.Tensor(o).Producer
	fail := func(kind VerdictKind, reason InconclusiveReason) error {
		var v *graph.Node
		if producer != graph.NoProducer {
			v = r.gs.Node(producer)
		} else {
			v = &graph.Node{Label: "(graph input)", Op: expr.OpIdentity}
		}
		re := &RefinementError{Op: v, Tensor: r.gs.Tensor(o),
			InputMappings: r.renderInputMappings(v)}
		return &outputResolveError{verdict: OpVerdict{Op: v, Kind: kind, Reason: reason, Err: re}}
	}

	maps := r.rel.Get(o)
	if len(maps) == 0 {
		// No mapping at all for the output: no search ran, nothing to
		// escalate — the same classification checkOp gives Runs == 0.
		return nil, fail(VerdictDisproved, ReasonNone)
	}
	eg := r.newEGraph()
	out, resolveStats, err := r.resolveOutputIn(ctx, eg, o, maps)
	eg.Release()
	report.Stats.Merge(resolveStats)
	report.LiveStats.Merge(resolveStats)
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		if resolveStats.Saturated && r.producerSaturated(producer) {
			return nil, fail(VerdictDisproved, ReasonNone)
		}
		// The resolve search, or the producer's own that left o the
		// mappings it started from, stopped on a budget before fixpoint;
		// a mapping may exist beyond the limit, so don't call it a bug.
		return nil, fail(VerdictInconclusive, ReasonBudgetExhausted)
	}
	return out, nil
}

// producerSaturated reports whether the operator producing a G_s output
// reached fixpoint in every saturation of its check — whether the
// output's mappings are all there are, rather than what a budget left.
// A graph input's mappings are R_i's, complete by definition.
func (r *runState) producerSaturated(producer graph.NodeID) bool {
	if producer == graph.NoProducer {
		return true
	}
	i := slices.IndexFunc(r.order, func(v *graph.Node) bool { return v.ID == producer })
	return r.ledger[i].stats.Saturated
}

// resolveOutputIn is resolveOutput's search, run in the e-graph it is
// given: G_d folded forward from o's known mappings, one saturation,
// and the mappings over O(G_d) it leaves o with (none is not an error).
func (r *runState) resolveOutputIn(ctx context.Context, eg *egraph.EGraph, o graph.TensorID, maps []*expr.Term) ([]*expr.Term, egraph.Stats, error) {
	cls := eg.AddTerm(relation.GsLeaf(r.gs.Tensor(o)))
	tRel, folded := r.frontierSets()
	for _, m := range maps {
		eg.Union(cls, eg.AddTerm(m))
		for _, leaf := range m.Leaves() {
			if relation.IsGd(leaf) {
				relate(tRel, relation.GdTensorID(leaf))
			}
		}
	}
	eg.Rebuild()

	for iter := 0; iter <= len(r.gd.Nodes); iter++ {
		if err := ctx.Err(); err != nil {
			return nil, egraph.Stats{}, fmt.Errorf("core: resolving output %q: %w", r.gs.Tensor(o).Name, err)
		}
		progress, err := r.foldReady(eg, tRel, folded, true)
		if err != nil {
			return nil, egraph.Stats{}, err
		}
		if !progress {
			break
		}
	}
	satOpts := baseBudget()
	satOpts.Ctx = ctx
	satOpts.Compiled = r.compiled
	stats := eg.Saturate(r.rules, satOpts)
	if err := ctx.Err(); err != nil {
		return nil, stats, fmt.Errorf("core: resolving output %q: %w", r.gs.Tensor(o).Name, err)
	}
	return eg.ExtractAllClean(eg.Find(cls), r.allowGdOutput, maxMappings), stats, nil
}
