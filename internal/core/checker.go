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
	"entangle/internal/fingerprint"
	"entangle/internal/graph"
	"entangle/internal/lemmas"
	"entangle/internal/relation"
	"entangle/internal/shape"
	"entangle/internal/sym"
	"entangle/internal/vcache"
)

// Options tune the checker. The zero value selects the defaults used
// throughout the evaluation. What the paper fixes — one lemma library
// under one budget (baseMaxIters, baseMaxNodes) with maxEscalations
// ×escalationFactor retries, the maxMappings simplest mappings per
// tensor, a frontier walk of at most |G_d|+1 rounds — is a constant,
// not an option.
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
	// KeepGoing selects graceful degradation: a failing operator's
	// downstream cone is skipped, independent subgraphs keep checking,
	// and Check returns a Report whose Failures field lists every
	// failing operator in topological order (strictly better bug
	// localization than the paper's single-error output). The returned
	// error is the earliest failure, as in the default mode. False
	// preserves the paper's first-error-only behaviour.
	KeepGoing bool
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

	// gdDigest is a G_d digest the caller already knows (WithGdDigest),
	// bound to the graph object it was derived from.
	gdDigest boundDigest

	// unplanned probes the cache inline, as each operator starts,
	// instead of prefetching the run's keys before the scheduler starts
	// (cacheState.prefetch). Both paths produce byte-identical reports,
	// which this package's tests assert; it is a reference for them,
	// set nowhere else.
	unplanned bool
	// noReuse turns off the in-run reuse table (reuse.go): every
	// operator searches live. Reports are byte-identical either way but
	// for LiveStats, which this package's tests assert; set nowhere else.
	noReuse bool
	// rungHook, when non-nil, is told the rung of every search checkOp
	// starts: the ladder as this package's tests read it (the external
	// ones through export_test.go's WithRungLog); set nowhere else.
	rungHook func(v *graph.Node, rg rung)
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
	// maxEscalations is how many ×escalationFactor retries a search that
	// stopped on its budget gets before it is declared inconclusive.
	maxEscalations = 1
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
	// stats here, and operators that reused an ancestor's search
	// (reuse.go) that search's, so the aggregate matches a cache-disabled
	// run.
	Stats egraph.Stats
	// LiveStats aggregates only the saturation work actually performed
	// this run: cache hits and reused searches contribute nothing. On a
	// fully warm cache LiveStats.Iterations is zero — the acceptance
	// signal that no operator was re-saturated.
	LiveStats egraph.Stats
	// Cache summarizes this run's verdict-cache traffic; zero when
	// Options.Cache is nil.
	Cache CacheStats
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
	if err := checkRiDomain(gs, ri); err != nil {
		return nil, nil, err
	}
	gdOrder, err := gd.TopoSort()
	if err != nil {
		return nil, nil, fmt.Errorf("core: G_d: %v", err)
	}
	run := &runState{
		opts:      c.opts,
		gs:        gs,
		gd:        gd,
		rel:       ri.CloneSized(len(gs.Tensors)),
		ctx:       mergedContext(gs, gd),
		order:     order,
		producers: gs.Producers(order),
		gdOrder:   gdOrder,
		gdix:      fingerprint.IndexGd(gd, gdOrder),
	}
	run.rules, run.compiled = c.opts.Registry.Compiled() // materialized once per registry
	run.leafShape, run.leafTerm = run.leafShapeOf, run.sharedLeaf
	run.reuse.on = !c.opts.noReuse && !c.opts.DisableFrontier
	for _, in := range gs.Inputs {
		if !run.rel.Has(in) {
			return nil, nil, fmt.Errorf("core: input relation has no mapping for G_s input %q", gs.Tensor(in).Name)
		}
	}
	if err := run.prepare(oldGs, oldRi); err != nil {
		return nil, nil, err
	}

	report := &Report{FullRelation: run.rel, Stats: egraph.Stats{Applications: map[string]int{}}}
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
		//lint:ignore determinism Report.Duration is timing metadata, not checker input
		report.Duration = time.Since(start)
		return run, report, err
	}
	if len(report.Failures) > 0 {
		// The walk is incomplete, so R_o cannot be resolved.
		return finish(report.Failures[0].Err)
	}

	// Listing 1 line 9: filter to the output relation over O(G_d).
	ro, failed, err := run.resolveOutputs(ctx, report)
	if err != nil {
		return nil, nil, err // context cancellation or an engine error
	}
	if failed != nil {
		if !c.opts.KeepGoing {
			return nil, nil, failed.Err
		}
		// An unmappable output discovered after a clean walk is a
		// failure like any other: record the verdict so KeepGoing mode
		// hands back the partial report instead of dropping it. (The
		// walk's per-operator budgets can trim mappings that a later
		// dedicated resolution pass then misses.)
		report.Verdicts = append(report.Verdicts, *failed)
		report.Failures = append(report.Failures, *failed)
		return finish(failed.Err)
	}
	report.OutputRelation = ro
	return finish(nil)
}

// checkRiDomain refuses an R_i entry on a tensor gs lacks or produces.
// R_i relates G_s inputs only, and a cache key spells no other entry:
// one on a produced tensor would steer its consumers' searches unkeyed.
func checkRiDomain(gs *graph.Graph, ri *relation.Relation) error {
	for _, id := range ri.Tensors() {
		if id < 0 || int(id) >= len(gs.Tensors) {
			return fmt.Errorf("core: input relation maps tensor %d, which G_s does not have", id)
		}
		if t := gs.Tensors[id]; t.Producer != graph.NoProducer {
			return fmt.Errorf("core: input relation maps %q, which operator %q produces: R_i relates G_s inputs only",
				t.Name, gs.Node(t.Producer).Label)
		}
	}
	return nil
}

// prepare derives the run's keys (once, for every consumer) and
// prefetches their entries. oldGs non-nil plans a diff against that
// predecessor.
func (r *runState) prepare(oldGs *graph.Graph, oldRi *relation.Relation) error {
	if r.opts.Cache == nil && oldGs == nil {
		return nil
	}
	kd := newKeyDerivation(r.gdix, &r.opts)
	cur := kd.side(r.gs, r.rel, r.order)
	var old *sideKeys
	if oldGs != nil {
		var err error
		if old, err = kd.diffBase(oldGs, oldRi); err != nil {
			return err
		}
		r.plan = diffPlan(old, cur, r.producers)
	}
	if r.opts.Cache != nil {
		r.cache = &cacheState{cache: r.opts.Cache, keys: cur, old: old}
		if !r.opts.unplanned {
			r.cache.prefetch()
		}
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
	// indices are the ledger's, a diff plan's and the cache keys'.
	order, gdOrder []*graph.Node
	// producers is gs's DAG over order's indices (graph.Producers): the
	// scheduler, the diff planner and reuse's ancestor test walk it.
	producers [][]int
	// gdix indexes gd's tensors; its leaf table is the run's one leaf
	// term per G_d tensor, shared by every definition, extraction, cache
	// replay and reuse hit.
	gdix *fingerprint.GdIndex
	// leafShape and leafTerm are the leaf oracles every per-operator
	// e-graph is wired to (newEGraph), made once per run.
	leafShape func(tid int) (shape.Shape, bool)
	leafTerm  func(tid int) *expr.Term
	// reuse is the run's record of solved searches (reuse.go).
	reuse reuseTable
	// cache is the per-run verdict-cache context (cache.go); nil when
	// Options.Cache is nil. Its keys are derived before the scheduler
	// starts and read-only afterwards.
	cache *cacheState
	// plan is a diff's plan (diff.go), built before the scheduler
	// starts and read-only afterwards; nil on a full check.
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
	// spell is each G_s tensor's spellings (spellings.go), made by the
	// first search or reuse probe of the run, an entry by the first
	// consumer of its tensor; gdPos is the G_d ancestry they are decided
	// over, made by the first tensor with two mappings. Workers share
	// both, as they share gdDefs.
	spellOnce sync.Once
	spell     []spellings
	gdPosOnce sync.Once
	gdPos     []int32
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

// gdDefOf returns n's equations, building them on first use over the
// run's shared G_d leaves. The terms are shared by every e-graph that
// folds n — the residual stream makes each later operator re-fold every
// earlier layer — so they must not be modified; AddTerm only reads
// them.
func (r *runState) gdDefOf(n *graph.Node) ([]gdEquation, error) {
	r.gdDefsOnce.Do(func() { r.gdDefs = make([]gdDef, len(r.gd.Nodes)) })
	d := &r.gdDefs[n.ID]
	d.once.Do(func() {
		leaves := make([]*expr.Term, len(n.Inputs))
		for i, in := range n.Inputs {
			leaves[i] = r.gdix.Leaf(in)
		}
		defs, err := r.gd.OutputExprs(n, leaves)
		if err != nil {
			d.err = err
			return
		}
		d.outs = make([]gdEquation, len(n.Outputs))
		for i, out := range n.Outputs {
			d.outs[i] = gdEquation{leaf: r.gdix.Leaf(out), def: defs[i]}
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
	eg.SetLeafShapeFn(r.leafShape)
	eg.SetLeafTermFn(r.leafTerm)
	return eg
}

// leafShapeOf is the shape of the tensor a leaf names, in either graph.
func (r *runState) leafShapeOf(tid int) (shape.Shape, bool) {
	if t := r.leafTensor(tid); t != nil {
		return t.Shape, true
	}
	return nil, false
}

// leafTensor is the tensor a leaf names, in either graph; nil when the
// ID is outside both tables.
func (r *runState) leafTensor(tid int) *graph.Tensor {
	if relation.IsGd(tid) {
		if id := relation.GdTensorID(tid); int(id) < len(r.gd.Tensors) {
			return r.gd.Tensor(id)
		}
		return nil
	}
	if tid >= 0 && tid < len(r.gs.Tensors) {
		return r.gs.Tensor(graph.TensorID(tid))
	}
	return nil
}

// sharedLeaf is the run's one term for a G_d tensor's leaf; nil for any
// other leaf, which extraction then builds itself.
func (r *runState) sharedLeaf(tid int) *expr.Term {
	if !relation.IsGd(tid) || int(relation.GdTensorID(tid)) >= len(r.gd.Tensors) {
		return nil
	}
	return r.gdix.Leaf(relation.GdTensorID(tid))
}

func allowGdLeaf(tid int) bool { return relation.IsGd(tid) }

// recoveredProcessOp runs one check attempt, timed for the OpObserver
// hook, under panic recovery: a panicking lemma, shape rule, or
// observer is converted into a structured *EngineFaultError naming the
// operator, with the stack, instead of unwinding through the worker pool
// (where, before this layer, it deadlocked the scheduler by leaking an
// active slot).
func (r *runState) recoveredProcessOp(ctx context.Context, v *graph.Node, budget egraph.SaturateOpts, rg rung, tr *searchTrace) (stats egraph.Stats, outs [][]*expr.Term, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			stats, outs = egraph.Stats{}, nil
			err = &EngineFaultError{Op: v, Recovered: rec, Stack: debug.Stack()}
		}
	}()
	if r.opts.OpObserver == nil {
		return r.processOp(ctx, v, budget, rg, tr)
	}
	//lint:ignore determinism observer latency is telemetry, not checker input
	start := time.Now()
	stats, outs, err = r.processOp(ctx, v, budget, rg, tr)
	//lint:ignore determinism observer latency is telemetry, not checker input
	r.opts.OpObserver(v, time.Since(start))
	return stats, outs, err
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
// operator's total saturation work — performed this run; when reused,
// the work of the ancestor's search it replayed; when verdict.Replayed,
// read from entry without its rule counts, which the fold reads from
// entry's bytes.
type opResult struct {
	stats   egraph.Stats
	entry   *vcache.Entry // the replayed verdict
	verdict OpVerdict
	cache   cacheOutcome
	stored  bool // the cache accepted the live verdict
	reused  bool // an ancestor's search answered (reuse.go): nothing ran
}

// checkOp is the resilient per-operator harness: it runs processOp
// under panic recovery, widens a failed search up the ladder of rungs,
// escalates the saturation budget when the search stops on a limit
// without reaching fixpoint, and classifies the outcome into an
// OpVerdict.
//
// The returned fatal error, when non-nil, aborts the whole check even
// in KeepGoing mode: it reports conditions that are not per-operator
// analysis outcomes — the run context was cancelled, or the input
// graphs are malformed.
//
// Determinism: for a fixed graph, options, and (injected) faults, the
// verdict depends only on the operator — attempts run the saturation
// from an empty e-graph with deterministic budgets — so any Workers
// value yields the same verdict for every operator. The run's context
// is the one deadline: when it expires the whole check aborts, so no
// verdict depends on the wall clock.
//
// The prefetched and unplanned paths differ only in *when* the cache
// was probed — before the scheduler starts versus as the operator
// starts; entries are immutable, so the replayed bytes are the same —
// and the outcome is recorded here in both, keeping reports
// byte-identical between them.
func (r *runState) checkOp(ctx context.Context, i int) (res opResult, fatal error) {
	v, acc, verdict := r.order[i], &res.stats, &res.verdict
	*verdict = OpVerdict{Op: v, Kind: VerdictRefined}
	//lint:ignore determinism OpVerdict.Duration is timing metadata, not checker input
	start := time.Now()
	//lint:ignore determinism OpVerdict.Duration is timing metadata, not checker input
	defer func() { verdict.Duration = time.Since(start) }()

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
	// directions (no lookup, no store) — a prefetched entry included.
	useCache := r.cache != nil && !overridden
	if useCache {
		// A prefetched run carries its probe; without one, probe now.
		var e *vcache.Entry
		if r.cache.entries != nil {
			e = r.cache.entries[i]
		} else {
			e = r.cache.cache.Get(r.cache.keys.keys[i])
		}
		res.cache = cacheMiss
		if e != nil {
			if cached, outs, ok := r.replayEntry(v, e); ok {
				r.addOutputs(v, outs)
				res.cache, res.entry, *acc, *verdict = cacheHit, e, e.Stats(), cached
				return
			}
			res.cache = cacheReject
		}
	}

	// An ancestor that solved the same search answers for this operator
	// (reuse.go); a PreOp override changes the budget, so it bypasses
	// reuse as it bypasses the cache.
	var probe *reuseProbe
	if r.reuse.on && !overridden {
		if probe = r.reuseProbe(i); probe != nil {
			defer r.releaseProbe(probe)
			if e, outs := r.reusable(i, probe); e != nil {
				if egraph.InvariantChecks {
					r.auditReuse(ctx, i, e, outs)
				}
				r.addOutputs(v, outs)
				acc.Merge(e.stats)
				res.reused = true
				res.stored = useCache && r.storeVerdict(i, *acc, *verdict, outs)
				return
			}
		}
	}

	// The ladder (DESIGN §5.7): the first search reads only the newest
	// input spellings; a failure widens it to every spelling at the base
	// budget, and a failure at fixpoint to the whole of G_d before it is
	// reported. Budget escalation applies to the wider rungs as before.
	base, rg := budget, r.firstRung(v)
	for searched := false; ; searched = true {
		// Only the first search, at the base budget, is recorded for reuse,
		// and only when a later operator might pose the same search.
		var tr *searchTrace
		if !searched && probe != nil && probe.record {
			tr = probe.newTrace()
		}
		if r.opts.rungHook != nil {
			r.opts.rungHook(v, rg)
		}
		stats, outs, err := r.recoveredProcessOp(ctx, v, budget, rg, tr)
		acc.Merge(stats)
		if err == nil {
			r.addOutputs(v, outs)
			if tr != nil {
				r.recordSearch(i, probe, outs, *acc)
			}
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
		if !errors.As(err, &re) {
			// Malformed input (a collective in G_s, an inexpressible
			// operator definition): not an analysis outcome.
			fatal = err
			return
		}
		switch {
		case stats.Runs == 0:
			// The failure precedes any search (an input without a
			// mapping): no rung or budget can change the answer.
		case rg == rungNewest:
			// An older spelling may be the one that maps: read them all.
			rg, budget = rungAll, base
			continue
		case stats.Saturated && rg == rungAll:
			// Fixpoint under the frontier, which only folds G_d nodes the
			// input spellings reach: fold the whole of G_d before failing.
			rg = rungWhole
			continue
		case stats.Saturated:
		case verdict.Escalations < maxEscalations:
			// The search stopped on a budget, so the missing mapping
			// may lie just beyond it: retry with a geometrically
			// larger budget before declaring the operator inconclusive.
			budget.MaxIters *= escalationFactor
			budget.MaxNodes *= escalationFactor
			verdict.Escalations++
			continue
		default:
			verdict.Kind = VerdictInconclusive
			verdict.Err = &InconclusiveError{Op: v, Cause: re}
			return
		}
		// Fixpoint reached over the whole of G_d (or the failure precedes
		// any search): the e-graph holds every derivable equivalence and no
		// clean mapping exists — refinement is genuinely disproved and more
		// budget cannot change the answer.
		verdict.Kind = VerdictDisproved
		verdict.Err = re
		res.stored = useCache && r.storeVerdict(i, *acc, *verdict, nil)
		return
	}
}

// addOutputs records v's output mappings (none when outs is nil), each
// output's in the order a live search extracted them. checkOp is the one
// caller: a search, a reused search and a cached verdict all record an
// operator's outputs here, once the operator has succeeded.
func (r *runState) addOutputs(v *graph.Node, outs [][]*expr.Term) {
	for i, ts := range outs {
		r.rel.AddAll(v.Outputs[i], ts)
	}
}

// processOp is compute_node_out_rel (Listing 2) with the Listing-3
// frontier optimization: seed the e-graph with v's output expression
// and its input mappings, fold in G_d operator definitions restricted
// to the related-tensor frontier, saturate with the lemma library, and
// extract the clean mappings of v's outputs. It returns the operator's
// saturation statistics, which the caller merges in topo order so the
// aggregate is identical however ops were scheduled, and the mappings,
// which checkOp alone records. processOp only reads mappings of v's
// inputs (complete once their producers are done) and writes nothing,
// which is what makes the wavefront schedule race-free and
// deterministic.
//
// ctx bounds the search: it is threaded into every Saturate call and
// checked between frontier iterations, so cancellation surfaces within
// one iteration as a context error (never disguised as a refinement
// failure). budget bounds each saturation run; checkOp escalates it
// across attempts, and rg is how widely the search reads (the ladder's
// rung). A non-nil tr logs the frontier walk for reuse.
func (r *runState) processOp(ctx context.Context, v *graph.Node, budget egraph.SaturateOpts, rg rung, tr *searchTrace) (egraph.Stats, [][]*expr.Term, error) {
	if expr.Collective(v.Op) {
		return egraph.Stats{}, nil, fmt.Errorf("core: sequential model %s contains collective %q", r.gs.Name, v.Label)
	}
	eg := r.newEGraph()
	acc, outs, err := r.processOpIn(ctx, eg, v, budget, rg, tr)
	eg.Release()
	return acc, outs, err
}

// processOpIn is processOp's search, run in the e-graph it is given.
func (r *runState) processOpIn(ctx context.Context, eg *egraph.EGraph, v *graph.Node, budget egraph.SaturateOpts, rg rung, tr *searchTrace) (egraph.Stats, [][]*expr.Term, error) {
	var acc egraph.Stats
	satOpts := budget
	satOpts.Ctx = ctx
	satOpts.Compiled = r.compiled

	// Step 1 (rewrite_t_to_expr): leaves for v's inputs, unioned with
	// the mappings the rung reads. In e-graph form, substitution is
	// union. Listing 3: the related-tensor frontier T_rel starts from the
	// G_d tensors those mappings name.
	f := r.newFrontier()
	defer f.release()
	for _, in := range v.Inputs {
		t := r.gs.Tensor(in)
		cls := eg.AddTerm(relation.GsLeaf(t))
		maps := r.inputMappings(in, rg)
		if len(maps) == 0 {
			return acc, nil, &RefinementError{Op: v, Tensor: t,
				InputMappings: fmt.Sprintf("  (no mapping recorded for input %q)", t.Name)}
		}
		for _, m := range maps {
			eg.Union(cls, eg.AddTerm(m))
			f.relateLeaves(m)
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

	if rg == rungWhole {
		f.relateAll()
	}

	// The walk goes a level a round: each pass folds every node whose
	// inputs are in T_rel, whose outputs then join T_rel (frontier.ready),
	// and saturates. It stops at the first pass that folds nothing, after
	// at most |G_d| rounds; the first round saturates the mappings alone
	// if nothing is ready.
	for iter := 0; ; iter++ {
		if err := ctx.Err(); err != nil {
			return acc, nil, fmt.Errorf("core: checking %q: %w", v.Label, err)
		}
		tr.iteration()
		progress, err := r.foldReady(eg, f, false, tr)
		if err != nil {
			return acc, nil, err
		}
		if progress || iter == 0 {
			acc.Merge(eg.Saturate(r.rules, satOpts))
		}
		if !progress {
			break
		}
	}

	// A run cancelled mid-saturation must report the cancellation, not
	// a refinement failure extracted from a truncated e-graph.
	if err := ctx.Err(); err != nil {
		return acc, nil, fmt.Errorf("core: checking %q: %w", v.Label, err)
	}

	// Step 4: the clean output relation R_v, once every output has a
	// mapping. Each output's list is its clean extraction, then, for a
	// G_s output, its output-restricted one: checkOp records them in that
	// order and caches them for replay.
	clean := eg.CleanCosts(allowGdLeaf)
	rv := make([][]*expr.Term, len(v.Outputs))
	for i, out := range v.Outputs {
		if rv[i] = clean.ExtractAll(outClasses[i], maxMappings); len(rv[i]) == 0 {
			return acc, nil, &RefinementError{Op: v, Tensor: r.gs.Tensor(out),
				InputMappings: r.renderInputMappings(v)}
		}
	}
	for i, out := range v.Outputs {
		if r.gs.IsOutput(out) {
			rv[i] = slices.Concat(rv[i], eg.CleanCosts(r.allowGdOutput).ExtractAll(outClasses[i], maxMappings))
		}
	}
	if egraph.InvariantChecks {
		r.auditRelated(v, f, rv)
	}
	return acc, rv, nil
}

// auditRelated checks the level rule against Listing 3's: every G_d
// leaf of v's extracted R_v must be in T_rel when the walk ends. A leaf
// outside it means a folded node's outputs were never related; it
// panics naming the operator and the tensor, which recoveredProcessOp
// turns into an engine fault.
func (r *runState) auditRelated(v *graph.Node, f *frontier, rv [][]*expr.Term) {
	for _, ts := range rv {
		for _, t := range ts {
			t.EachLeaf(func(tid int) {
				if id := relation.GdTensorID(tid); relation.IsGd(tid) && int(id) < f.nt && !f.related(id) {
					panic(fmt.Sprintf("core: %q extracted %s, whose leaf %q is outside T_rel", v.Label, t, r.gd.Tensor(id).Name))
				}
			})
		}
	}
}

// frontier is one Listing-3 walk's state over G_d: T_rel, the related
// tensors, and the nodes folded so far, as marks over G_d's dense
// tensor IDs and then its node IDs. An entry is set when it holds the
// walk's epoch, so a slab is reused across walks without clearing it:
// each newFrontier takes one from a pool and moves to a fresh epoch. The
// search, output resolution and reuse replay each walk G_d through one,
// so all three decide readiness alike.
type frontier struct {
	marks []uint32
	nt    int // G_d's tensor count: node n's mark is marks[nt+n.ID]
	epoch uint32
	pass  []*graph.Node // scratch: the nodes the current pass folded
}

// frontiers holds released frontier slabs; a slab grows to the largest
// G_d it has served.
var frontiers = sync.Pool{New: func() any { return new(frontier) }}

// newFrontier returns an empty frontier over r's G_d. Its holder hands
// it back with release once the walk is over; unlike an e-graph's, the
// release may be deferred: the marks of a walk a panic interrupted are
// stale at the next epoch.
func (r *runState) newFrontier() *frontier {
	f := frontiers.Get().(*frontier)
	f.nt = len(r.gd.Tensors)
	if n := f.nt + len(r.gd.Nodes); len(f.marks) < n {
		f.marks, f.epoch = make([]uint32, n), 0
	}
	if f.epoch++; f.epoch == 0 { // wrapped: forget every older walk's marks
		clear(f.marks)
		f.epoch = 1
	}
	return f
}

func (f *frontier) release() { frontiers.Put(f) }

// related reports whether G_d tensor id is in T_rel.
func (f *frontier) related(id graph.TensorID) bool { return f.marks[id] == f.epoch }

// relateAll puts every G_d tensor in T_rel: the walk folds all of G_d.
func (f *frontier) relateAll() {
	for i := range f.marks[:f.nt] {
		f.marks[i] = f.epoch
	}
}

func (f *frontier) isFolded(n *graph.Node) bool { return f.marks[f.nt+int(n.ID)] == f.epoch }

// markFolded marks n folded, and its outputs join T_rel.
func (f *frontier) markFolded(n *graph.Node) {
	f.marks[f.nt+int(n.ID)] = f.epoch
	for _, out := range n.Outputs {
		f.marks[out] = f.epoch
	}
}

// relate adds the G_d tensor leaf tid names to T_rel. A G_s leaf, or
// one outside G_d's tensor table, relates nothing: no G_d node consumes
// it.
func (f *frontier) relate(tid int) {
	if id := relation.GdTensorID(tid); relation.IsGd(tid) && int(id) < f.nt {
		f.marks[id] = f.epoch
	}
}

// relateLeaves adds every G_d tensor t's leaves name to T_rel.
func (f *frontier) relateLeaves(t *expr.Term) { t.EachLeaf(f.relate) }

// ready is the frontier's one readiness rule: it calls visit, in
// gdOrder, on every not-yet-folded node whose inputs are all in T_rel;
// once visit returns nil the node is folded and its outputs join T_rel.
// Cascading, they join at once, so a node later in the pass sees them
// and one pass folds everything reachable (output resolution). In level
// mode (the search) they join after the pass, so each pass folds one
// level of the walk. ready stops at visit's first error and reports
// whether any node was ready.
//
// Relating a folded node's outputs by rule is Listing 3's "grow T_rel
// from the clean expressions of v's outputs": every G_d leaf counts as
// clean and no lemma makes a leaf, so the only G_d leaves an operator's
// e-graph holds are its mappings' leaves (related from the start) and
// the folded nodes' inputs and outputs.
func (f *frontier) ready(gdOrder []*graph.Node, cascade bool, visit func(n *graph.Node) error) (bool, error) {
	f.pass = f.pass[:0]
nodes:
	for _, n := range gdOrder {
		if f.isFolded(n) {
			continue
		}
		for _, in := range n.Inputs {
			if !f.related(in) {
				continue nodes
			}
		}
		if err := visit(n); err != nil {
			return false, err
		}
		if cascade {
			f.markFolded(n)
		}
		f.pass = append(f.pass, n)
	}
	if !cascade {
		for _, n := range f.pass {
			f.markFolded(n)
		}
	}
	return len(f.pass) > 0, nil
}

// foldReady folds every node f.ready yields, cascading or a level at a
// time, and reports whether any was. A non-nil tr logs the folded
// nodes, in order.
func (r *runState) foldReady(eg *egraph.EGraph, f *frontier, cascade bool, tr *searchTrace) (bool, error) {
	return f.ready(r.gdOrder, cascade, func(n *graph.Node) error {
		if err := r.foldGdNode(eg, n); err != nil {
			return err
		}
		tr.fold(n)
		return nil
	})
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
	return relation.IsGd(tid) && r.gd.IsOutput(relation.GdTensorID(tid))
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
// An output no pass resolves is failed: the verdict names its producing
// operator, disproved when the searches reached fixpoint and
// inconclusive when one stopped on a budget.
func (r *runState) resolveOutputs(ctx context.Context, report *Report) (*relation.Relation, *OpVerdict, error) {
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
		m, failed, err := r.resolveOutput(ctx, o, report)
		if failed != nil || err != nil {
			return nil, failed, err
		}
		ro.AddAll(o, m)
	}
	return ro, nil, nil
}

func (r *runState) leavesAreGdOutputs(t *expr.Term) bool {
	all := true
	t.EachLeaf(func(tid int) { all = all && r.allowGdOutput(tid) })
	return all
}

func (r *runState) resolveOutput(ctx context.Context, o graph.TensorID, report *Report) ([]*expr.Term, *OpVerdict, error) {
	producer := r.gs.Tensor(o).Producer
	fail := func(kind VerdictKind) ([]*expr.Term, *OpVerdict, error) {
		var v *graph.Node
		if producer != graph.NoProducer {
			v = r.gs.Node(producer)
		} else {
			v = &graph.Node{Label: "(graph input)", Op: expr.OpIdentity}
		}
		re := &RefinementError{Op: v, Tensor: r.gs.Tensor(o),
			InputMappings: r.renderInputMappings(v)}
		return nil, &OpVerdict{Op: v, Kind: kind, Err: re}, nil
	}

	maps := r.rel.Get(o)
	if len(maps) == 0 {
		// No mapping at all for the output: no search ran, nothing to
		// escalate — the same classification checkOp gives Runs == 0.
		return fail(VerdictDisproved)
	}
	eg := r.newEGraph()
	out, resolveStats, err := r.resolveOutputIn(ctx, eg, o, maps)
	eg.Release()
	report.Stats.Merge(resolveStats)
	report.LiveStats.Merge(resolveStats)
	if err != nil {
		return nil, nil, err
	}
	if len(out) == 0 {
		if resolveStats.Saturated && r.producerSaturated(producer) {
			return fail(VerdictDisproved)
		}
		// The resolve search, or the producer's own that left o the
		// mappings it started from, stopped on a budget before fixpoint;
		// a mapping may exist beyond the limit, so don't call it a bug.
		return fail(VerdictInconclusive)
	}
	return out, nil, nil
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
	f := r.newFrontier()
	defer f.release()
	for _, m := range maps {
		eg.Union(cls, eg.AddTerm(m))
		f.relateLeaves(m)
	}
	eg.Rebuild()

	// One pass in G_d's topological order folds everything reachable: a
	// folded node's outputs join T_rel before any consumer is visited.
	if err := ctx.Err(); err != nil {
		return nil, egraph.Stats{}, fmt.Errorf("core: resolving output %q: %w", r.gs.Tensor(o).Name, err)
	}
	if _, err := r.foldReady(eg, f, true, nil); err != nil {
		return nil, egraph.Stats{}, err
	}
	satOpts := baseBudget()
	satOpts.Ctx = ctx
	satOpts.Compiled = r.compiled
	stats := eg.Saturate(r.rules, satOpts)
	if err := ctx.Err(); err != nil {
		return nil, stats, fmt.Errorf("core: resolving output %q: %w", r.gs.Tensor(o).Name, err)
	}
	return eg.CleanCosts(r.allowGdOutput).ExtractAll(eg.Find(cls), maxMappings), stats, nil
}
