// Package entangle is the public API of ENTANGLE-Go, a reproduction of
// "It Takes Two to Entangle" (ASPLOS 2026): a static checker that
// proves model refinement — that a distributed ML model implementation
// G_d's outputs can be cleanly reconstructed into the sequential
// specification G_s's outputs — by iterative term rewriting over
// e-graphs.
//
// The typical flow:
//
//	gs := … // sequential computation graph (entangle.NewBuilder)
//	gd := … // distributed implementation   (entangle.NewBuilder)
//	ri := entangle.NewRelation()
//	ri.Add(gsInput, entangle.Concat1(0, shard0, shard1)) // input relation
//
//	report, err := entangle.NewChecker(entangle.CheckerOptions{}).Check(gs, gd, ri)
//	if err != nil {
//	    var re *entangle.RefinementError
//	    if errors.As(err, &re) {
//	        // re.Op names the sequential operator that could not be
//	        // mapped — the bug-localization output of the paper's §6.2.
//	    }
//	}
//	// report.OutputRelation maps every G_s output to clean expressions
//	// over G_d outputs (concat / slice / transpose / sum only).
//
// Graphs can also arrive from the JSON interchange format
// (entangle.ReadGraph) or the HLO-flavoured text format
// (entangle.ParseHLO), mirroring the paper's TorchDynamo and XLA
// capture paths.
package entangle

import (
	"io"

	"entangle/internal/core"
	"entangle/internal/expr"
	"entangle/internal/graph"
	"entangle/internal/hlo"
	"entangle/internal/lemmas"
	"entangle/internal/relation"
	"entangle/internal/shape"
	"entangle/internal/sym"
	"entangle/internal/vcache"
)

// Core graph types.
type (
	// Graph is a computation graph: operators as vertices, tensors as
	// edges, with distinguished inputs and outputs.
	Graph = graph.Graph
	// Builder constructs graphs fluently with shape inference.
	Builder = graph.Builder
	// Tensor is one edge of a computation graph.
	Tensor = graph.Tensor
	// Node is one operator application.
	Node = graph.Node
	// TensorID identifies a tensor within one graph.
	TensorID = graph.TensorID
	// Shape is a symbolic tensor shape.
	Shape = shape.Shape
	// SymExpr is a linear symbolic integer expression.
	SymExpr = sym.Expr
	// SymContext holds assumptions about symbolic scalars.
	SymContext = sym.Context
)

// Checking types.
type (
	// Checker verifies model refinement.
	Checker = core.Checker
	// CheckerOptions tunes the checker; the zero value is the
	// evaluation default.
	CheckerOptions = core.Options
	// Report is a successful check's result.
	Report = core.Report
	// RefinementError localizes a detected bug to a G_s operator.
	RefinementError = core.RefinementError
	// OpVerdict classifies one operator's outcome (Report.Verdicts).
	OpVerdict = core.OpVerdict
	// VerdictKind is the verdict lattice: refined, disproved,
	// inconclusive, engine-fault, skipped.
	VerdictKind = core.VerdictKind
	// InconclusiveError reports a check stopped by its budget before
	// refinement could be proved or disproved; it unwraps to the final
	// attempt's *RefinementError.
	InconclusiveError = core.InconclusiveError
	// EngineFaultError reports a panic recovered during one operator's
	// check, with the operator identity and stack.
	EngineFaultError = core.EngineFaultError
	// Expectation is a §4.4 user expectation on the refinement.
	Expectation = core.Expectation
	// ExpectationError reports a violated user expectation.
	ExpectationError = core.ExpectationError
	// Plan is a diff's plan (DiffPlan): one disposition per operator of
	// the edited G_s, in topological order, serializable.
	Plan = core.Plan
	// PlanOp is one operator's planned treatment.
	PlanOp = core.PlanOp
	// Disposition is a diff plan's per-operator decision: re-check
	// because the cone changed there, re-check because an upstream
	// cone changed, or skip as provably unchanged.
	Disposition = core.Disposition
	// DeltaReport is the outcome of a diff-aware incremental
	// re-verification (Checker.DiffCheck).
	DeltaReport = core.DeltaReport
	// DeltaOp is one re-checked operator's delta entry.
	DeltaOp = core.DeltaOp
	// Relation maps G_s tensors to clean expressions over G_d tensors.
	Relation = relation.Relation
	// Term is a symbolic tensor expression.
	Term = expr.Term
	// LemmaRegistry is the rewrite-lemma library.
	LemmaRegistry = lemmas.Registry
	// VerdictCache is the content-addressed verdict cache consulted via
	// CheckerOptions.Cache: operators whose fingerprint matches a prior
	// run replay the stored verdict instead of re-saturating.
	VerdictCache = vcache.Cache
	// VerdictCacheConfig says where a VerdictCache keeps its verdicts:
	// a directory of append-only segments, or memory only. The
	// in-memory LRU's size is fixed (vcache.DefaultMaxEntries).
	VerdictCacheConfig = vcache.Config
	// VerdictStore is the cache interface CheckerOptions.Cache accepts:
	// a single-node *VerdictCache or a fleet-routing cluster cache
	// (internal/cluster) both satisfy it.
	VerdictStore = core.VerdictStore
)

// NewBuilder starts a graph with the given name; ctx may be nil.
func NewBuilder(name string, ctx *SymContext) *Builder { return graph.NewBuilder(name, ctx) }

// NewChecker builds a refinement checker.
func NewChecker(opts CheckerOptions) *Checker { return core.NewChecker(opts) }

// Verdict kinds (see VerdictKind).
const (
	VerdictRefined      = core.VerdictRefined
	VerdictDisproved    = core.VerdictDisproved
	VerdictInconclusive = core.VerdictInconclusive
	VerdictEngineFault  = core.VerdictEngineFault
	VerdictSkipped      = core.VerdictSkipped
)

// Diff plan dispositions (see Disposition).
const (
	DispCheck           = core.DispCheck
	DispSkipUnchanged   = core.DispSkipUnchanged
	DispTaintedUpstream = core.DispTaintedUpstream
)

// DiffPlan compares an edited sequential graph against its predecessor
// and plans the minimal re-check: unchanged-cone operators are skipped
// (their cached verdicts still hold), changed-cone operators are
// re-checked. Checker.DiffCheck executes such a plan end to end.
func DiffPlan(oldGs *Graph, oldRi *Relation, newGs *Graph, newRi *Relation, gd *Graph) (*Plan, error) {
	return core.DiffPlan(oldGs, oldRi, newGs, newRi, gd)
}

// NewRelation returns an empty relation.
func NewRelation() *Relation { return relation.New() }

// DefaultLemmas builds the full lemma library (Figure 6's c/g/v
// families).
func DefaultLemmas() *LemmaRegistry { return lemmas.Default() }

// OpenVerdictCache opens (creating if needed) a verdict cache; one
// cache may be shared across checkers and concurrent Check calls. A
// cache on a directory holds its segments open until its Close.
func OpenVerdictCache(cfg VerdictCacheConfig) (*VerdictCache, error) { return vcache.Open(cfg) }

// GdLeaf references a distributed-graph tensor inside a relation
// expression.
func GdLeaf(t *Tensor) *Term { return relation.GdLeaf(t) }

// GsLeaf references a sequential-graph tensor inside an expectation
// expression.
func GsLeaf(t *Tensor) *Term { return relation.GsLeaf(t) }

// Concat1 builds a clean concat expression along dim.
func Concat1(dim int64, args ...*Term) *Term { return expr.ConcatI(dim, args...) }

// SumOf builds a clean sum expression.
func SumOf(args ...*Term) *Term { return expr.Sum(args...) }

// SliceOf builds a clean slice expression.
func SliceOf(t *Term, dim, begin, end int64) *Term { return expr.SliceI(t, dim, begin, end) }

// ShapeOf builds a constant shape.
func ShapeOf(dims ...int64) Shape { return shape.Of(dims...) }

// Sym returns the symbolic variable with the given name.
func Sym(name string) SymExpr { return sym.Var(sym.Symbol(name)) }

// SymConst returns a constant symbolic expression.
func SymConst(v int64) SymExpr { return sym.Const(v) }

// NewSymContext returns an empty assumption context.
func NewSymContext() *SymContext { return sym.NewContext() }

// ReadGraph decodes a graph from the JSON interchange format.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// WriteGraph encodes a graph to the JSON interchange format.
func WriteGraph(w io.Writer, g *Graph) error { return g.Write(w) }

// ParseHLO decodes a graph from the HLO-flavoured text format.
func ParseHLO(r io.Reader) (*Graph, error) { return hlo.Parse(r) }

// PrintHLO encodes a graph in the HLO-flavoured text format.
func PrintHLO(w io.Writer, g *Graph) error { return hlo.Print(w, g) }
