// Package strategy implements the distribution strategies of §2.1 as a
// library of parallel layers — the role Megatron-LM's parallel modules
// play for the paper's evaluation. A strategy.Env wraps construction of
// the distributed graph G_d: it creates per-rank input shards or
// replicas, records the clean input relation R_i as it goes, and
// remembers how to derive concrete per-rank inputs from sequential
// inputs so differential tests can run both graphs on the same data.
package strategy

import (
	"fmt"

	"entangle/internal/expr"
	"entangle/internal/graph"
	"entangle/internal/numeric"
	"entangle/internal/relation"
	"entangle/internal/sym"
)

// DeriveKind says how a G_d input is produced from a G_s input.
type DeriveKind int

const (
	// DeriveReplicate copies the sequential tensor.
	DeriveReplicate DeriveKind = iota
	// DeriveShard takes shard Index of Count along Dim.
	DeriveShard
)

// Derivation records how one distributed input tensor is derived from
// a sequential input. The numeric splitter uses it.
type Derivation struct {
	GsInput string
	Kind    DeriveKind
	Dim     int
	Index   int
	Count   int
}

// Env accumulates a distributed implementation under construction.
type Env struct {
	Gs *graph.Graph
	B  *graph.Builder
	R  int // parallelism degree (TP=SP group size)
	Ri *relation.Relation

	Derivs map[string]Derivation // G_d input name → derivation

	// full tracks G_d tensors known to hold a complete (replicated or
	// gathered) value, so AllGatherSeq can reject gather-after-gather
	// compositions: gathering an already-full tensor type-checks (the
	// concat just grows the sequence dim) but is essentially always an
	// SP composition mistake, and randomized composers hit it.
	full map[graph.TensorID]bool
}

// NewEnv starts building a distributed implementation of gs with
// parallelism degree r. Degree 1 is legal and degenerates to the
// identity parallelization: Shard maps each input to a bare leaf and
// the collective helpers emit no collectives.
func NewEnv(gs *graph.Graph, name string, r int) *Env {
	e := &Env{
		Gs:     gs,
		B:      graph.NewBuilder(name, gs.Ctx.Clone()),
		R:      r,
		Ri:     relation.New(),
		Derivs: map[string]Derivation{},
		full:   map[graph.TensorID]bool{},
	}
	if r < 1 {
		e.failBuilder(fmt.Errorf("strategy: parallelism degree %d < 1", r))
	}
	return e
}

// MarkFull records that a G_d tensor holds a complete value (a full
// copy of some sequential tensor, not a shard or partial sum), for the
// gather-after-gather validation. Builders that construct collectives
// outside the Env helpers can use it to keep the layout tracking honest.
func (e *Env) MarkFull(ids ...graph.TensorID) {
	for _, id := range ids {
		e.full[id] = true
	}
}

// gsInput resolves a sequential input tensor by name.
func (e *Env) gsInput(name string) (*graph.Tensor, error) {
	t, ok := e.Gs.TensorByName(name)
	if !ok {
		return nil, fmt.Errorf("strategy: G_s has no tensor %q", name)
	}
	if t.Producer != graph.NoProducer {
		return nil, fmt.Errorf("strategy: G_s tensor %q is not an input", name)
	}
	return t, nil
}

// rankName prefixes a name with its rank, Megatron log style.
func rankName(r int, name string) string { return fmt.Sprintf("r%d/%s", r, name) }

// Replicate declares one distributed input per rank, each a full copy
// of the sequential input; R_i gets one mapping per replica.
func (e *Env) Replicate(gsName string) []graph.TensorID {
	t, err := e.gsInput(gsName)
	if err != nil {
		e.failBuilder(err)
		return make([]graph.TensorID, e.R)
	}
	out := make([]graph.TensorID, e.R)
	for r := 0; r < e.R; r++ {
		name := rankName(r, gsName)
		out[r] = e.B.Input(name, t.Shape.Clone())
		e.Derivs[name] = Derivation{GsInput: gsName, Kind: DeriveReplicate}
		if e.B.Err() == nil {
			gd, _ := e.B.Graph().TensorByName(name)
			e.Ri.Add(t.ID, relation.GdLeaf(gd))
		}
		e.full[out[r]] = true
	}
	return out
}

// Shared declares a single distributed input shared by all ranks (the
// usual representation for replicated weights captured once).
func (e *Env) Shared(gsName string) graph.TensorID {
	t, err := e.gsInput(gsName)
	if err != nil {
		e.failBuilder(err)
		return 0
	}
	id := e.B.Input(gsName, t.Shape.Clone())
	e.Derivs[gsName] = Derivation{GsInput: gsName, Kind: DeriveReplicate}
	if e.B.Err() == nil {
		gd, _ := e.B.Graph().TensorByName(gsName)
		e.Ri.Add(t.ID, relation.GdLeaf(gd))
	}
	e.full[id] = true
	return id
}

// Shard declares R distributed inputs, each an equal shard of the
// sequential input along dim; R_i gets the concat mapping.
func (e *Env) Shard(gsName string, dim int) []graph.TensorID {
	return e.ShardNamed(gsName, gsName, dim)
}

// ShardNamed is Shard with a custom per-rank base name.
func (e *Env) ShardNamed(gsName, baseName string, dim int) []graph.TensorID {
	t, err := e.gsInput(gsName)
	if err != nil {
		e.failBuilder(err)
		return make([]graph.TensorID, e.R)
	}
	if dim < 0 || dim >= len(t.Shape) {
		e.failBuilder(fmt.Errorf("strategy: shard dim %d out of range for %q", dim, gsName))
		return make([]graph.TensorID, e.R)
	}
	chunk, ok := t.Shape[dim].DivConst(int64(e.R))
	if !ok {
		e.failBuilder(fmt.Errorf("strategy: %q extent %s not divisible by %d", gsName, t.Shape[dim], e.R))
		return make([]graph.TensorID, e.R)
	}
	out := make([]graph.TensorID, e.R)
	leaves := make([]*expr.Term, e.R)
	for r := 0; r < e.R; r++ {
		sh := t.Shape.Clone()
		sh[dim] = chunk
		name := rankName(r, baseName)
		out[r] = e.B.Input(name, sh)
		e.Derivs[name] = Derivation{GsInput: gsName, Kind: DeriveShard, Dim: dim, Index: r, Count: e.R}
		if e.B.Err() == nil {
			gd, _ := e.B.Graph().TensorByName(name)
			leaves[r] = relation.GdLeaf(gd)
		}
	}
	if e.B.Err() == nil {
		// A degree-1 "shard" is the whole tensor: map it as a bare
		// leaf, not a one-piece concat. The concat form is equivalent
		// but not clean-simplest, and identity parallelizations should
		// produce identity relations.
		if e.R == 1 {
			e.Ri.Add(t.ID, leaves[0])
			e.full[out[0]] = true
		} else {
			e.Ri.Add(t.ID, expr.Concat(sym.Const(int64(dim)), leaves...))
		}
	}
	return out
}

func (e *Env) failBuilder(err error) { e.B.Fail(err) }

// GatherError is the typed rejection for gather-after-gather: an
// AllGatherSeq applied to a tensor already known to hold a full value.
// The resulting graph would type-check — concat just grows the
// sequence dim — but the composition is a strategy bug, so Build
// returns this error (retrievable with errors.As).
type GatherError struct {
	// Label is the gather's label.
	Label string
	// Tensor names the already-full input tensor.
	Tensor string
}

func (e *GatherError) Error() string {
	return fmt.Sprintf("strategy: %s: gather-after-gather: input %q already holds a full value", e.Label, e.Tensor)
}

// ReduceMode selects how a row-parallel linear combines partials.
type ReduceMode int

const (
	// ReduceAllReduce combines partial products with all-reduce (TP).
	ReduceAllReduce ReduceMode = iota
	// ReduceScatterSeq reduce-scatters over the sequence dim (SP).
	ReduceScatterSeq
	// ReduceNone omits the combine — the §6.2 bug-7 injection.
	ReduceNone
)

// ColumnParallelLinear multiplies each rank's activation with a column
// shard of the weight named wGsName: y_r = x_r · W_r, W split on its
// last dim. Outputs stay hidden-sharded.
func (e *Env) ColumnParallelLinear(label string, xs []graph.TensorID, wGsName string) []graph.TensorID {
	ws := e.Shard(wGsName, 1)
	out := make([]graph.TensorID, e.R)
	for r := 0; r < e.R; r++ {
		out[r] = e.B.MatMul(rankName(r, label), xs[r], ws[r])
	}
	return out
}

// RowParallelLinear multiplies each rank's hidden-sharded activation
// with a row shard of the weight, then combines the partial products
// according to mode.
func (e *Env) RowParallelLinear(label string, xs []graph.TensorID, wGsName string, mode ReduceMode) []graph.TensorID {
	ws := e.Shard(wGsName, 0)
	partials := make([]graph.TensorID, e.R)
	for r := 0; r < e.R; r++ {
		partials[r] = e.B.MatMul(rankName(r, label), xs[r], ws[r])
	}
	if e.R == 1 {
		// Degree-1: the single "partial" is the full product; every
		// reduce mode is the identity, so emit no collective.
		e.full[partials[0]] = true
		return partials
	}
	switch mode {
	case ReduceAllReduce:
		out := e.B.AllReduce(label+"/allreduce", partials...)
		e.MarkFull(out...)
		return out
	case ReduceScatterSeq:
		return e.B.ReduceScatter(label+"/reducescatter", 0, partials...)
	case ReduceNone:
		return partials
	}
	e.failBuilder(fmt.Errorf("strategy: unknown reduce mode %d", mode))
	return partials
}

// AllGatherSeq gathers sequence shards into full-sequence replicas on
// every rank (Megatron SP's g operator before column-parallel linears).
// At degree 1 it is the identity and emits no collective. Gathering a
// tensor already known to hold a full value (a replica, a previous
// gather, an all-reduce output) poisons the builder with *GatherError.
func (e *Env) AllGatherSeq(label string, xs []graph.TensorID) []graph.TensorID {
	for _, x := range xs {
		if e.full[x] {
			e.failBuilder(&GatherError{Label: label, Tensor: e.B.Graph().Tensor(x).Name})
			out := make([]graph.TensorID, len(xs))
			copy(out, xs)
			return out
		}
	}
	if e.R == 1 && len(xs) == 1 {
		e.full[xs[0]] = true
		out := []graph.TensorID{xs[0]}
		return out
	}
	out := e.B.AllGather(label, 0, xs...)
	e.MarkFull(out...)
	return out
}

// SplitInputs derives concrete per-rank inputs from sequential inputs
// using the recorded derivations. gsVals is keyed by G_s input name.
func (e *Env) SplitInputs(gsVals map[string]*numeric.Dense) (map[string]*numeric.Dense, error) {
	out := make(map[string]*numeric.Dense, len(e.Derivs))
	for name, d := range e.Derivs {
		src, ok := gsVals[d.GsInput]
		if !ok {
			return nil, fmt.Errorf("strategy: no sequential value for %q", d.GsInput)
		}
		switch d.Kind {
		case DeriveReplicate:
			out[name] = src.Clone()
		case DeriveShard:
			ext := src.Shape[d.Dim]
			if ext%d.Count != 0 {
				return nil, fmt.Errorf("strategy: extent %d not divisible by %d for %q", ext, d.Count, name)
			}
			chunk := ext / d.Count
			s, err := numeric.Slice(src, d.Dim, d.Index*chunk, (d.Index+1)*chunk)
			if err != nil {
				return nil, err
			}
			out[name] = s
		default:
			return nil, fmt.Errorf("strategy: unknown derivation for %q", name)
		}
	}
	return out, nil
}

// Build finalizes the distributed graph.
func (e *Env) Build() (*graph.Graph, error) { return e.B.Build() }
