package fuzz

import (
	"errors"
	"fmt"

	"entangle/internal/det"
	"entangle/internal/expr"
	"entangle/internal/graph"
	"entangle/internal/strategy"
	"entangle/internal/sym"
)

// stateKind is the distribution layout the composer tracks for every
// G_s tensor while it builds the distributed implementation.
type stateKind int

const (
	// stShared: one G_d tensor holds the full value, used by all ranks.
	stShared stateKind = iota
	// stReplicated: R G_d tensors, each holding the full value.
	stReplicated
	// stSharded: R G_d tensors, equal shards along dim.
	stSharded
	// stPartial: R G_d tensors whose elementwise sum is the value.
	stPartial
)

func (k stateKind) String() string {
	switch k {
	case stShared:
		return "shared"
	case stReplicated:
		return "replicated"
	case stSharded:
		return "sharded"
	case stPartial:
		return "partial"
	}
	return fmt.Sprintf("state(%d)", int(k))
}

// dval is the distributed value backing one G_s tensor: its layout and
// the G_d tensors that realize it (one for shared, R otherwise).
// fullIDs memoizes the materialized full-per-rank form.
type dval struct {
	kind    stateKind
	dim     int
	ids     []graph.TensorID
	fullIDs []graph.TensorID
}

// outBinding records how one G_s output is realized in G_d, which the
// numeric oracle needs to reconstruct the sequential value from the
// per-rank outputs.
type outBinding struct {
	gs   graph.TensorID
	kind stateKind
	dim  int
	ids  []graph.TensorID
}

// Case is one composed fuzz case: a plan, the graphs it built, and the
// strategy environment (whose R_i and derivations feed the checker and
// the numeric oracle).
type Case struct {
	Plan   Plan
	Defect *Defect // nil for the correct composition
	Gs     *graph.Graph
	Gd     *graph.Graph
	Env    *strategy.Env
	// Sites counts defect sites per class encountered while composing;
	// the injector samples from the correct build's census.
	Sites map[DefectClass]int

	outs []outBinding
}

// ErrSiteUnused reports an injection whose (class, site) never fired:
// the site census of the correct build and the injected rebuild
// diverged, which the composer's determinism contract forbids.
var ErrSiteUnused = errors.New("fuzz: defect site not reached during composition")

// composer walks G_s in topological (construction) order and emits a
// distributed implementation, tracking each tensor's layout. Every
// structural decision is one weighted pick through its chooser: Compose
// drives it with the plan-seeded splitmix64 stream, so a (plan, defect)
// pair rebuilds byte-identically, and Enumerate walks every sequence.
//
// Determinism contract: an injected defect may change what nodes are
// EMITTED, but never makes an extra decision, so the site indices
// counted by a correct build stay valid for injected rebuilds. The one
// sanctioned divergence is missing-register, which changes the
// downstream layout only after its own site fired.
type composer struct {
	ch      chooser
	gs      *graph.Graph
	env     *strategy.Env
	b       *graph.Builder
	R       int
	defect  *Defect
	applied bool
	sites   map[DefectClass]int
	states  map[graph.TensorID]*dval
	// intLike marks G_s tensors holding integer token ids (consumed as
	// the index operand of an embedding); value-corrupting injections
	// that could push indices out of range are suppressed on them.
	intLike map[graph.TensorID]bool
}

// chooser makes the composer's decisions: pick returns an index into
// weights, one entry per choice, each weight positive.
type chooser interface{ pick(weights []int) int }

// randomChooser draws Intn(sum of weights) and walks the weights in
// order: a choice of weight w owns w adjacent values of the draw.
type randomChooser struct{ rng *det.RNG }

func (r randomChooser) pick(weights []int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	n := r.rng.Intn(total)
	for i, w := range weights {
		if n < w {
			return i
		}
		n -= w
	}
	panic("fuzz: unreachable weighted pick")
}

// pathChooser replays path, extends it with first choices, and records
// each decision's arity (its weights are ignored).
type pathChooser struct {
	path    []int
	arities []int
}

func (c *pathChooser) pick(weights []int) int {
	i := len(c.arities)
	c.arities = append(c.arities, len(weights))
	if i == len(c.path) {
		c.path = append(c.path, 0)
	}
	return c.path[i]
}

// Compose builds plan p's distributed implementation, optionally with
// one injected defect. The returned case carries the graphs, the input
// relation, the ground truth, and the site census.
func Compose(p Plan, d *Defect) (*Case, error) {
	return compose(p, d, randomChooser{det.NewRNG(p.Seed)})
}

// Enumerate composes plan p once per distinct choice sequence of the
// composer, depth first, and hands each correct build to visit. The
// plan's seed still fixes its block parameters (buildChain's own
// stream); only the composer's decisions are walked. An error from a
// composition or from visit stops the walk and is returned, which is
// how a caller caps it.
func Enumerate(p Plan, visit func(*Case) error) error {
	return enumerate(p, func(cs *Case, _ *pathChooser) error { return visit(cs) })
}

// enumerate is Enumerate handing visit the chooser that built the case
// as well: its path and arities are valid until visit returns.
func enumerate(p Plan, visit func(*Case, *pathChooser) error) error {
	var path []int
	for {
		ch := &pathChooser{path: path}
		cs, err := compose(p, nil, ch)
		if err != nil {
			return err
		}
		if err := visit(cs, ch); err != nil {
			return err
		}
		// Odometer step: advance the deepest decision with room left and
		// let the next composition extend the path past it.
		path = ch.path
		i := len(path) - 1
		for i >= 0 && path[i]+1 >= ch.arities[i] {
			i--
		}
		if i < 0 {
			return nil
		}
		path[i]++
		path = path[:i+1]
	}
}

// compose is Compose with every decision made by ch.
func compose(p Plan, d *Defect, ch chooser) (*Case, error) {
	gs, err := BuildSequential(p)
	if err != nil {
		return nil, fmt.Errorf("fuzz: %s: G_s: %w", p, err)
	}
	env := strategy.NewEnv(gs, "gd", p.Degree)
	c := &composer{
		ch:      ch,
		gs:      gs,
		env:     env,
		b:       env.B,
		R:       p.Degree,
		defect:  d,
		sites:   map[DefectClass]int{},
		states:  map[graph.TensorID]*dval{},
		intLike: map[graph.TensorID]bool{},
	}
	for _, n := range gs.Nodes {
		if (n.Op == expr.OpEmbedding || n.Op == expr.OpEmbeddingShard) && len(n.Inputs) > 1 {
			c.intLike[n.Inputs[1]] = true
		}
	}
	for _, id := range gs.Inputs {
		c.declareInput(gs.Tensor(id))
	}
	for _, n := range gs.Nodes {
		if err := c.emit(n); err != nil {
			return nil, fmt.Errorf("fuzz: %s: %w", p, err)
		}
	}
	outs := make([]outBinding, 0, len(gs.Outputs))
	for _, o := range gs.Outputs {
		v := c.states[o]
		c.b.Output(v.ids...)
		outs = append(outs, outBinding{gs: o, kind: v.kind, dim: v.dim,
			ids: append([]graph.TensorID(nil), v.ids...)})
	}
	gd, err := env.Build()
	if err != nil {
		return nil, fmt.Errorf("fuzz: %s: G_d: %w", p, err)
	}
	if d != nil && !c.applied {
		return nil, fmt.Errorf("%w: %s in %s", ErrSiteUnused, d, p)
	}
	return &Case{Plan: p, Defect: d, Gs: gs, Gd: gd, Env: env, Sites: c.sites, outs: outs}, nil
}

// site counts one potential injection point of the given class and
// reports whether the active defect fires here.
func (c *composer) site(class DefectClass) bool {
	idx := c.sites[class]
	c.sites[class] = idx + 1
	if c.defect != nil && c.defect.Class == class && c.defect.Site == idx {
		c.applied = true
		return true
	}
	return false
}

// paddedOrPlain weighs the two idioms of gather and resolve: pick 0 is
// the padded gather (in resolve, the reduce-scatter) at weight 1, pick 1
// the plain all-gather (all-reduce) at weight 2.
var paddedOrPlain = []int{1, 2}

func rname(r int, label string) string { return fmt.Sprintf("r%d/%s", r, label) }

// declareInput chooses a placement for one G_s input: shared (one
// copy), replicated (per-rank copies), or sharded along a divisible
// dim. Shard candidates weigh double so compositions stay
// interesting. Shared placements are missing-register sites: the
// injected form registers an unused master copy and computes with
// unregistered per-rank working copies — the ZeRO-style registration
// bug where the gathered weights never made it into R_i.
func (c *composer) declareInput(t *graph.Tensor) {
	const (
		kShared = iota
		kReplicate
		kShard
	)
	type cand struct{ kind, dim int }
	cands := []cand{{kShared, 0}, {kReplicate, 0}}
	weights := []int{2, 1}
	for d := range t.Shape {
		if ext, ok := t.Shape[d].IsConst(); ok && ext%int64(c.R) == 0 && ext >= int64(c.R) {
			cands = append(cands, cand{kShard, d})
			weights = append(weights, 2)
		}
	}
	pick := cands[c.ch.pick(weights)]
	switch pick.kind {
	case kShared:
		if c.site(DefectMissingRegister) {
			c.env.Shared(t.Name) // registered master copy, never consumed
			ids := make([]graph.TensorID, c.R)
			for r := 0; r < c.R; r++ {
				name := rname(r, t.Name)
				ids[r] = c.b.Input(name, t.Shape.Clone())
				c.env.Derivs[name] = strategy.Derivation{GsInput: t.Name, Kind: strategy.DeriveReplicate}
			}
			c.env.MarkFull(ids...)
			c.states[t.ID] = &dval{kind: stReplicated, ids: ids}
			return
		}
		id := c.env.Shared(t.Name)
		c.states[t.ID] = &dval{kind: stShared, ids: []graph.TensorID{id}}
	case kReplicate:
		ids := c.env.Replicate(t.Name)
		c.states[t.ID] = &dval{kind: stReplicated, ids: ids}
	case kShard:
		ids := c.env.Shard(t.Name, pick.dim)
		c.states[t.ID] = &dval{kind: stSharded, dim: pick.dim, ids: ids}
	}
}

func (c *composer) allShared(n *graph.Node) bool {
	for _, in := range n.Inputs {
		if c.states[in].kind != stShared {
			return false
		}
	}
	return true
}

// emitShared re-emits n once on the shared copies; the output keeps
// the sequential tensor's name.
func (c *composer) emitShared(n *graph.Node) {
	ins := make([]graph.TensorID, len(n.Inputs))
	for i, in := range n.Inputs {
		ins[i] = c.states[in].ids[0]
	}
	out := c.b.Op(n.Op, n.Label, c.gs.Tensor(n.Outputs[0]).Name, n.Str, n.Ints, ins...)
	c.states[n.Outputs[0]] = &dval{kind: stShared, ids: []graph.TensorID{out}}
}

// perRank emits n once per rank with the given per-rank input columns
// and records the output layout.
func (c *composer) perRank(n *graph.Node, kind stateKind, dim int, ins ...[]graph.TensorID) {
	out := make([]graph.TensorID, c.R)
	for r := 0; r < c.R; r++ {
		ri := make([]graph.TensorID, len(ins))
		for i := range ins {
			ri[i] = ins[i][r]
		}
		lbl := rname(r, n.Label)
		out[r] = c.b.Op(n.Op, lbl, lbl+".out", n.Str, n.Ints, ri...)
	}
	c.states[n.Outputs[0]] = &dval{kind: kind, dim: dim, ids: out}
}

// full materializes (and memoizes) per-rank complete copies of the
// value backing gsID, emitting the collectives this requires. The
// materialization paths host most collective-misuse defect sites.
func (c *composer) full(gsID graph.TensorID) []graph.TensorID {
	v := c.states[gsID]
	if v.fullIDs != nil {
		return v.fullIDs
	}
	name := c.gs.Tensor(gsID).Name
	switch v.kind {
	case stShared:
		ids := make([]graph.TensorID, c.R)
		for r := range ids {
			ids[r] = v.ids[0]
		}
		v.fullIDs = ids
	case stReplicated:
		if !c.intLike[gsID] && c.site(DefectDoubleReduce) {
			// Reduce a value that is already complete on every rank:
			// each copy becomes R times the sequential value.
			v.fullIDs = c.b.AllReduce(name+"/overreduce", v.ids...)
		} else {
			v.fullIDs = v.ids
		}
	case stSharded:
		v.fullIDs = c.gather(name, v)
	case stPartial:
		v.fullIDs = c.resolve(name, v)
	}
	c.env.MarkFull(v.fullIDs...)
	return v.fullIDs
}

// gather assembles full copies from shards, either with a plain
// all-gather (gather-order site: shards reassembled in rotated rank
// order) or, one pick in three, with the padded gather-then-strip
// idiom (pad-slice site: the strip slices use the unpadded stride).
func (c *composer) gather(name string, v *dval) []graph.TensorID {
	dim := int64(v.dim)
	chunk, chunkOK := c.b.Graph().Tensor(v.ids[0]).Shape[v.dim].IsConst()
	if !chunkOK || c.ch.pick(paddedOrPlain) == 1 {
		ins := v.ids
		if c.site(DefectGatherOrder) {
			rot := make([]graph.TensorID, len(ins))
			copy(rot, ins[1:])
			rot[len(rot)-1] = ins[0]
			ins = rot
		}
		return c.b.AllGather(name+"/gather", dim, ins...)
	}
	// Padded gather (the SeedMoE idiom): pad every shard, gather, then
	// strip the padding back out rank-locally.
	const pad = 2
	padded := make([]graph.TensorID, c.R)
	for r := 0; r < c.R; r++ {
		padded[r] = c.b.Pad(rname(r, name+"/pad"), v.ids[r], sym.Const(dim), sym.Const(0), sym.Const(pad))
	}
	gg := c.b.AllGather(name+"/gather", dim, padded...)
	stride := chunk + pad
	if c.site(DefectPadSlice) {
		stride = chunk // forgets the padding: keeps pad rows, drops data rows
	}
	out := make([]graph.TensorID, c.R)
	for r := 0; r < c.R; r++ {
		pieces := make([]graph.TensorID, c.R)
		for i := 0; i < c.R; i++ {
			begin := int64(i) * stride
			pieces[i] = c.b.Slice(rname(r, fmt.Sprintf("%s/unpad%d", name, i)), gg[r],
				sym.Const(dim), sym.Const(begin), sym.Const(begin+chunk))
		}
		out[r] = c.b.Concat(rname(r, name+"/rebuild"), sym.Const(dim), pieces...)
	}
	return out
}

// resolve turns partial sums into full copies: either a direct
// all-reduce (missing-collective site: the reduce is skipped and ranks
// consume their own partial) or, one pick in three, a reduce-scatter
// along dim 0 followed by a gather (scatter-no-reduce site: each rank
// slices its own partial locally instead of reduce-scattering).
func (c *composer) resolve(name string, v *dval) []graph.TensorID {
	sh := c.b.Graph().Tensor(v.ids[0]).Shape
	var ext int64
	extOK := false
	if len(sh) > 0 {
		ext, extOK = sh[0].IsConst()
	}
	canScatter := extOK && ext%int64(c.R) == 0 && ext >= int64(c.R)
	if !canScatter || c.ch.pick(paddedOrPlain) == 1 {
		if c.site(DefectMissingCollective) {
			return v.ids
		}
		return c.b.AllReduce(name+"/allreduce", v.ids...)
	}
	chunk := ext / int64(c.R)
	var shards []graph.TensorID
	if c.site(DefectScatterNoReduce) {
		shards = make([]graph.TensorID, c.R)
		for r := 0; r < c.R; r++ {
			begin := int64(r) * chunk
			shards[r] = c.b.Slice(rname(r, name+"/localslice"), v.ids[r],
				sym.Const(0), sym.Const(begin), sym.Const(begin+chunk))
		}
	} else {
		shards = c.b.ReduceScatter(name+"/reducescatter", 0, v.ids...)
	}
	sv := &dval{kind: stSharded, dim: 0, ids: shards}
	return c.gather(name+"/rs", sv)
}

// emit dispatches one G_s operator to its strategy rule.
func (c *composer) emit(n *graph.Node) error {
	if len(n.Outputs) != 1 {
		return fmt.Errorf("composer: multi-output G_s operator %q unsupported", n.Label)
	}
	if c.allShared(n) {
		c.emitShared(n)
		return nil
	}
	switch n.Op {
	case expr.OpMatMul:
		c.emitMatMul(n)
	case expr.OpAdd, expr.OpSub:
		c.emitElementwise(n, true)
	case expr.OpMul, expr.OpDiv:
		c.emitElementwise(n, false)
	case expr.OpScale:
		v := c.states[n.Inputs[0]]
		c.perRank(n, v.kind, v.dim, v.ids) // scale is linear: preserves any layout
	case expr.OpUnary, expr.OpIdentity:
		v := c.states[n.Inputs[0]]
		if v.kind == stSharded {
			c.perRank(n, stSharded, v.dim, v.ids)
		} else {
			c.perRank(n, stReplicated, 0, c.full(n.Inputs[0]))
		}
	case expr.OpSoftmax:
		c.emitSoftmax(n)
	case expr.OpReduceSum:
		c.emitReduceSum(n)
	case expr.OpRMSNorm, expr.OpLayerNorm:
		c.emitNorm(n)
	case expr.OpRoPE:
		c.emitRoPE(n)
	case expr.OpAttention:
		c.emitAttention(n)
	case expr.OpEmbedding:
		c.emitEmbedding(n)
	case expr.OpRouter:
		c.emitRouter(n)
	case expr.OpAuxLoss:
		c.emitAuxLoss(n)
	case expr.OpMSELoss:
		c.emitMSELoss(n)
	case expr.OpSquaredError:
		c.emitSqErr(n)
	default:
		c.emitFallback(n)
	}
	return nil
}

// emitFallback is the universal rule: materialize every input full and
// replicate the computation. Legal for any operator.
func (c *composer) emitFallback(n *graph.Node) {
	ins := make([][]graph.TensorID, len(n.Inputs))
	for i, in := range n.Inputs {
		ins[i] = c.full(in)
	}
	c.perRank(n, stReplicated, 0, ins...)
}

func (c *composer) emitMatMul(n *graph.Node) {
	a, w := n.Inputs[0], n.Inputs[1]
	va, vw := c.states[a], c.states[w]
	rank2 := len(c.gs.Tensor(a).Shape) == 2 && len(c.gs.Tensor(w).Shape) == 2
	const (
		ruleLocal    = iota // full × full per rank (ZeRO gather when w is sharded)
		ruleRowSplit        // batch-sharded activation × full weight
		ruleColumn          // full activation × column-sharded weight (TP column)
		ruleRow             // contraction-sharded both sides → partial (TP row)
	)
	rules, weights := []int{ruleLocal}, []int{1}
	if rank2 && va.kind == stSharded && va.dim == 0 {
		rules, weights = append(rules, ruleRowSplit), append(weights, 2)
	}
	if rank2 && vw.kind == stSharded && vw.dim == 1 {
		rules, weights = append(rules, ruleColumn), append(weights, 2)
	}
	if rank2 && va.kind == stSharded && va.dim == 1 && vw.kind == stSharded && vw.dim == 0 {
		rules, weights = append(rules, ruleRow), append(weights, 3)
	}
	switch rules[c.ch.pick(weights)] {
	case ruleLocal:
		c.perRank(n, stReplicated, 0, c.full(a), c.full(w))
	case ruleRowSplit:
		c.perRank(n, stSharded, 0, va.ids, c.full(w))
	case ruleColumn:
		c.perRank(n, stSharded, 1, c.full(a), vw.ids)
	case ruleRow:
		c.perRank(n, stPartial, 0, va.ids, vw.ids)
	}
}

// emitElementwise handles binary pointwise operators. linear permits
// the partial+partial rule (sums of partials are partials of sums).
func (c *composer) emitElementwise(n *graph.Node, linear bool) {
	a, b := n.Inputs[0], n.Inputs[1]
	va, vb := c.states[a], c.states[b]
	switch {
	case va.kind == stSharded && vb.kind == stSharded && va.dim == vb.dim:
		c.perRank(n, stSharded, va.dim, va.ids, vb.ids)
	case linear && va.kind == stPartial && vb.kind == stPartial:
		c.perRank(n, stPartial, 0, va.ids, vb.ids)
	default:
		c.perRank(n, stReplicated, 0, c.full(a), c.full(b))
	}
}

func (c *composer) emitSoftmax(n *graph.Node) {
	dim := intConst(n.Ints[0])
	v := c.states[n.Inputs[0]]
	if v.kind == stSharded && int64(v.dim) != dim {
		c.perRank(n, stSharded, v.dim, v.ids)
		return
	}
	c.perRank(n, stReplicated, 0, c.full(n.Inputs[0]))
}

func (c *composer) emitReduceSum(n *graph.Node) {
	dim := intConst(n.Ints[0])
	v := c.states[n.Inputs[0]]
	switch {
	case v.kind == stSharded && int64(v.dim) == dim:
		// Reducing over the sharded dim: per-rank sums are partials.
		c.perRank(n, stPartial, 0, v.ids)
	case v.kind == stSharded:
		c.perRank(n, stSharded, v.dim, v.ids)
	default:
		c.perRank(n, stReplicated, 0, c.full(n.Inputs[0]))
	}
}

// emitNorm handles rmsnorm/layernorm (normalizing over the last dim):
// a shard along any earlier dim stays sharded, anything else falls
// back to replication. Weight and bias are materialized full.
func (c *composer) emitNorm(n *graph.Node) {
	x := n.Inputs[0]
	vx := c.states[x]
	last := len(c.gs.Tensor(x).Shape) - 1
	params := make([][]graph.TensorID, 0, 2)
	for _, p := range n.Inputs[1:] {
		params = append(params, c.full(p))
	}
	if vx.kind == stSharded && vx.dim != last {
		c.perRank(n, stSharded, vx.dim, append([][]graph.TensorID{vx.ids}, params...)...)
		return
	}
	c.perRank(n, stReplicated, 0, append([][]graph.TensorID{c.full(x)}, params...)...)
}

// emitRoPE: a sequence-sharded activation keeps its shard and slices
// the matching rows out of the (full) rotary tables — the rope-offset
// site omits the rank offset so every rank rotates with rank 0's rows.
func (c *composer) emitRoPE(n *graph.Node) {
	x, cos, sin := n.Inputs[0], n.Inputs[1], n.Inputs[2]
	vx := c.states[x]
	chunk, chunkOK := int64(0), false
	if vx.kind == stSharded && vx.dim == 0 {
		chunk, chunkOK = c.b.Graph().Tensor(vx.ids[0]).Shape[0].IsConst()
	}
	if !chunkOK {
		c.emitFallback(n)
		return
	}
	cosF, sinF := c.full(cos), c.full(sin)
	drop := c.site(DefectRoPEOffset)
	out := make([]graph.TensorID, c.R)
	for r := 0; r < c.R; r++ {
		begin := int64(r) * chunk
		if drop {
			begin = 0
		}
		lbl := rname(r, n.Label)
		cosR := c.b.Slice(lbl+"/cos", cosF[r], sym.Const(0), sym.Const(begin), sym.Const(begin+chunk))
		sinR := c.b.Slice(lbl+"/sin", sinF[r], sym.Const(0), sym.Const(begin), sym.Const(begin+chunk))
		out[r] = c.b.RoPE(lbl, vx.ids[r], cosR, sinR)
	}
	c.states[n.Outputs[0]] = &dval{kind: stSharded, dim: 0, ids: out}
}

func (c *composer) emitAttention(n *graph.Node) {
	q, k, v := n.Inputs[0], n.Inputs[1], n.Inputs[2]
	vq, vk, vv := c.states[q], c.states[k], c.states[v]
	heads := intConst(n.Ints[0])
	if vq.kind == stSharded && vq.dim == 1 && vk.kind == stSharded && vk.dim == 1 &&
		vv.kind == stSharded && vv.dim == 1 && heads%int64(c.R) == 0 {
		// Head-parallel: each rank attends over its own head group.
		out := make([]graph.TensorID, c.R)
		for r := 0; r < c.R; r++ {
			out[r] = c.b.Attention(rname(r, n.Label), vq.ids[r], vk.ids[r], vv.ids[r], heads/int64(c.R))
		}
		c.states[n.Outputs[0]] = &dval{kind: stSharded, dim: 1, ids: out}
		return
	}
	if vq.kind == stSharded && vq.dim == 0 {
		// Query-sequence split: queries stay sharded, keys/values full.
		c.perRank(n, stSharded, 0, vq.ids, c.full(k), c.full(v))
		return
	}
	c.emitFallback(n)
}

func (c *composer) emitEmbedding(n *graph.Node) {
	table, ids := n.Inputs[0], n.Inputs[1]
	vt, vi := c.states[table], c.states[ids]
	const (
		ruleLocal  = iota // full table × full ids per rank
		ruleSeq           // sequence-sharded ids
		ruleHidden        // hidden-sharded table
		ruleVocab         // vocab-sharded table → partial lookups
	)
	rules, weights := []int{ruleLocal}, []int{1}
	if vi.kind == stSharded && vi.dim == 0 {
		rules, weights = append(rules, ruleSeq), append(weights, 2)
	}
	if vt.kind == stSharded && vt.dim == 1 {
		rules, weights = append(rules, ruleHidden), append(weights, 2)
	}
	chunkV, vOK := int64(0), false
	if vt.kind == stSharded && vt.dim == 0 {
		chunkV, vOK = c.b.Graph().Tensor(vt.ids[0]).Shape[0].IsConst()
		if vOK {
			rules, weights = append(rules, ruleVocab), append(weights, 2)
		}
	}
	outLast := len(c.gs.Tensor(n.Outputs[0]).Shape) - 1
	switch rules[c.ch.pick(weights)] {
	case ruleLocal:
		c.perRank(n, stReplicated, 0, c.full(table), c.full(ids))
	case ruleSeq:
		c.perRank(n, stSharded, 0, c.full(table), vi.ids)
	case ruleHidden:
		c.perRank(n, stSharded, outLast, vt.ids, c.full(ids))
	case ruleVocab:
		idsF := c.full(ids)
		out := make([]graph.TensorID, c.R)
		for r := 0; r < c.R; r++ {
			out[r] = c.b.EmbeddingShard(rname(r, n.Label), vt.ids[r], idsF[r], sym.Const(int64(r)*chunkV))
		}
		c.states[n.Outputs[0]] = &dval{kind: stPartial, ids: out}
	}
}

func (c *composer) emitRouter(n *graph.Node) {
	x, w := n.Inputs[0], n.Inputs[1]
	vx := c.states[x]
	if vx.kind == stSharded && vx.dim == 0 {
		c.perRank(n, stSharded, 0, vx.ids, c.full(w))
		return
	}
	c.emitFallback(n)
}

// emitAuxLoss: a token-sharded probability tensor yields per-rank aux
// losses scaled by 1/R whose sum is the sequential loss — the
// auxloss-scale site drops the scale (paper bug 2).
func (c *composer) emitAuxLoss(n *graph.Node) {
	v := c.states[n.Inputs[0]]
	if v.kind != stSharded || v.dim != 0 {
		c.emitFallback(n)
		return
	}
	drop := c.site(DefectAuxLossScale)
	out := make([]graph.TensorID, c.R)
	for r := 0; r < c.R; r++ {
		lbl := rname(r, n.Label)
		aux := c.b.AuxLoss(lbl, v.ids[r])
		if !drop {
			aux = c.b.Scale(lbl+"/scale", aux, 1, int64(c.R))
		}
		out[r] = aux
	}
	c.states[n.Outputs[0]] = &dval{kind: stPartial, ids: out}
}

// emitMSELoss: batch-sharded pred/target yield per-rank MSE scaled by
// 1/R — the accum-scale site drops the scale (paper bug 6, unscaled
// gradient accumulation).
func (c *composer) emitMSELoss(n *graph.Node) {
	p, t := n.Inputs[0], n.Inputs[1]
	vp, vt := c.states[p], c.states[t]
	if vp.kind != stSharded || vp.dim != 0 || vt.kind != stSharded || vt.dim != 0 {
		c.emitFallback(n)
		return
	}
	drop := c.site(DefectAccumScale)
	out := make([]graph.TensorID, c.R)
	for r := 0; r < c.R; r++ {
		lbl := rname(r, n.Label)
		m := c.b.MSELoss(lbl, vp.ids[r], vt.ids[r])
		if !drop {
			m = c.b.Scale(lbl+"/scale", m, 1, int64(c.R))
		}
		out[r] = m
	}
	c.states[n.Outputs[0]] = &dval{kind: stPartial, ids: out}
}

// emitSqErr: batch-sharded squared error sums across ranks unscaled.
func (c *composer) emitSqErr(n *graph.Node) {
	p, t := n.Inputs[0], n.Inputs[1]
	vp, vt := c.states[p], c.states[t]
	if vp.kind == stSharded && vp.dim == 0 && vt.kind == stSharded && vt.dim == 0 {
		c.perRank(n, stPartial, 0, vp.ids, vt.ids)
		return
	}
	c.emitFallback(n)
}

func intConst(e sym.Expr) int64 {
	v, _ := e.IsConst()
	return v
}
