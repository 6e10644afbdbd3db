// Package fingerprint computes canonical, content-addressed SHA-256
// identities for ENTANGLE's unit of checking: one G_s operator plus
// everything its verdict is a function of — the operator's upstream
// cone (structure, shapes, attributes), the input-relation entries its
// cone consumes, and the ambient configuration (distributed graph,
// lemma registry, saturation budget, checker version). The verdict
// cache (internal/vcache) keys on these hashes, so two properties are
// load-bearing:
//
//   - Stability. The hash must be identical for structurally equal
//     inputs however they were produced: JSON field order, node and
//     tensor renames, tensor/node ID renumbering (a WriteGraph →
//     ReadGraph round trip renumbers both), and Go map iteration order
//     must all be invisible. Every encoder below therefore works from
//     structure (producer links, positions in the declared input list)
//     and sorts anything whose source order is not semantic. Names and
//     labels are display metadata and are never hashed.
//
//   - Sensitivity. Anything that could change a verdict must change
//     the hash: an added/removed lemma (via the registry fingerprint),
//     a budget or option change (via the options encoding), a shape,
//     attribute, or wiring change anywhere in the upstream cone, any
//     change to G_d, and any change to the relevant input-relation
//     entries.
//
// The canonical byte encodings are exported (CanonicalTerm, and
// sym.Expr.Key for a symbolic scalar; the cone/graph encoders write
// through them) so any graph producer can reproduce a hash without this
// package's Go values.
package fingerprint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"entangle/internal/expr"
	"entangle/internal/graph"
	"entangle/internal/relation"
	"entangle/internal/shape"
	"entangle/internal/sym"
)

// Hash is a 32-byte SHA-256 content address.
type Hash [sha256.Size]byte

// Hex renders the hash as lowercase hex.
func (h Hash) Hex() string { return hex.EncodeToString(h[:]) }

// sum hashes a canonical byte string.
func sum(data []byte) Hash { return sha256.Sum256(data) }

// appendShape appends the canonical encoding of a shape: "[k1,k2,…]"
// over its dims' sym.Expr keys, which are normalized (constant first,
// symbols sorted) and parseable by sym.Parse.
func appendShape(b []byte, s shape.Shape) []byte {
	b = append(b, '[')
	b = appendExprs(b, s)
	return append(b, ']')
}

// appendExprs appends the canonical encodings of es, comma-separated.
func appendExprs(b []byte, es []sym.Expr) []byte {
	for i, e := range es {
		if i > 0 {
			b = append(b, ',')
		}
		b = e.AppendKey(b)
	}
	return b
}

// GdIndex assigns every tensor of one graph a canonical ordinal: the
// declared inputs in order, then each node's outputs in topological
// order. Raw tensor IDs are NOT canonical — a WriteGraph→ReadGraph
// round trip renumbers them in topological order — but this
// enumeration is invariant under that renumbering (the JSON encoder
// itself serializes nodes topologically), under renames, and under
// map iteration, so terms that reference G_d tensors encode ordinals
// instead of IDs.
type GdIndex struct {
	g       *graph.Graph
	ord     []int            // tensor ID → ordinal
	tensors []graph.TensorID // ordinal → tensor ID
	// leaves is the one leaf term of each tensor (Leaf, DecodeTerm), by
	// ordinal, made on first use. Terms are immutable, so every term a
	// run builds shares them; concurrent first uses agree on one.
	leaves []atomic.Pointer[expr.Term]
}

// NewGdIndex builds the canonical tensor enumeration for g.
func NewGdIndex(g *graph.Graph) (*GdIndex, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	return IndexGd(g, order), nil
}

// IndexGd is NewGdIndex over a topological order of g the caller has
// already computed — a check sorts each graph once and derives
// everything else from that order.
func IndexGd(g *graph.Graph, order []*graph.Node) *GdIndex {
	ix := &GdIndex{g: g, ord: make([]int, len(g.Tensors)), tensors: make([]graph.TensorID, 0, len(g.Tensors)),
		leaves: make([]atomic.Pointer[expr.Term], len(g.Tensors))}
	add := func(id graph.TensorID) {
		ix.ord[id] = len(ix.tensors)
		ix.tensors = append(ix.tensors, id)
	}
	for _, in := range g.Inputs {
		add(in)
	}
	for _, n := range order {
		for _, out := range n.Outputs {
			add(out)
		}
	}
	return ix
}

// Graph returns the indexed graph.
func (ix *GdIndex) Graph() *graph.Graph { return ix.g }

// Leaf returns the one leaf term of tensor id, in the G_d leaf space
// (relation.GdLeaf), made on first use: every term a run builds over the
// indexed graph — decoded, extracted or defined — can share it.
func (ix *GdIndex) Leaf(id graph.TensorID) *expr.Term { return ix.leaf(ix.ord[id]) }

// leaf returns the shared leaf term of the tensor with ordinal ord.
func (ix *GdIndex) leaf(ord int) *expr.Term {
	slot := &ix.leaves[ord]
	if t := slot.Load(); t != nil {
		return t
	}
	if t := relation.GdLeaf(ix.g.Tensor(ix.tensors[ord])); slot.CompareAndSwap(nil, t) {
		return t
	}
	return slot.Load()
}

// CanonicalTerm returns the canonical encoding of a clean expression
// term. G_d leaves (TID ≥ relation.GdOffset) encode "d<ordinal>" via
// ix's canonical enumeration (raw "d<id>" when ix is nil — only for
// contexts with no graph at hand, e.g. debugging — and for a leaf
// outside ix's graph, whose ID no ordinal reaches); G_s leaves encode
// "s<id>"; interior nodes encode "(op|str|ints|arg;arg;…)". Names are
// omitted: they are display metadata, rebound from the current graphs
// on decode. The encoding is injective on structurally distinct terms
// and DecodeTerm inverts it.
func CanonicalTerm(t *expr.Term, ix *GdIndex) string { return string(appendTerm(nil, t, ix)) }

func appendTerm(b []byte, t *expr.Term, ix *GdIndex) []byte {
	if t.IsLeaf() {
		if !relation.IsGd(t.TID) {
			return strconv.AppendInt(append(b, 's'), int64(t.TID), 10)
		}
		id := int(relation.GdTensorID(t.TID))
		// A leaf outside the indexed graph keeps its ID, which no
		// ordinal reaches: it is spelled apart from every tensor of it.
		if ix != nil && id < len(ix.ord) {
			id = ix.ord[id]
		}
		return strconv.AppendInt(append(b, 'd'), int64(id), 10)
	}
	b = append(b, '(')
	b = append(b, t.Op...)
	b = append(b, '|')
	b = append(b, t.Str...)
	b = append(b, '|')
	b = appendExprs(b, t.Ints)
	b = append(b, '|')
	for i, a := range t.Args {
		if i > 0 {
			b = append(b, ';')
		}
		b = appendTerm(b, a, ix)
	}
	return append(b, ')')
}

// DecodeTerm inverts CanonicalTerm. G_d leaf ordinals are resolved to
// the current graph's tensors through ix (raw IDs when nil) — to one
// leaf term per tensor, shared by every term decoded through ix. Other
// leaves have no display name. Any defect — an unknown operator, an
// out-of-range ordinal or ID, a number or attribute not spelled as
// CanonicalTerm spells it, and any arity violation the rebuilt term
// would carry — is an error, never a panic: the verdict cache treats a
// decode error as a miss. So whatever it accepts, CanonicalTerm encodes
// back to the same bytes.
func DecodeTerm(s string, ix *GdIndex) (t *expr.Term, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			t, err = nil, fmt.Errorf("fingerprint: decoding term %q: %v", s, rec)
		}
	}()
	// Every interior term opens with a '(' and every argument follows
	// its parent's header or a ';', so the counts bound what the term
	// holds: its interior terms are cut from one slab, its argument
	// lists from the front half of another, whose back half holds the
	// arguments still pending.
	terms := strings.Count(s, "(")
	args := terms + strings.Count(s, ";")
	slab := make([]*expr.Term, 2*args)
	p := &termParser{src: s, ix: ix, nodes: make([]expr.Term, 0, terms),
		lists: slab[:0:args], args: slab[args:args]}
	t, err = p.parse()
	if err != nil {
		return nil, err
	}
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("fingerprint: trailing input at %d in term %q", p.pos, s)
	}
	return t, nil
}

type termParser struct {
	src string
	pos int
	ix  *GdIndex
	// nodes holds the interior terms made so far, and lists their
	// argument lists, each a window of it.
	nodes []expr.Term
	lists []*expr.Term
	// args holds the arguments of every term still being parsed, the
	// innermost last; a finished term moves its own to lists.
	args []*expr.Term
}

func (p *termParser) parse() (*expr.Term, error) {
	if p.pos >= len(p.src) {
		return nil, fmt.Errorf("fingerprint: empty term at %d in %q", p.pos, p.src)
	}
	if p.src[p.pos] != '(' {
		return p.parseLeaf()
	}
	p.pos++ // '('
	op, err := p.until("|")
	if err != nil {
		return nil, err
	}
	str, err := p.until("|")
	if err != nil {
		return nil, err
	}
	intsRaw, err := p.until("|")
	if err != nil {
		return nil, err
	}
	var ints []sym.Expr
	if intsRaw != "" {
		ints = make([]sym.Expr, 0, strings.Count(intsRaw, ",")+1)
		for more := true; more; {
			var part string
			part, intsRaw, more = strings.Cut(intsRaw, ",")
			e, err := attr(part)
			if err != nil {
				return nil, err
			}
			ints = append(ints, e)
		}
	}
	base := len(p.args)
	for {
		a, err := p.parse()
		if err != nil {
			return nil, err
		}
		p.args = append(p.args, a)
		if p.pos >= len(p.src) {
			return nil, fmt.Errorf("fingerprint: unterminated term in %q", p.src)
		}
		if p.src[p.pos] == ';' {
			p.pos++
			continue
		}
		if p.src[p.pos] == ')' {
			p.pos++
			break
		}
		return nil, fmt.Errorf("fingerprint: unexpected %q at %d in %q", p.src[p.pos], p.pos, p.src)
	}
	from := len(p.lists)
	p.lists = append(p.lists, p.args[base:]...)
	args := p.lists[from:len(p.lists):len(p.lists)]
	p.args = p.args[:base]
	arity, known := expr.Arity(expr.Op(op))
	switch {
	case !known:
		return nil, fmt.Errorf("fingerprint: unknown operator %q in %q", op, p.src)
	case arity >= 0 && len(args) != arity:
		return nil, fmt.Errorf("fingerprint: %s takes %d arguments, not %d, in %q", op, arity, len(args), p.src)
	}
	// What expr.New would build, cut from the slab.
	p.nodes = append(p.nodes, expr.Term{Op: expr.Op(op), Str: str, Ints: ints, Args: args})
	return &p.nodes[len(p.nodes)-1], nil
}

// attr decodes one integer attribute, which must be spelled as
// sym.Expr.Key spells it. A constant's spelling is read without
// sym.Parse, as graph decoding reads one; anything else takes the round
// trip.
func attr(part string) (sym.Expr, error) {
	if v, ok := plainDecimal(part); ok {
		return sym.Const(v), nil
	}
	e, err := sym.Parse(part)
	if err != nil {
		return sym.Expr{}, fmt.Errorf("fingerprint: term attr %q: %v", part, err)
	}
	var key [32]byte
	if string(e.AppendKey(key[:0])) != part {
		return sym.Expr{}, fmt.Errorf("fingerprint: term attr %q is not canonical", part)
	}
	return e, nil
}

// plainDecimal reads a non-negative constant as Key spells it: 1 to 18
// digits (no overflow), no '+' and no leading zero.
func plainDecimal(s string) (int64, bool) {
	if len(s) == 0 || len(s) > 18 || s[0] == '0' && len(s) > 1 {
		return 0, false
	}
	var v int64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	return v, true
}

func (p *termParser) parseLeaf() (*expr.Term, error) {
	space := p.src[p.pos]
	if space != 's' && space != 'd' {
		return nil, fmt.Errorf("fingerprint: bad leaf space %q at %d in %q", space, p.pos, p.src)
	}
	p.pos++
	start := p.pos
	for p.pos < len(p.src) && p.src[p.pos] >= '0' && p.src[p.pos] <= '9' {
		p.pos++
	}
	if p.pos == start {
		return nil, fmt.Errorf("fingerprint: leaf without id at %d in %q", start, p.src)
	}
	if p.src[start] == '0' && p.pos-start > 1 {
		return nil, fmt.Errorf("fingerprint: leaf id with a leading zero at %d in %q", start, p.src)
	}
	id, err := strconv.Atoi(p.src[start:p.pos]) // all digits: only overflow fails
	if err != nil {
		return nil, fmt.Errorf("fingerprint: leaf id at %d in %q: %w", start, p.src, err)
	}
	// Each space's IDs must stay in it as a leaf TID.
	if space == 's' && id >= relation.GdOffset || space == 'd' && id > math.MaxInt-relation.GdOffset {
		return nil, fmt.Errorf("fingerprint: leaf id %d out of range at %d in %q", id, start, p.src)
	}
	if space == 's' {
		return expr.Tensor(id, ""), nil
	}
	if p.ix == nil {
		return expr.Tensor(id+relation.GdOffset, ""), nil
	}
	if id < 0 || id >= len(p.ix.tensors) {
		return nil, fmt.Errorf("fingerprint: G_d ordinal %d out of range in %q", id, p.src)
	}
	return p.ix.leaf(id), nil
}

// until consumes up to (and including) the next occurrence of any
// delimiter byte, returning the consumed prefix.
func (p *termParser) until(delims string) (string, error) {
	for i := p.pos; i < len(p.src); i++ {
		if strings.IndexByte(delims, p.src[i]) >= 0 {
			out := p.src[p.pos:i]
			p.pos = i + 1
			return out, nil
		}
	}
	return "", fmt.Errorf("fingerprint: missing %q after %d in %q", delims, p.pos, p.src)
}

// canonicalAssumptions encodes a symbolic context's assumption set:
// sorted canonical scalars (each recorded as expr ≥ 0).
func canonicalAssumptions(ctx *sym.Context) string {
	var keys []string
	for _, a := range ctx.Assumptions() {
		keys = append(keys, a.Key())
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

// ConeHasher computes the per-operator cone fingerprint over one G_s
// and its input relation. The fingerprint of a node is the hash of its
// canonical encoding — operator, attributes, output shapes — chained
// through the fingerprints of its producers, with graph-input tensors
// identified by their position in g.Inputs plus the canonical,
// lexicographically sorted encodings of their input-relation entries.
// The recursion makes the hash cover exactly the upstream cone: a
// change anywhere upstream changes the hash, a change elsewhere in the
// graph does not.
type ConeHasher struct {
	g     *graph.Graph
	inPos []int              // by tensor: position among g.Inputs, -1 for the rest
	rel   *relation.Relation // nil when hashing a bare graph (G_d)
	gdix  *GdIndex           // resolves G_d leaves inside rel's terms
	memo  []Hash             // by node
	done  []bool             // by node: memo holds its fingerprint
	// buf is the one pre-image under construction. A node hashes its
	// producers before it writes the first byte of its own encoding, so
	// the recursion never has two pre-images open.
	buf []byte
}

// NewConeHasher builds a hasher for g. ri carries the input-relation
// entries folded into graph-input identities, with their G_d leaves
// canonicalized through gdix; both nil hashes the bare structure
// (used for G_d's whole-graph digest).
func NewConeHasher(g *graph.Graph, ri *relation.Relation, gdix *GdIndex) *ConeHasher {
	inPos := make([]int, len(g.Tensors))
	for i := range inPos {
		inPos[i] = -1
	}
	for i, id := range g.Inputs {
		inPos[id] = i
	}
	return &ConeHasher{g: g, inPos: inPos, rel: ri, gdix: gdix,
		memo: make([]Hash, len(g.Nodes)), done: make([]bool, len(g.Nodes))}
}

// Node returns the cone fingerprint of node id, memoized.
//
// The pre-image — "node|op=…|str=…|ints=…" then "|in=" per input and
// "|out=" per output shape — is frozen: it is what every cached verdict
// on disk and every peer in a fleet is keyed by. How its bytes are
// produced may change; which bytes may not, short of a CheckerVersion
// bump (TestKeysGolden holds every key of the zoo).
func (c *ConeHasher) Node(id graph.NodeID) Hash {
	if c.done[id] {
		return c.memo[id]
	}
	n := c.g.Node(id)
	for _, in := range n.Inputs {
		if p := c.g.Tensor(in).Producer; p != graph.NoProducer {
			c.Node(p)
		}
	}
	b := append(c.buf[:0], "node|op="...)
	b = append(b, n.Op...)
	b = append(b, "|str="...)
	b = append(b, n.Str...)
	b = append(b, "|ints="...)
	b = appendExprs(b, n.Ints)
	for _, in := range n.Inputs {
		b = append(b, "|in="...)
		b = c.appendTensorDesc(b, in)
	}
	for _, out := range n.Outputs {
		b = append(b, "|out="...)
		b = appendShape(b, c.g.Tensor(out).Shape)
	}
	c.buf = b
	c.memo[id], c.done[id] = sum(b), true
	return c.memo[id]
}

// appendTensorDesc encodes a tensor's structural identity: produced
// tensors chain to their producer's cone fingerprint — already
// memoized, the caller saw to it — and output index; graph inputs use
// their declared position, shape, and (when a relation is attached)
// their sorted canonical relation entries.
func (c *ConeHasher) appendTensorDesc(b []byte, id graph.TensorID) []byte {
	t := c.g.Tensor(id)
	if t.Producer != graph.NoProducer {
		b = append(b, 'p')
		b = hex.AppendEncode(b, c.memo[t.Producer][:])
		b = append(b, '.')
		return strconv.AppendInt(b, int64(t.OutIndex), 10)
	}
	b = append(b, 'i')
	b = strconv.AppendInt(b, int64(c.inPos[id]), 10)
	b = append(b, '@')
	b = appendShape(b, t.Shape)
	if c.rel == nil {
		return b
	}
	var entries []string
	for _, m := range c.rel.Get(id) {
		entries = append(entries, CanonicalTerm(m, c.gdix))
	}
	sort.Strings(entries)
	b = append(b, "&rel="...)
	for i, e := range entries {
		if i > 0 {
			b = append(b, ';')
		}
		b = append(b, e...)
	}
	return b
}

// GraphDigest returns the whole-graph structural digest of g: the
// sorted multiset of every node's cone fingerprint, the declared
// inputs' shapes in order, the declared outputs' structural
// identities in order, and the symbolic assumptions. It identifies
// G_d inside the ambient configuration: every node can be folded by
// the frontier exploration, so all of them are semantic.
func GraphDigest(g *graph.Graph) Hash {
	c := NewConeHasher(g, nil, nil)
	for _, n := range g.Nodes {
		c.Node(n.ID)
	}
	// The pre-image is streamed into the hash. Its tail is encoded first:
	// the output descriptors read the fingerprints by node ID, so the
	// memo is sorted only after them — into the order of the sorted
	// lowercase hex the pre-image lists, which is the order of the bytes.
	tail := append(c.buf[:0], "|inputs="...)
	for i, in := range g.Inputs {
		if i > 0 {
			tail = append(tail, ',')
		}
		tail = appendShape(tail, g.Tensor(in).Shape)
	}
	tail = append(tail, "|outputs="...)
	for i, out := range g.Outputs {
		if i > 0 {
			tail = append(tail, ',')
		}
		tail = c.appendTensorDesc(tail, out)
	}
	tail = append(tail, "|assume="...)
	tail = append(tail, canonicalAssumptions(g.Ctx)...)
	slices.SortFunc(c.memo, func(a, b Hash) int { return bytes.Compare(a[:], b[:]) })

	d := sha256.New()
	d.Write([]byte("graph|nodes="))
	hexed, from := [1 + 2*sha256.Size]byte{','}, 1 // the first has no ','
	for i := range c.memo {
		hex.Encode(hexed[1:], c.memo[i][:])
		d.Write(hexed[from:])
		from = 0
	}
	d.Write(tail)
	var h Hash
	d.Sum(h[:0])
	return h
}

// Ambient digests the run-level configuration shared by every key of
// one check: a checker version tag, the lemma-registry fingerprint,
// the caller's canonical options encoding, the G_d digest, and the
// G_s-side symbolic assumptions (they parameterize every per-operator
// e-graph through the merged context).
func Ambient(version, registryFP string, options []byte, gd Hash, gsCtx *sym.Context) Hash {
	var b strings.Builder
	b.WriteString("ambient|v=")
	b.WriteString(version)
	b.WriteString("|reg=")
	b.WriteString(registryFP)
	b.WriteString("|opt=")
	b.Write(options)
	b.WriteString("|gd=")
	b.WriteString(gd.Hex())
	b.WriteString("|assume=")
	if gsCtx != nil {
		b.WriteString(canonicalAssumptions(gsCtx))
	}
	return sum([]byte(b.String()))
}

// Key combines the ambient digest with one operator's cone fingerprint
// into the verdict-cache key.
func Key(ambient, cone Hash) Hash {
	data := make([]byte, 0, 4+2*sha256.Size)
	data = append(data, "key|"...)
	data = append(data, ambient[:]...)
	data = append(data, cone[:]...)
	return sum(data)
}
