package core

// Verdict-cache integration: before an operator is saturated, checkOp
// consults Options.Cache under a content-addressed key — the
// operator's upstream-cone fingerprint combined with the run's ambient
// digest (lemma registry, budget options, G_d, checker version). On a
// hit the stored verdict is REPLAYED, not merely returned: a Refined
// entry re-adds the exact extracted mappings (in stored order, so the
// relation's insertion-order tie-breaking matches a live run) and a
// Disproved entry reconstructs the same RefinementError against the
// current graphs. Replay therefore leaves the run in a state
// byte-identical to a cold run, while Report.LiveStats records that no
// saturation actually happened.
//
// Reuse safety rests on two facts. First, an operator's verdict is a
// pure function of exactly what the key hashes: its cone (ops, shapes,
// attributes, wiring), the input-relation entries its cone consumes,
// G_d, the lemma library, the saturation budget, and the checker
// version — nothing schedule- or wall-clock-dependent. Second, only
// the schedule-independent points of the verdict lattice are cached:
// Refined and Disproved are facts about the graphs; Inconclusive
// depends on budgets and clocks (and escalation makes it retryable),
// EngineFault on transient runtime state, Skipped on sibling failures.
// Those are never stored — vcache itself also rejects them.
//
// Two bypasses keep the key honest: a PreOp budget override
// (fault-injection harnesses) changes the effective budget without
// changing the key, so overridden operators skip the cache entirely;
// and a Disproved failure on a tensor that is not one of the
// operator's outputs (a missing *input* mapping) reflects upstream
// state, so it is not stored either.

import (
	"fmt"

	"entangle/internal/egraph"
	"entangle/internal/expr"
	"entangle/internal/fingerprint"
	"entangle/internal/graph"
	"entangle/internal/relation"
	"entangle/internal/vcache"
)

// CheckerVersion tags every cache key with the checker's semantic
// version. Bump it whenever checking semantics change in a way the
// other key components cannot see (extraction order, frontier policy,
// verdict classification), so stale verdicts invalidate wholesale.
const CheckerVersion = "entangle-core/5"

// VerdictStore is the verdict-cache surface the checker consults: a
// content-addressed Get/Put plus the store's own monotone counters,
// which the daemon's /v1/stats reports. *vcache.Cache is the single-node
// implementation; internal/cluster's Cache implements the same
// interface over a sharded fleet (local shard + peer fetch/forward
// with graceful degradation), so everything above this seam — the
// run's prefetch, replay, storeVerdict, the daemon — is
// fleet-agnostic. Implementations must be safe for concurrent use and
// must uphold vcache's contract: Get never returns a wrong or stale
// entry (any doubt is a miss), Put rejects non-cacheable verdicts.
type VerdictStore interface {
	Get(key fingerprint.Hash) *vcache.Entry
	Put(key fingerprint.Hash, e *vcache.Entry) error
	Stats() *vcache.Stats
}

// manyGetter is an optional upgrade of VerdictStore, discovered by
// type assertion like io.ReaderFrom: a store for which a lookup can
// cost a network round trip answers a whole run's keys at once —
// entries[i] is what Get(keys[i]) would have returned. A run's
// prefetch is its one caller; internal/cluster's Cache its one
// implementation.
type manyGetter interface {
	GetMany(keys []fingerprint.Hash) []*vcache.Entry
}

// CacheStats summarizes one run's verdict-cache traffic in the Report:
// its own lookups and stores, never another run's on the same store
// (the store's totals are its Stats).
type CacheStats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Stores int64 `json:"stores"`
	// ReplayRejects counts hits whose payload failed to replay against
	// the current graphs (counted in Misses too); nonzero values
	// indicate a fingerprint scheme bug and are worth alerting on.
	ReplayRejects int64 `json:"replay_rejects,omitempty"`
}

// cacheState is the per-run cache context hanging off runState.
type cacheState struct {
	cache VerdictStore
	// keys is this run's derivation — deriving it before the scheduler
	// starts keeps the cone hasher's memo single-threaded; afterwards
	// workers only read — and old the diff base's (nil on a full check).
	keys, old *sideKeys
	// entries[i] is the store's answer for keys.keys[i], prefetched
	// before the scheduler starts and consumed by checkOp on operator
	// i's worker; nil on the unplanned path, which probes inline.
	// Entries are immutable once stored, so holding the pointers across
	// concurrent cache traffic is safe.
	entries []*vcache.Entry
}

// prefetch probes the cache once per operator, before any operator
// runs: a store that can answer many keys at once is handed the whole
// run's keys in one call. The probes touch no run counters — hits and
// misses are accounted when operators execute, so operators the
// scheduler never runs (beyond the earliest failure, or in a skipped
// taint cone) count nothing, prefetched or not.
func (c *cacheState) prefetch() {
	if batch, ok := c.cache.(manyGetter); ok {
		c.entries = batch.GetMany(c.keys.keys)
		return
	}
	c.entries = make([]*vcache.Entry, len(c.keys.keys))
	for i, key := range c.keys.keys {
		c.entries[i] = c.cache.Get(key)
	}
}

// cacheOptionsString is the canonical encoding of the verdict-relevant
// options, hashed into the ambient digest. Workers, KeepGoing and
// observers are deliberately absent: they steer scheduling and
// reporting, never a cacheable verdict. The mapping cap, the base
// budget, the escalation count and the frontier bound (mfi=0: |G_d|+1)
// are constants, spelled in anyway: the string is hashed into every
// key, which keys_golden.txt pins.
func (o Options) cacheOptionsString() string {
	return fmt.Sprintf("mm=%d|mfi=0|df=%t|si=%d|sn=%d|be=%d",
		maxMappings, o.DisableFrontier, baseMaxIters, baseMaxNodes, maxEscalations)
}

// keyDerivation is the one source of cone fingerprints and cache keys
// for a run (or a pure DiffPlan call): the G_d index and digest are
// shared by every (G_s, R_i) side derived from it.
type keyDerivation struct {
	gdix     *fingerprint.GdIndex
	opts     *Options // nil: cones only, no keys
	gdDigest fingerprint.Hash
}

// sideKeys is one (G_s, R_i) side's cone hashes and cache keys (nil
// when unkeyed), indexed like order.
type sideKeys struct {
	order       []*graph.Node
	cones, keys []fingerprint.Hash
}

// newKeyDerivation derives over G_d's index gdix; sides carry keys
// when opts has a cache.
func newKeyDerivation(gdix *fingerprint.GdIndex, opts *Options) *keyDerivation {
	kd := &keyDerivation{gdix: gdix}
	if opts != nil && opts.Cache != nil {
		kd.opts, kd.gdDigest = opts, opts.gdDigest.of(gdix.Graph())
	}
	return kd
}

// boundDigest is fingerprint.GraphDigest of one *graph.Graph object,
// handed in by a caller that already knows it.
type boundDigest struct {
	gd     *graph.Graph
	digest fingerprint.Hash
}

// WithGdDigest returns a checker that takes digest for
// fingerprint.GraphDigest(gd) instead of deriving it, for the graph
// object gd only: a check against any other G_d derives its own. The
// caller vouches for digest — the daemon hands in the one it derived
// from the very bytes it decoded gd from — and with
// egraph.InvariantChecks on, a check derives it anyway and panics if
// the two disagree.
func (c *Checker) WithGdDigest(gd *graph.Graph, digest fingerprint.Hash) *Checker {
	opts := c.opts
	opts.gdDigest = boundDigest{gd: gd, digest: digest}
	return &Checker{opts: opts}
}

// of is gd's digest: the bound one when gd is the graph it is bound
// to, derived otherwise.
func (b boundDigest) of(gd *graph.Graph) fingerprint.Hash {
	if b.gd == nil || b.gd != gd {
		return fingerprint.GraphDigest(gd)
	}
	if egraph.InvariantChecks {
		if d := fingerprint.GraphDigest(gd); d != b.digest {
			panic(fmt.Sprintf("core: G_d digest %s handed in, %s derived", b.digest.Hex(), d.Hex()))
		}
	}
	return b.digest
}

// side derives gs's side; order must be a topological order of gs.
func (kd *keyDerivation) side(gs *graph.Graph, ri *relation.Relation, order []*graph.Node) *sideKeys {
	hasher := fingerprint.NewConeHasher(gs, ri, kd.gdix)
	s := &sideKeys{order: order, cones: make([]fingerprint.Hash, len(order))}
	for i, v := range order {
		s.cones[i] = hasher.Node(v.ID)
	}
	if kd.opts != nil {
		ambient := fingerprint.Ambient(CheckerVersion, kd.opts.Registry.Fingerprint(),
			[]byte(kd.opts.cacheOptionsString()), kd.gdDigest, gs.Ctx)
		s.keys = make([]fingerprint.Hash, len(order))
		for i, cone := range s.cones {
			s.keys[i] = fingerprint.Key(ambient, cone)
		}
	}
	return s
}

// oldVerdict looks up what the cache knew about the diff base's
// operator named label, under the base's own keys ("" = nothing). With
// duplicate labels the last cached one in topo order answers.
func (r *runState) oldVerdict(label string) vcache.Verdict {
	if r.cache == nil {
		return ""
	}
	old := r.cache.old
	for i := len(old.order) - 1; i >= 0; i-- {
		if old.order[i].Label != label {
			continue
		}
		if e := r.cache.cache.Get(old.keys[i]); e != nil {
			return e.Verdict()
		}
	}
	return ""
}

// replayEntry reconstructs a cached verdict and, for a refined one, its
// output mappings, reading its terms straight out of the entry's bytes.
// What the verdict took stays in the entry: the ledger keeps it, and
// the fold reads it.
func (r *runState) replayEntry(v *graph.Node, e *vcache.Entry) (OpVerdict, [][]*expr.Term, bool) {
	switch e.Verdict() {
	case vcache.VerdictRefined:
		if e.Outputs() != len(v.Outputs) {
			return OpVerdict{}, nil, false
		}
		all := make([][]*expr.Term, len(v.Outputs))
		err := e.EachTerm(func(out int, src string) error {
			t, err := fingerprint.DecodeTerm(src, r.gdix)
			all[out] = append(all[out], t)
			return err
		})
		if err != nil {
			return OpVerdict{}, nil, false
		}
		for _, terms := range all {
			if len(terms) == 0 {
				return OpVerdict{}, nil, false
			}
		}
		return OpVerdict{Op: v, Kind: VerdictRefined, Escalations: e.Escalations(), Replayed: true}, all, true

	case vcache.VerdictDisproved:
		fail := e.FailOutput()
		if fail < 0 || fail >= len(v.Outputs) {
			return OpVerdict{}, nil, false
		}
		re := &RefinementError{Op: v, Tensor: r.gs.Tensor(v.Outputs[fail]),
			InputMappings: r.renderInputMappings(v)}
		return OpVerdict{Op: v, Kind: VerdictDisproved, Err: re, Escalations: e.Escalations(), Replayed: true}, nil, true
	}
	return OpVerdict{}, nil, false
}

// storeVerdict persists a just-computed live verdict when it is
// cacheable. outs carries each output's extracted mappings of a Refined
// run, in the order they were added to the relation (nil otherwise).
func (r *runState) storeVerdict(topo int, acc egraph.Stats, verdict OpVerdict, outs [][]*expr.Term) (stored bool) {
	v, key := r.order[topo], r.cache.keys.keys[topo]
	var entry *vcache.Entry
	switch verdict.Kind {
	case VerdictRefined:
		if len(outs) != len(v.Outputs) {
			return
		}
		terms := make([][]string, len(outs))
		for i, ts := range outs {
			terms[i] = make([]string, len(ts))
			for j, t := range ts {
				terms[i][j] = fingerprint.CanonicalTerm(t, r.gdix)
			}
		}
		entry = vcache.Refined(key, verdict.Escalations, acc, terms)
	case VerdictDisproved:
		re, isRefinement := verdict.Err.(*RefinementError)
		if !isRefinement || re.Tensor == nil {
			return
		}
		fail := -1
		for i, out := range v.Outputs {
			if out == re.Tensor.ID {
				fail = i
				break
			}
		}
		if fail < 0 {
			// The failure names an *input* tensor (missing upstream
			// mapping): that is a fact about run state, not about this
			// operator's cone — not cacheable.
			return
		}
		entry = vcache.Disproved(key, verdict.Escalations, acc, fail)
	default:
		return
	}
	// Store errors are counted by the cache itself (StoreErrors) and
	// never affect the verdict; the entry stays usable in memory.
	return r.cache.cache.Put(key, entry) == nil
}
