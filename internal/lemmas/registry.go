// Package lemmas is ENTANGLE's rewrite-rule library (§4.2.1, §5): the
// Go analogue of the ~4,100 lines of Rust lemma definitions the paper
// ships for PyTorch's ATen operators, plus the vLLM- and HLO-specific
// lemmas its evaluation adds (Figure 6's c/v/h families). Every lemma
// carries the metadata the paper reports: a kind, a complexity (the
// number of operators appearing in the lemma, Figure 5a) and a
// definition size in lines of code (Figure 5b's CDF).
package lemmas

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"entangle/internal/egraph"
)

// Kind classifies a lemma the way Figure 6's x-axis does.
type Kind byte

const (
	// KindClean lemmas concern operators that can appear in clean
	// expressions (slice, concat, transpose, …) — marked "c".
	KindClean Kind = 'c'
	// KindGeneral lemmas concern ATen compute operators — unmarked in
	// the paper's heatmap; we print them as "g".
	KindGeneral Kind = 'g'
	// KindVLLM lemmas concern fused operators from serving frameworks
	// — marked "v". The paper's fourth kind, HLO lemmas ("h"), has no
	// member: the HLO front end maps every HLO op it reads onto the
	// shared vocabulary, and no check here needs an HLO-only rule.
	KindVLLM Kind = 'v'
)

// Lemma is one rewrite lemma, possibly realized by several e-graph
// rules (forward and reverse directions, conditioned branches).
type Lemma struct {
	ID         int
	Name       string
	Kind       Kind
	Complexity int // operators appearing on both sides (Figure 5a)
	// LOC is the declared size, in lines, of the lemma's stand-alone
	// definition as the paper counts it (Figure 5b) — what writing this
	// one lemma out as its own rule takes, not the lines it occupies
	// here, where most lemmas are one row over a shared interpreter.
	LOC   int
	Rules []*egraph.Rule

	// dists, when set, declares the lemma as distribution rows
	// (distribute.go); Register builds Rules from them.
	dists []dist
}

// Registry holds an ordered lemma collection. It is safe to share one
// registry across concurrent Check calls and scheduler workers: after
// construction the lemma set is read-only, and the rules cache below
// is guarded.
type Registry struct {
	lemmas []*Lemma
	byName map[string]*Lemma
	byRule map[string]*Lemma // rule name → owning lemma

	// rulesMu guards rulesCache, the flattened rule slice Rules()
	// hands out. Saturation runs once per operator per frontier
	// iteration; materializing the slice every call was measurable
	// allocation churn, so it is built once and invalidated on
	// Register. The same lock guards fpCache (Fingerprint) and
	// compiledCache (Compiled).
	rulesMu       sync.Mutex
	rulesCache    []*egraph.Rule
	compiledCache *egraph.CompiledRules
	fpCache       string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*Lemma{}, byRule: map[string]*Lemma{}}
}

// Register appends a lemma, assigning its ID. Lemma names and rule
// names must be unique across the registry: a duplicate of either is
// rejected with an error before any state changes, so a failed
// Register leaves the registry exactly as it was (no byName/byRule
// entry is overwritten and no ID is consumed).
func (r *Registry) Register(l *Lemma) (*Lemma, error) {
	if _, dup := r.byName[l.Name]; dup {
		return nil, fmt.Errorf("lemmas: duplicate lemma %q", l.Name)
	}
	for i := range l.dists {
		l.Rules = append(l.Rules, l.dists[i].rule(l.Name))
	}
	seen := map[string]bool{}
	for _, rule := range l.Rules {
		if _, dup := r.byRule[rule.Name]; dup || seen[rule.Name] {
			return nil, fmt.Errorf("lemmas: lemma %q: duplicate rule %q", l.Name, rule.Name)
		}
		seen[rule.Name] = true
	}
	l.ID = len(r.lemmas)
	r.lemmas = append(r.lemmas, l)
	r.byName[l.Name] = l
	for _, rule := range l.Rules {
		r.byRule[rule.Name] = l
	}
	r.rulesMu.Lock()
	r.rulesCache, r.compiledCache = nil, nil // invalidate the flattened-rule cache and its compilation
	r.fpCache = ""                           // and the registry fingerprint
	r.rulesMu.Unlock()
	return l, nil
}

// MustRegister is Register that panics on a duplicate name; the
// built-in library uses it because its names are fixed at compile
// time.
func (r *Registry) MustRegister(l *Lemma) *Lemma {
	reg, err := r.Register(l)
	if err != nil {
		panic(err)
	}
	return reg
}

// All returns the lemmas in ID order.
func (r *Registry) All() []*Lemma { return r.lemmas }

// Len returns the number of registered lemmas.
func (r *Registry) Len() int { return len(r.lemmas) }

// ByName looks a lemma up.
func (r *Registry) ByName(name string) (*Lemma, bool) {
	l, ok := r.byName[name]
	return l, ok
}

// Rules returns every e-graph rule across all lemmas, in lemma order.
// The returned slice is cached and shared — callers must not mutate
// it. Registering a new lemma invalidates the cache.
func (r *Registry) Rules() []*egraph.Rule {
	r.rulesMu.Lock()
	defer r.rulesMu.Unlock()
	return r.rulesLocked()
}

// Compiled returns Rules() together with the matchers' analysis of
// exactly that slice (egraph.CompileRules), for SaturateOpts.Compiled.
// The analysis numbers every LHS's variables and is read-only, so it is
// built once per registry, not once per check; Register invalidates it
// with the rules.
func (r *Registry) Compiled() ([]*egraph.Rule, *egraph.CompiledRules) {
	r.rulesMu.Lock()
	defer r.rulesMu.Unlock()
	rules := r.rulesLocked()
	if r.compiledCache == nil {
		r.compiledCache = egraph.CompileRules(rules)
	}
	return rules, r.compiledCache
}

func (r *Registry) rulesLocked() []*egraph.Rule {
	if r.rulesCache == nil {
		out := make([]*egraph.Rule, 0, len(r.lemmas)*2)
		for _, l := range r.lemmas {
			out = append(out, l.Rules...)
		}
		r.rulesCache = out
	}
	return r.rulesCache
}

// Fingerprint returns a stable SHA-256 hex digest identifying the
// registry's lemma set for content-addressed verdict caching: any
// lemma added, removed, renamed, re-kinded, or re-ordered — and any
// rule added, removed, or renamed within a lemma — changes the digest.
// Rule *semantics* are identified by rule name: a lemma library that
// redefines what an existing rule name rewrites must bump the name
// (the library's convention is to suffix variants, e.g. "-rev", "-2"),
// otherwise stale cached verdicts could be replayed. The digest is
// cached and invalidated by Register, like Rules().
func (r *Registry) Fingerprint() string {
	r.rulesMu.Lock()
	defer r.rulesMu.Unlock()
	if r.fpCache == "" {
		var b strings.Builder
		b.WriteString("lemmas/1")
		for _, l := range r.lemmas {
			fmt.Fprintf(&b, "|%s:%c:%d[", l.Name, l.Kind, l.Complexity)
			for i, rule := range l.Rules {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(rule.Name)
			}
			b.WriteByte(']')
		}
		sum := sha256.Sum256([]byte(b.String()))
		r.fpCache = hex.EncodeToString(sum[:])
	}
	return r.fpCache
}

// LemmaCounts folds per-rule application counts (from egraph.Stats)
// into per-lemma counts keyed by lemma ID — the quantity the paper's
// Figure 6 heatmap plots.
func (r *Registry) LemmaCounts(apps map[string]int) map[int]int {
	out := map[int]int{}
	for ruleName, n := range apps {
		if l, ok := r.byRule[ruleName]; ok {
			out[l.ID] += n
		}
	}
	return out
}

// UsedLemmas returns the distinct lemmas with non-zero applications,
// in ID order (Figure 5a's per-model lemma counts).
func (r *Registry) UsedLemmas(apps map[string]int) []*Lemma {
	counts := r.LemmaCounts(apps)
	var ids []int
	for id, n := range counts {
		if n > 0 {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	out := make([]*Lemma, len(ids))
	for i, id := range ids {
		out[i] = r.lemmas[id]
	}
	return out
}

// Default builds the full lemma library. The registration order fixes
// lemma IDs: clean/structural first, then general compute, then vLLM
// fused — mirroring the c…v layout of Figure 6's x-axis.
func Default() *Registry {
	r := NewRegistry()
	registerClean(r)
	registerCompute(r)
	registerVLLM(r)
	return r
}
