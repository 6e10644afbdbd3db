package fingerprint_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"entangle/internal/bench"
	"entangle/internal/core"
	"entangle/internal/expr"
	"entangle/internal/fingerprint"
	"entangle/internal/graph"
	"entangle/internal/lemmas"
	"entangle/internal/relation"
	"entangle/internal/vcache"
)

// updateKeys rewrites testdata/keys_golden.txt. The file was recorded
// at the commit preceding the allocation-light hasher and the
// reflection-free decoders: it is the proof that on-disk caches and
// mixed-version fleets keep their keys, so re-record it only together
// with a core.CheckerVersion bump.
var updateKeys = flag.Bool("update-keys", false, "rewrite testdata/keys_golden.txt")

const keysGolden = "testdata/keys_golden.txt"

// defaultCacheOptions is core.Options{}'s verdict-relevant encoding
// after defaults: the mapping cap (mm), the frontier bound's old
// default spelling (mfi=0), DisableFrontier (df), the base saturation
// budget (si, sn) — constants of core, kept in the string so no key
// moves — and BudgetEscalations (be). TestKeysGolden checks it against
// the keys a checker actually probes, so a drift fails there and not
// silently here.
const defaultCacheOptions = "mm=16|mfi=0|df=false|si=24|sn=60000|be=1"

// keyLog is a verdict store that only records the keys it is asked for.
type keyLog struct {
	keys  []fingerprint.Hash
	stats vcache.Stats
}

func (l *keyLog) Get(k fingerprint.Hash) *vcache.Entry {
	l.keys = append(l.keys, k)
	return nil
}
func (l *keyLog) Put(fingerprint.Hash, *vcache.Entry) error { return nil }
func (l *keyLog) Stats() *vcache.Stats                      { return &l.stats }

// rekey rebuilds ri, which is over (gs, gd), against the same graphs
// after a serialization round trip: tensor IDs move, names do not.
func rekey(ri *relation.Relation, gs, gs2, gd2 *graph.Graph) (*relation.Relation, error) {
	out := relation.New()
	for _, id := range ri.Tensors() {
		t2, ok := gs2.TensorByName(gs.Tensor(id).Name)
		if !ok {
			return nil, fmt.Errorf("round trip lost G_s tensor %q", gs.Tensor(id).Name)
		}
		for _, m := range ri.Get(id) {
			var lost string
			out.Add(t2.ID, m.Map(func(l *expr.Term) *expr.Term {
				if !l.IsLeaf() {
					return l
				}
				d, ok := gd2.TensorByName(l.Name)
				if !ok {
					lost = l.Name
					return l
				}
				return relation.GdLeaf(d)
			}))
			if lost != "" {
				return nil, fmt.Errorf("round trip lost G_d tensor %q", lost)
			}
		}
	}
	return out, nil
}

func viaJSON(g *graph.Graph) (*graph.Graph, error) {
	data, err := g.MarshalJSON()
	if err != nil {
		return nil, err
	}
	return graph.Read(bytes.NewReader(data))
}

// keyLine derives everything a check of (gs, gd, ri) keys its verdicts
// by and renders it as one golden line: the digest of the G_s cone
// hashes in topological order, GraphDigest(G_d), the ambient digest,
// and the digest of the final keys — those as the checker itself
// derives them, observed through the cache probes of a cancelled check.
func keyLine(name, route string, gs, gd *graph.Graph, ri *relation.Relation) (string, error) {
	gdix, err := fingerprint.NewGdIndex(gd)
	if err != nil {
		return "", err
	}
	order, err := gs.TopoSort()
	if err != nil {
		return "", err
	}
	hasher := fingerprint.NewConeHasher(gs, ri, gdix)
	gdDigest := fingerprint.GraphDigest(gd)
	ambient := fingerprint.Ambient(core.CheckerVersion, lemmas.Default().Fingerprint(), []byte(defaultCacheOptions), gdDigest, gs.Ctx)

	probed := &keyLog{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // keys are derived and probed before the first operator runs
	_, _ = core.NewChecker(core.Options{Cache: probed}).CheckContext(ctx, gs, gd, ri)
	if len(probed.keys) != len(order) {
		return "", fmt.Errorf("checker probed %d keys for %d operators", len(probed.keys), len(order))
	}

	cones, keys := sha256.New(), sha256.New()
	for i, v := range order {
		cone := hasher.Node(v.ID)
		if key := fingerprint.Key(ambient, cone); key != probed.keys[i] {
			return "", fmt.Errorf("operator %q: checker probes %s, Key(ambient, cone) is %s (has defaultCacheOptions drifted?)",
				v.Label, probed.keys[i].Hex(), key.Hex())
		}
		cones.Write(cone[:])
		keys.Write(probed.keys[i][:])
	}
	return fmt.Sprintf("%s %s ops=%d cones=%x gd=%s ambient=%s keys=%x\n",
		name, route, len(order), cones.Sum(nil), gdDigest.Hex(), ambient.Hex(), keys.Sum(nil)), nil
}

// TestKeysGolden pins, for every model pair of the zoo, every hash a
// verdict is cached under — through the JSON interchange round trip
// and, for the pairs captured that way, the HLO one. A front-end or
// hasher change must leave the file untouched: a verdict directory
// written before it must replay after it.
func TestKeysGolden(t *testing.T) {
	var got strings.Builder
	for _, c := range bench.Zoo() {
		b, gs, gd, ri, err := c.Graphs()
		if err != nil {
			t.Fatal(err)
		}
		line := func(route string, gs, gd *graph.Graph, ri *relation.Relation) {
			t.Helper()
			l, err := keyLine(c.Name, route, gs, gd, ri)
			if err != nil {
				t.Fatalf("%s via %s: %v", c.Name, route, err)
			}
			got.WriteString(l)
		}
		if c.ViaHLO {
			line("hlo", gs, gd, ri)
		}
		jgs, err := viaJSON(b.Gs)
		if err != nil {
			t.Fatal(err)
		}
		jgd, err := viaJSON(b.Gd)
		if err != nil {
			t.Fatal(err)
		}
		jri, err := rekey(b.Ri, b.Gs, jgs, jgd)
		if err != nil {
			t.Fatal(err)
		}
		line("json", jgs, jgd, jri)
	}
	if *updateKeys {
		if err := os.WriteFile(keysGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(keysGolden)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("keys differ from %s at line %d:\n  want %s\n  got  %s", keysGolden, i+1, wl[i], gl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("keys differ from %s in length: want %d lines, got %d", keysGolden, len(wl), len(gl))
	}
}
