package fingerprint_test

import (
	"testing"

	"entangle/internal/bench"
	"entangle/internal/core"
	"entangle/internal/expr"
	"entangle/internal/fingerprint"
	"entangle/internal/vcache"
)

// entryLog is a verdict store that misses every probe and keeps the
// terms of every entry stored.
type entryLog struct {
	terms []string
	stats vcache.Stats
}

func (l *entryLog) Get(fingerprint.Hash) *vcache.Entry { return nil }
func (l *entryLog) Put(_ fingerprint.Hash, e *vcache.Entry) error {
	return e.EachTerm(func(_ int, term string) error {
		l.terms = append(l.terms, term)
		return nil
	})
}
func (l *entryLog) Stats() *vcache.Stats { return &l.stats }

// FuzzTermDecode: on any bytes, DecodeTerm returns a term or an error —
// a panic past its own recover fails the target — and a term it accepts
// encodes back through CanonicalTerm to exactly those bytes, against
// the first zoo pair's G_d index and against none. Seeded with every
// term the zoo's cold checks store in a verdict cache, with the frontier
// on and off: off, every input spelling is read, and the longer, older
// spellings a deep relation carries are extracted too.
func FuzzTermDecode(f *testing.F) {
	var ix *fingerprint.GdIndex
	for _, c := range bench.Zoo() {
		if c.Expectation {
			continue
		}
		_, gs, gd, ri, err := c.Graphs()
		if err != nil {
			f.Fatal(err)
		}
		if ix == nil {
			if ix, err = fingerprint.NewGdIndex(gd); err != nil {
				f.Fatal(err)
			}
		}
		for _, off := range []bool{false, true} {
			stored := &entryLog{} // one worker: Put is never called concurrently
			_, _ = core.NewChecker(core.Options{Cache: stored, Workers: 1, DisableFrontier: off}).Check(gs, gd, ri)
			for _, s := range stored.terms {
				f.Add(s)
			}
		}
	}
	f.Add("(slice||0,0+1*S,4|d0)")
	f.Add("(sum|||s0;(concat||1|d1;d2))")
	// Sums the zoo stored while the e-graph kept one node per kid order:
	// reordered and nested spellings a cache written then still holds.
	for _, s := range []string{
		"(sum|||(concat||0|d23;d24);d45;d46;d73;d74)",
		"(sum|||(concat||0|d23;d24);d45;d46;(concat||0|d75;d76))",
		"(sum|||d23;d53;d54;d39;d40)",
		"(sum|||d23;d39;d40;(sum|||d53;d54))",
		"(sum|||d39;d99;d100;d101;d102;d71;d72;d73;d74)",
		"(sum|||d39;d71;d72;d73;d74;(sum|||d99;d100;d101;d102))",
		"(sum|||d55;d103;d104;d105;d106;d107;d108;(sum|||d145;d146;d147;d148;d149;d150))",
		"(sum|||d71;d135;d136;d137;d138;d139;d140;d141;d142;(sum|||d191;d192;d193;d194;d195;d196;d197;d198))",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, ix := range []*fingerprint.GdIndex{ix, nil} {
			term, err := fingerprint.DecodeTerm(s, ix)
			if err != nil {
				continue
			}
			if back := fingerprint.CanonicalTerm(term, ix); back != s {
				t.Fatalf("DecodeTerm accepted %q, which encodes back as %q", s, back)
			}
		}
	})
}

// TestZooTermsDecodeAsExtracted: every term the zoo's cold checks store
// decodes to a term Equal to the one the live check extracted — the
// term of the check's own relation that CanonicalTerm spells the same,
// which is the stored one up to structure.
func TestZooTermsDecodeAsExtracted(t *testing.T) {
	n := 0
	for _, c := range bench.Zoo() {
		if c.Expectation {
			continue
		}
		name := c.Name
		_, gs, gd, ri, err := c.Graphs()
		if err != nil {
			t.Fatal(err)
		}
		ix, err := fingerprint.NewGdIndex(gd)
		if err != nil {
			t.Fatal(err)
		}
		stored := &entryLog{} // one worker: Put is never called concurrently
		report, _ := core.NewChecker(core.Options{Cache: stored, Workers: 1, KeepGoing: true}).Check(gs, gd, ri)
		if report == nil {
			t.Fatalf("%s: no report", name)
		}
		live := map[string]*expr.Term{}
		for _, id := range report.FullRelation.Tensors() {
			for _, term := range report.FullRelation.Get(id) {
				live[fingerprint.CanonicalTerm(term, ix)] = term
			}
		}
		for _, src := range stored.terms {
			back, err := fingerprint.DecodeTerm(src, ix)
			if err != nil {
				t.Fatalf("%s: stored term %q: %v", name, src, err)
			}
			want := live[src]
			if want == nil {
				t.Fatalf("%s: stored term %q is no term of the check's relation", name, src)
			}
			if !back.Equal(want) {
				t.Errorf("%s: %q decodes to %v, the check extracted %v", name, src, back, want)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("the zoo stored no terms")
	}
	t.Logf("%d stored terms", n)
}
