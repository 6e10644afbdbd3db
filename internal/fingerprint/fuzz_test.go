package fingerprint_test

import (
	"testing"

	"entangle/internal/bench"
	"entangle/internal/core"
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
// term the zoo's cold checks store in a verdict cache.
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
		stored := &entryLog{} // one worker: Put is never called concurrently
		_, _ = core.NewChecker(core.Options{Cache: stored, Workers: 1}).Check(gs, gd, ri)
		for _, s := range stored.terms {
			f.Add(s)
		}
	}
	f.Add("(slice||0,0+1*S,4|d0)")
	f.Add("(sum|||s0;(concat||1|d1;d2))")
	f.Fuzz(func(t *testing.T, s string) {
		for _, ix := range []*fingerprint.GdIndex{ix, nil} {
			term, err := fingerprint.DecodeTerm(s, ix, nil)
			if err != nil {
				continue
			}
			if back := fingerprint.CanonicalTerm(term, ix); back != s {
				t.Fatalf("DecodeTerm accepted %q, which encodes back as %q", s, back)
			}
		}
	})
}
