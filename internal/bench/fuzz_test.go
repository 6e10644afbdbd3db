package bench

import "testing"

// TestCompareFuzzRatchet pins the fuzz trajectory's -baseline gate:
// the unique lemma gaps may fall but not rise, the rediscovered share
// of the injected defects may not fall, all nine bug classes must be
// back, and a last run that is not a fuzz campaign is refused.
func TestCompareFuzzRatchet(t *testing.T) {
	base := FuzzPoint{Cases: 180, UniqueGaps: 3, Injected: 140, Rediscovered: 140, ClassesRediscovered: 9}
	for _, tc := range []struct {
		name     string
		base     []FuzzPoint
		edit     func(p *FuzzPoint)
		violates bool
	}{
		{"same counts", []FuzzPoint{base}, func(p *FuzzPoint) { p.CasesPerSec = 1 }, false},
		{"a gap closed", []FuzzPoint{base}, func(p *FuzzPoint) { p.UniqueGaps = 2 }, false},
		{"a gap opened", []FuzzPoint{base}, func(p *FuzzPoint) { p.UniqueGaps = 4 }, true},
		{"an injected defect masked", []FuzzPoint{base}, func(p *FuzzPoint) { p.Rediscovered = 139 }, true},
		{"a bug class lost", []FuzzPoint{base}, func(p *FuzzPoint) { p.ClassesRediscovered = 8 }, true},
		{"a larger campaign, same share", []FuzzPoint{base}, func(p *FuzzPoint) { p.Injected, p.Rediscovered = 280, 280 }, false},
		{"baseline is another experiment's run", []FuzzPoint{{}, {}, {}, {}}, func(*FuzzPoint) {}, true},
	} {
		now := base
		tc.edit(&now)
		_, timing, counts := CompareFuzz(tc.base, []FuzzPoint{now})
		if len(timing) != 0 || (len(counts) > 0) != tc.violates {
			t.Errorf("%s: timing %q, counts %q; want a count violation: %v", tc.name, timing, counts, tc.violates)
		}
	}
}
