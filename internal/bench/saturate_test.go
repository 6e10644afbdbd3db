package bench

import (
	"testing"

	"entangle/internal/core"
)

// TestCompareSaturateGates pins the -baseline gate: the tolerance
// applies to the timing only; the match count is exact, the bytes and
// the allocations per check may not rise beyond their counting slack, the
// e-matches that ran may not rise where the baseline recorded them, the
// applications per check may not move either way, and a measured
// workload the baseline has no point for fails: that baseline is
// another experiment's file.
func TestCompareSaturateGates(t *testing.T) {
	base := []SaturatePoint{
		{Workload: "a", ChecksPerSec: 100, Matches: 1000, BytesPerCheck: 1e6},
		{Workload: "b", ChecksPerSec: 100, Matches: 1000, BytesPerCheck: 1e6},
		{Workload: "c", ChecksPerSec: 100, Matches: 1000, BytesPerCheck: 1e6},
		{Workload: "d", ChecksPerSec: 100, Matches: 1000, BytesPerCheck: 1e6},
		{Workload: "e", ChecksPerSec: 100, Matches: 1000, BytesPerCheck: 1e6, Applications: 50},
		{Workload: "f", ChecksPerSec: 100, Matches: 1000, BytesPerCheck: 1e6, Applications: 50},
		{Workload: "g", ChecksPerSec: 100, Matches: 1000, BytesPerCheck: 1e6}, // recorded before the field existed
		{Workload: "h", ChecksPerSec: 100, Matches: 1000, BytesPerCheck: 1e6, AllocsPerCheck: 1000},
		{Workload: "i", ChecksPerSec: 100, Matches: 1000, BytesPerCheck: 1e6, AllocsPerCheck: 1000},
		{Workload: "j", ChecksPerSec: 100, Matches: 1000, BytesPerCheck: 1e6, LiveMatches: 800},
		{Workload: "k", ChecksPerSec: 100, Matches: 1000, BytesPerCheck: 1e6}, // recorded before live_matches existed
		{Workload: "l", ChecksPerSec: 100, Matches: 1000, BytesPerCheck: 1e6, LiveMatches: 800},
	}
	now := []SaturatePoint{
		{Workload: "a", ChecksPerSec: 85, Matches: 1000, BytesPerCheck: 1.005e6},               // within tolerance, same work
		{Workload: "b", ChecksPerSec: 70, Matches: 600, BytesPerCheck: 0.5e6},                  // slower
		{Workload: "c", ChecksPerSec: 140, Matches: 1001, BytesPerCheck: 1e6},                  // faster, but one more match
		{Workload: "d", ChecksPerSec: 140, Matches: 900, BytesPerCheck: 1.2e6},                 // faster, but allocates more
		{Workload: "e", ChecksPerSec: 140, Matches: 900, BytesPerCheck: 1e6, Applications: 49}, // fewer matches, and an application went missing
		{Workload: "f", ChecksPerSec: 100, Matches: 900, BytesPerCheck: 1e6, Applications: 50},
		{Workload: "g", ChecksPerSec: 100, Matches: 900, BytesPerCheck: 1e6, Applications: 50},
		{Workload: "h", ChecksPerSec: 100, Matches: 1000, BytesPerCheck: 1e6, AllocsPerCheck: 1005},  // within the counting slack
		{Workload: "i", ChecksPerSec: 140, Matches: 900, BytesPerCheck: 0.9e6, AllocsPerCheck: 1100}, // faster, fewer bytes, but more objects
		{Workload: "j", ChecksPerSec: 140, Matches: 1000, BytesPerCheck: 1e6, LiveMatches: 801},      // one more e-match ran
		{Workload: "k", ChecksPerSec: 100, Matches: 1000, BytesPerCheck: 1e6, LiveMatches: 1000},
		{Workload: "l", ChecksPerSec: 100, Matches: 1000, BytesPerCheck: 1e6, LiveMatches: 700}, // more reused
		{Workload: "new", ChecksPerSec: 100, Matches: 900, BytesPerCheck: 1e6},                  // not in the baseline
	}
	_, slower, moreWork := CompareSaturate(base, now)
	if len(slower) != 1 || slower["b"][:2] != "b:" {
		t.Errorf("throughput violations = %q, want exactly workload b", slower)
	}
	if len(moreWork) != 6 || moreWork[0][:2] != "c:" || moreWork[1][:2] != "d:" || moreWork[2][:2] != "e:" ||
		moreWork[3][:2] != "i:" || moreWork[4][:2] != "j:" || moreWork[5][:4] != "new:" {
		t.Errorf("count violations = %q, want workload c (matches), workload d (bytes), workload e (applications), workload i (allocations), workload j (e-matches that ran) and workload new (no baseline point)", moreWork)
	}
}

// TestDeepCheckReusesLayers: on GPT-tp8-L3, -exp saturate's deep point,
// operators of layers 1 and 2 reuse layer 0's searches, so fewer
// e-matches run than the report's Stats count.
func TestDeepCheckReusesLayers(t *testing.T) {
	for _, c := range saturateCases() {
		if c.Name != "GPT-tp8-L3" {
			continue
		}
		_, gs, gd, ri, err := c.Graphs()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.NewChecker(core.Options{Workers: 1}).Check(gs, gd, ri)
		if err != nil {
			t.Fatal(err)
		}
		if rep.LiveStats.Matches >= rep.Stats.Matches {
			t.Errorf("%s: %d e-matches ran of %d: no search was reused", c.Name, rep.LiveStats.Matches, rep.Stats.Matches)
		}
		t.Logf("%s: %d e-matches ran of %d", c.Name, rep.LiveStats.Matches, rep.Stats.Matches)
		return
	}
	t.Fatal("-exp saturate has no GPT-tp8-L3 point")
}
