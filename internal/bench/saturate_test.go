package bench

import "testing"

// TestCompareSaturateGates pins the -baseline gate: the tolerance
// applies to the timing only; the match count is exact, the bytes and
// the allocations per check may not rise beyond their counting slack, the
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
		{Workload: "new", ChecksPerSec: 100, Matches: 900, BytesPerCheck: 1e6},                       // not in the baseline
	}
	_, slower, moreWork := CompareSaturate(base, now)
	if len(slower) != 1 || slower["b"][:2] != "b:" {
		t.Errorf("throughput violations = %q, want exactly workload b", slower)
	}
	if len(moreWork) != 5 || moreWork[0][:2] != "c:" || moreWork[1][:2] != "d:" || moreWork[2][:2] != "e:" ||
		moreWork[3][:2] != "i:" || moreWork[4][:4] != "new:" {
		t.Errorf("count violations = %q, want workload c (matches), workload d (bytes), workload e (applications), workload i (allocations) and workload new (no baseline point)", moreWork)
	}
}
