package bench

import "testing"

// TestCompareSaturateGates pins both halves of the -baseline gate: the
// tolerance applies to the timing only, the match count is exact.
func TestCompareSaturateGates(t *testing.T) {
	base := []SaturatePoint{
		{Workload: "a", ChecksPerSec: 100, Matches: 1000},
		{Workload: "b", ChecksPerSec: 100, Matches: 1000},
		{Workload: "c", ChecksPerSec: 100, Matches: 1000},
	}
	now := []SaturatePoint{
		{Workload: "a", ChecksPerSec: 85, Matches: 1000},  // within tolerance, same work
		{Workload: "b", ChecksPerSec: 70, Matches: 600},   // slower
		{Workload: "c", ChecksPerSec: 140, Matches: 1001}, // faster, but one more match
		{Workload: "new", ChecksPerSec: 1, Matches: 1 << 20},
	}
	_, slower, moreMatches := CompareSaturate(base, now, 0.20)
	if len(slower) != 1 || slower[0][:2] != "b:" {
		t.Errorf("throughput violations = %q, want exactly workload b", slower)
	}
	if len(moreMatches) != 1 || moreMatches[0][:2] != "c:" {
		t.Errorf("match-count violations = %q, want exactly workload c", moreMatches)
	}
}
