package vcache

import "entangle/internal/egraph"

// SegmentName names the segment numbered seq, for the external tests.
var SegmentName = segmentName

// FullStats is everything e's saturation took, its rule counts in
// Applications — what the constructors were given.
func FullStats(e *Entry) egraph.Stats {
	st := e.Stats()
	e.EachApplication(func(rule string, n int) {
		if st.Applications == nil {
			st.Applications = map[string]int{}
		}
		st.Applications[rule] = n
	})
	return st
}
