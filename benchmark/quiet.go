package main

// Repeating replicas the host disturbed. The reference machine is a
// shared VM that runs the same daemon on the same requests 15-45%
// slower for a minute or two at a time (README.md has the series). A
// replica's daemon CPU time per request tells such a stretch from a
// quiet one to within 3%, because every replica of a workload is the
// same work, whatever the seed. A run therefore keeps measuring replicas
// until the ones it reports agree with the faster replicas this
// checkout has seen, within a time allowance that is saved between runs
// so that a slow hour cannot make the suite overrun.

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

const (
	// quietSlack is how far above the checkout's quiet level a replica's
	// CPU per request may lie and still count as undisturbed. Quiet
	// replicas of one workload differ by 1-3%.
	quietSlack = 1.08
	// maxReplicas bounds one run whatever the allowance.
	maxReplicas = 8
	// Every end-to-end run adds allowancePerRun to the checkout's
	// allowance for extra replicas, up to allowanceCap. The contract's 92
	// runs get 3420 s; the fixed part of them takes 1500-2100 s here
	// (README.md), so at most 88 x 8 s more keeps the whole inside it.
	allowancePerRun = 8 * time.Second
	allowanceCap    = 60 * time.Second
)

// hostState is what one checkout's runs hand to the next.
type hostState struct {
	// AllowanceS is the time left for extra replicas.
	AllowanceS float64 `json:"allowance_s"`
	// CPUMs is, per workload and scale, the daemon CPU per request of
	// every replica measured in this checkout.
	CPUMs map[string][]float64 `json:"cpu_ms_per_request"`
}

// quietLevel is the first quartile of the costs seen: low enough to lie
// among the undisturbed replicas while a fair share of them is, and not
// the minimum, which a single lucky replica would set where no later
// one reaches it.
func quietLevel(costs []float64) float64 { return percentile(costs, 25) }

// loadHostState reads path; a missing or unreadable file is a fresh
// checkout.
func loadHostState(path string) *hostState {
	st := &hostState{}
	if data, err := os.ReadFile(path); err == nil && json.Unmarshal(data, st) != nil {
		st = &hostState{}
	}
	if st.CPUMs == nil {
		st.CPUMs = map[string][]float64{}
	}
	return st
}

func (st *hostState) save(path string) error {
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// fastest returns the indices of the n lowest costs, in the order they
// were measured.
func fastest(costs []float64, n int) []int {
	idx := make([]int, len(costs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return costs[idx[a]] < costs[idx[b]] })
	idx = idx[:min(n, len(idx))]
	sort.Ints(idx)
	return idx
}

// settled reports whether the n fastest of costs all lie within
// quietSlack of the quiet level.
func settled(costs []float64, n int, quiet float64) bool {
	if len(costs) < n {
		return false
	}
	for _, i := range fastest(costs, n) {
		if costs[i] > quietSlack*quiet {
			return false
		}
	}
	return true
}
