package bench

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"time"

	"entangle/internal/core"
	"entangle/internal/lemmas"
)

// SaturatePoint is one workload's cold-check hot-path measurement —
// one row of `entangle-bench -exp saturate` and one entry of the
// BENCH_saturate.json trajectory. Every metric is per *cold* check
// (no verdict cache, Workers 1): this is the floor every cache miss
// pays, which a saturation-side speedup must move.
type SaturatePoint struct {
	Workload string `json:"workload"`
	Ops      int    `json:"ops"`
	// Checks is how many timed cold checks the averages below cover.
	Checks int     `json:"checks"`
	ColdMS float64 `json:"cold_ms"` // mean wall-clock per cold check
	// ChecksPerSec is the cold-check throughput — the regression-gate
	// metric (-baseline fails on a drop beyond throughputTolerance).
	ChecksPerSec float64 `json:"checks_per_sec"`
	// Iterations and Matches are per check: total saturation iterations
	// across all per-operator e-graphs, and total e-matches collected.
	// MatchesPerIter is their ratio — the match-loop work one
	// saturation iteration pays, which dirty-class tracking shrinks.
	Iterations     int     `json:"iterations"`
	Matches        int     `json:"matches"`
	MatchesPerIter float64 `json:"matches_per_iter"`
	// Applications is the rule applications of one check, all rules
	// together. It is deterministic and no matcher change may move it:
	// a gate that withholds a match an earlier application of the same
	// apply phase would have made effective shows up here first (zero in
	// runs recorded before the field existed).
	Applications int `json:"applications,omitempty"`
	// LiveMatches is the e-matches of the saturations that ran: Matches
	// less those of the searches a check reused from an ancestor operator
	// instead of running (zero in runs recorded before the field existed).
	LiveMatches int `json:"live_matches,omitempty"`
	// AllocsPerCheck / BytesPerCheck are heap allocation counts and
	// bytes per cold check (runtime.MemStats deltas over the timed
	// runs) — the GC-pressure metric interning and scratch reuse drive
	// down.
	AllocsPerCheck float64 `json:"allocs_per_check"`
	BytesPerCheck  float64 `json:"bytes_per_check"`
}

// saturateWorkloads is the hot-path corpus: the ByteDance stand-ins
// the acceptance gate tracks, plus GPT and Llama-3 (via HLO) for
// breadth. All are checked at parallelism 2 with one layer, matching
// the Figure 3 configurations.
func saturateWorkloads() []Workload {
	var out []Workload
	keep := map[string]bool{"ByteDance-Fwd": true, "ByteDance-Bwd": true, "GPT": true, "Llama-3": true}
	for _, w := range Fig3Workloads() {
		if keep[w.Name] {
			out = append(out, w)
		}
	}
	return out
}

// saturateCases is what `-exp saturate` measures, each case named as
// its point: the corpus at its Figure 3 configuration — e-graphs of at
// most a hundred nodes, under a megabyte a check — and GPT at
// parallelism 8 with three layers, where the end-to-end benchmark's
// cost sits: e-graphs of up to ≈ 480 live nodes over more class slots
// than a recycled graph keeps.
func saturateCases() []ZooCase {
	var out []ZooCase
	for _, w := range saturateWorkloads() {
		c := w.Case(2, 1)
		c.Name = w.Name
		out = append(out, c)
	}
	deep := fig3Workload("GPT").Case(8, 3)
	deep.Name = "GPT-tp8-L3"
	return append(out, deep)
}

// Saturate measures the cold-check hot path on the saturation corpus.
func Saturate() (string, []SaturatePoint, error) {
	var out strings.Builder
	fmt.Fprintln(&out, "Saturate: cold-check hot path (no cache, workers=1; parallelism 2, 1 layer unless named otherwise)")
	fmt.Fprintf(&out, "%-16s %6s %10s %10s %8s %9s %9s %7s %11s %11s\n",
		"model", "#ops", "cold", "checks/s", "iters", "matches", "live", "apps", "allocs/chk", "MB/chk")
	var points []SaturatePoint
	for _, c := range saturateCases() {
		p, err := saturatePoint(c)
		if err != nil {
			return "", nil, err
		}
		points = append(points, *p)
		fmt.Fprintf(&out, "%-16s %6d %10s %10.1f %8d %9d %9d %7d %11.0f %11.2f\n",
			p.Workload, p.Ops,
			time.Duration(p.ColdMS*float64(time.Millisecond)).Round(10*time.Microsecond),
			p.ChecksPerSec, p.Iterations, p.Matches, p.LiveMatches, p.Applications, p.AllocsPerCheck,
			p.BytesPerCheck/(1<<20))
	}
	fmt.Fprintln(&out, "(every check is cold: the per-op e-graphs saturate from scratch — the floor under each cache miss)")
	return out.String(), points, nil
}

// saturatePoint times repeated cold checks of one workload. The build
// and (for Llama) the HLO round trip happen once, outside the timed
// region; each timed check re-runs the full wavefront walk, every
// per-operator e-graph saturating from empty.
func saturatePoint(c ZooCase) (*SaturatePoint, error) {
	_, gs, gd, ri, err := c.Graphs()
	if err != nil {
		return nil, err
	}
	checker := core.NewChecker(core.Options{Registry: lemmas.Default(), Workers: 1})

	// Warm-up run: page in code paths and steady-state the heap, and
	// capture the per-check saturation stats (deterministic across
	// runs, so one sample suffices).
	warm, err := checker.Check(gs, gd, ri)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", c.Name, err)
	}

	// Time enough checks to cover ~1s of wall clock (min 4), split
	// into batches; the reported per-check time is the median batch.
	// A single long average is hostage to transient machine load, and
	// min-of-batches is hostage to a lucky turbo burst — the median is
	// stable against both, which is what keeps the CI regression gate
	// from tripping on a noisy neighbor.
	n := 4
	if est := warm.Duration; est > 0 {
		if byTime := int(time.Second / est); byTime > n {
			n = byTime
		}
		if n > 200 {
			n = 200
		}
	}
	const batches = 5
	per := n / batches
	if per < 1 {
		per = 1
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	total := 0
	durs := make([]time.Duration, batches)
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < per; i++ {
			if _, err := checker.Check(gs, gd, ri); err != nil {
				return nil, fmt.Errorf("%s: %v", c.Name, err)
			}
		}
		durs[b] = time.Since(start)
		total += per
	}
	n = total
	runtime.ReadMemStats(&after)
	slices.Sort(durs)
	med := durs[batches/2]

	coldMS := msOf(med) / float64(per)
	perSec := 0.0
	if med > 0 {
		perSec = float64(per) / med.Seconds()
	}
	iters := warm.Stats.Iterations
	matches := warm.Stats.Matches
	mpi := 0.0
	if iters > 0 {
		mpi = float64(matches) / float64(iters)
	}
	apps := 0
	for _, n := range warm.Stats.Applications {
		apps += n
	}
	return &SaturatePoint{
		Workload:       c.Name,
		Ops:            gs.OperatorCount() + gd.OperatorCount(),
		Checks:         n,
		ColdMS:         coldMS,
		ChecksPerSec:   perSec,
		Iterations:     iters,
		Matches:        matches,
		MatchesPerIter: mpi,
		Applications:   apps,
		LiveMatches:    warm.LiveStats.Matches,
		AllocsPerCheck: float64(after.Mallocs-before.Mallocs) / float64(n),
		BytesPerCheck:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
	}, nil
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// throughputTolerance is the fractional drop in checks/sec against the
// baseline that the gate still puts down to the machine.
const throughputTolerance = 0.20

// allocSlack is how far bytes_per_check and allocs_per_check may each
// read above the baseline before the gate calls it a rise. The counts
// repeat to within a few hundredths of a percent from run to run (the
// per-process fixed cost is spread over however many checks the timing
// budget allowed); what the gate is after — scratch that stopped
// surviving a graph's Release, a new per-match allocation — moves them
// by tens of percent.
const allocSlack = 0.01

// CompareSaturate gates CI on cold-check regressions: every measured
// workload must have a point in the baseline (the committed
// trajectory's last run) — a baseline without one is the wrong file,
// not a pass — its checks/sec must be at least (1 - throughputTolerance)
// × baseline, neither the e-matches collected nor the bytes and
// objects allocated per check may exceed the baseline's, nor may the
// e-matches of the saturations that ran (where it recorded them), and
// the rule applications per check must equal the baseline's (where it
// recorded them). It returns
// a human-readable comparison plus the violations of each kind. A
// throughput violation is a timing and may be a noisy neighbour, so the
// caller re-measures before believing it, workload by workload (slower
// is keyed by workload); the others are counts — the
// matcher collected more matches, a check allocates what it used to
// recycle, a rule fired more or fewer times — and are final.
func CompareSaturate(baseline, current []SaturatePoint) (report string, slower map[string]string, moreWork []string) {
	slower = map[string]string{}
	base := map[string]SaturatePoint{}
	for _, p := range baseline {
		base[p.Workload] = p
	}
	var out strings.Builder
	fmt.Fprintf(&out, "%-16s %12s %12s %8s %12s %12s %12s %12s %12s %12s\n", "model", "base chk/s", "now chk/s", "ratio",
		"base matches", "now matches", "base KB/chk", "now KB/chk", "base allocs", "now allocs")
	for _, p := range current {
		b, ok := base[p.Workload]
		if !ok || b.ChecksPerSec <= 0 {
			fmt.Fprintf(&out, "%-16s %12s %12.1f %8s %12s %12d %12s %12.0f %12s %12.0f\n", p.Workload, "(none)", p.ChecksPerSec, "-",
				"(none)", p.Matches, "(none)", p.BytesPerCheck/1024, "(none)", p.AllocsPerCheck)
			moreWork = append(moreWork, fmt.Sprintf("%s: the baseline's last run has no point for it", p.Workload))
			continue
		}
		ratio := p.ChecksPerSec / b.ChecksPerSec
		fmt.Fprintf(&out, "%-16s %12.1f %12.1f %7.2fx %12d %12d %12.0f %12.0f %12.0f %12.0f\n", p.Workload, b.ChecksPerSec, p.ChecksPerSec, ratio,
			b.Matches, p.Matches, b.BytesPerCheck/1024, p.BytesPerCheck/1024, b.AllocsPerCheck, p.AllocsPerCheck)
		if ratio < 1-throughputTolerance {
			slower[p.Workload] = fmt.Sprintf("%s: cold throughput %.1f checks/s is %.0f%% of baseline %.1f (floor %.0f%%)",
				p.Workload, p.ChecksPerSec, 100*ratio, b.ChecksPerSec, 100*(1-throughputTolerance))
		}
		if p.Matches > b.Matches {
			moreWork = append(moreWork,
				fmt.Sprintf("%s: %d e-matches per check, baseline %d", p.Workload, p.Matches, b.Matches))
		}
		if b.LiveMatches > 0 && p.LiveMatches > b.LiveMatches {
			moreWork = append(moreWork,
				fmt.Sprintf("%s: %d e-matches ran per check, baseline %d", p.Workload, p.LiveMatches, b.LiveMatches))
		}
		if b.Applications > 0 && p.Applications != b.Applications {
			moreWork = append(moreWork,
				fmt.Sprintf("%s: %d rule applications per check, baseline %d: they are deterministic, and a matcher change must not move them", p.Workload, p.Applications, b.Applications))
		}
		if b.BytesPerCheck > 0 && p.BytesPerCheck > b.BytesPerCheck*(1+allocSlack) {
			moreWork = append(moreWork,
				fmt.Sprintf("%s: %.0f bytes allocated per check, baseline %.0f", p.Workload, p.BytesPerCheck, b.BytesPerCheck))
		}
		if b.AllocsPerCheck > 0 && p.AllocsPerCheck > b.AllocsPerCheck*(1+allocSlack) {
			moreWork = append(moreWork,
				fmt.Sprintf("%s: %.0f allocations per check, baseline %.0f", p.Workload, p.AllocsPerCheck, b.AllocsPerCheck))
		}
	}
	return out.String(), slower, moreWork
}
