package bench

import (
	"fmt"
	"strings"
	"time"

	"entangle/internal/fuzz"
)

// FuzzPoint is one fuzz-campaign measurement — one row of
// `entangle-bench -exp fuzz` and one entry of the BENCH_fuzz.json
// trajectory. The experiment self-gates: a point is only emitted after
// every paper bug class came back as a minimized Disproved witness,
// every correct composition passed the numeric differential, and no
// case was unsound, so the trajectory tracks throughput and gap counts
// of a *verified* fuzzer; CompareFuzz ratchets the counts.
type FuzzPoint struct {
	// Cases is how many compositions (correct + injected) the campaign
	// checked and cross-checked numerically.
	Cases int `json:"cases"`
	// CasesPerSec is end-to-end campaign throughput: compose + check +
	// numeric differential per case.
	CasesPerSec float64 `json:"cases_per_sec"`
	// UniqueGaps counts distinct lemma-gap fingerprints — the fuzzer's
	// standing work list for the lemma library (0 is the goal).
	UniqueGaps int `json:"unique_gaps"`
	// Rediscovered / Injected: injection detection, campaign-wide.
	Injected     int `json:"injected"`
	Rediscovered int `json:"rediscovered"`
	// ClassesRediscovered is how many of the nine paper bug classes
	// the directed rediscovery search brought back as minimized
	// Disproved witnesses (gated to be all nine).
	ClassesRediscovered int `json:"classes_rediscovered"`
	// ShrinkMeanOps is the mean G_s operator count of the minimized
	// witnesses — the shrink-quality metric (small is good).
	ShrinkMeanOps float64 `json:"shrink_mean_ops"`
}

// fuzzCampaignN is the campaign size: large enough that every strategy
// rule and most defect classes get exercised, small enough for a PR
// gate.
const fuzzCampaignN = 40

// Fuzz runs the randomized-strategy fuzzer experiment: a seeded
// campaign plus the directed §6.2 rediscovery sweep, self-gated on
// soundness and on full bug-class coverage.
func Fuzz() (string, []FuzzPoint, error) {
	var out strings.Builder
	out.WriteString("Fuzz: randomized strategies, injected defects, numeric differential (internal/fuzz)\n")
	out.WriteString("-------------------------------------------------------------------------------\n")

	start := time.Now()
	stats, err := fuzz.Run(fuzz.Config{Seed: 20260808, N: fuzzCampaignN, MaxDegree: 4, Workers: 2, Shrink: true})
	if err != nil {
		return "", nil, err
	}
	elapsed := time.Since(start)

	// Gate 1: soundness. A single unsound case poisons the experiment.
	if stats.Unsound > 0 {
		return "", nil, fmt.Errorf("bench: fuzz: %d UNSOUND case(s): %+v", stats.Unsound, stats.Repros)
	}
	fmt.Fprintf(&out, "campaign: %d cases (%d correct, %d injected) in %.2fs\n",
		stats.Cases, stats.Correct, stats.Injected, elapsed.Seconds())
	fmt.Fprintf(&out, "  agree %d  rediscovered %d  masked %d  lemma gaps %d (%d unique)  unsound %d\n",
		stats.Agree, stats.Rediscovered, stats.Masked, stats.LemmaGaps, stats.UniqueGaps(), stats.Unsound)
	for _, k := range stats.SortedGapKeys() {
		fmt.Fprintf(&out, "  gap %-40s ×%d\n", k, stats.GapKeys[k])
	}

	// Gate 2: the §6.2 rediscovery sweep — every paper bug class must
	// come back as a minimized Disproved witness.
	out.WriteString("\nbug-class rediscovery (minimized witnesses):\n")
	totalOps, found := 0, 0
	for _, cl := range fuzz.Classes {
		res, err := fuzz.Rediscover(cl, 42, 2, 200)
		if err != nil {
			return "", nil, fmt.Errorf("bench: fuzz: class %s not rediscovered: %v", cl, err)
		}
		ops := res.Case.Gs.OperatorCount()
		totalOps += ops
		found++
		fmt.Fprintf(&out, "  bug %d %-20s disproved, minimized to %d op(s): %s\n",
			cl.PaperBug(), cl, ops, res.Case.Plan)
	}

	point := FuzzPoint{
		Cases:               stats.Cases,
		CasesPerSec:         float64(stats.Cases) / elapsed.Seconds(),
		UniqueGaps:          stats.UniqueGaps(),
		Injected:            stats.Injected,
		Rediscovered:        stats.Rediscovered,
		ClassesRediscovered: found,
		ShrinkMeanOps:       float64(totalOps) / float64(found),
	}
	fmt.Fprintf(&out, "\nthroughput %.1f cases/sec, %d unique lemma gap(s), shrink quality %.1f mean ops\n",
		point.CasesPerSec, point.UniqueGaps, point.ShrinkMeanOps)
	out.WriteString("gates: all 9 bug classes rediscovered as Disproved; zero unsound; every Refined case passed the numeric differential\n")
	return out.String(), []FuzzPoint{point}, nil
}

// CompareFuzz is the fuzz trajectory's ratchet: against the baseline
// (the committed trajectory's last run) the distinct lemma gaps may not
// rise, the share of injected defects rediscovered may not fall, and
// every paper bug class must have come back. All three are counts of a
// seeded campaign and repeat, so — unlike CompareSaturate's throughput —
// none is worth re-measuring: the timing violations are always empty.
func CompareFuzz(baseline, current []FuzzPoint) (report string, timing map[string]string, counts []string) {
	if len(baseline) != 1 || baseline[0].Injected == 0 {
		return "", nil, []string{"the baseline's last run is not a fuzz campaign"}
	}
	b, p := baseline[0], current[0]
	const row = "%-9s %12d %13d %9d %8d\n"
	report = fmt.Sprintf("%-9s %12s %13s %9s %8s\n", "", "unique gaps", "rediscovered", "injected", "classes") +
		fmt.Sprintf(row, "baseline", b.UniqueGaps, b.Rediscovered, b.Injected, b.ClassesRediscovered) +
		fmt.Sprintf(row, "now", p.UniqueGaps, p.Rediscovered, p.Injected, p.ClassesRediscovered)
	if p.UniqueGaps > b.UniqueGaps {
		counts = append(counts, fmt.Sprintf("%d unique lemma gaps, baseline %d", p.UniqueGaps, b.UniqueGaps))
	}
	if p.ClassesRediscovered < len(fuzz.Classes) {
		counts = append(counts, fmt.Sprintf("%d of %d bug classes rediscovered", p.ClassesRediscovered, len(fuzz.Classes)))
	}
	if p.Rediscovered*b.Injected < b.Rediscovered*p.Injected {
		counts = append(counts, fmt.Sprintf("%d of %d injected defects rediscovered, baseline %d of %d",
			p.Rediscovered, p.Injected, b.Rediscovered, b.Injected))
	}
	return report, nil, counts
}
