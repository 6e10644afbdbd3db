package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// text adapts an experiment that also returns data to a text-only step.
func text[D any](exp func() (string, D, error)) func() (string, error) {
	return func() (string, error) {
		txt, _, err := exp()
		return txt, err
	}
}

// gated adapts an experiment that keeps a trajectory. Under -baseline
// its points must not regress against that trajectory's last committed
// run, as compare judges; under -json they are then appended to the
// trajectory. The experiments self-gate on correctness, so every
// recorded point is a verified one.
//
// compare returns the timing violations, keyed by the workload each is
// about, apart from the count violations. A timing that regresses is
// re-measured before the gate fails: a genuine regression reproduces on
// every attempt, while a transient slow period on a shared CI runner
// does not — and does not pick its moment, so a workload's violation is
// cleared by the best of its attempts, not only by an attempt in which
// every workload clears the floor at once. Counts repeat: those fail at
// once.
func gated[P any](measure func() (string, []P, error), compare func(base, now []P) (report string, timing map[string]string, counts []string)) func() (string, error) {
	return func() (string, error) {
		txt, points, err := measure()
		if err != nil {
			return "", err
		}
		if *baseline != "" {
			base, err := lastRun[P](*baseline)
			if err != nil {
				return "", err
			}
			const gateAttempts = 3
			// slow holds the workloads whose timing has violated in every
			// attempt so far, each with its latest message.
			cmp, slow, counts := compare(base.Points, points)
			for attempt := 1; len(slow) > 0 && len(counts) == 0 && attempt < gateAttempts; attempt++ {
				fmt.Fprintf(os.Stderr, "entangle-bench: attempt %d/%d regressed, re-measuring\n", attempt, gateAttempts)
				if txt, points, err = measure(); err != nil {
					return "", err
				}
				var again map[string]string
				cmp, again, counts = compare(base.Points, points)
				for w := range slow {
					if msg, still := again[w]; still {
						slow[w] = msg
					} else {
						delete(slow, w)
					}
				}
			}
			timing := make([]string, 0, len(slow))
			for _, msg := range slow {
				timing = append(timing, msg)
			}
			sort.Strings(timing)
			txt += fmt.Sprintf("baseline: %s (%s, go %s)\n%s", *baseline, base.Timestamp, base.Go, cmp)
			if violations := append(counts, timing...); len(violations) > 0 {
				for _, v := range violations {
					fmt.Fprintf(os.Stderr, "entangle-bench: REGRESSION: %s\n", v)
				}
				return "", fmt.Errorf("regressed against %s: %d count and %d timing violation(s)", *baseline, len(counts), len(timing))
			}
			txt += "regression gate: OK\n"
		}
		if *jsonOut != "" {
			if err := appendTrajectory(*jsonOut, points); err != nil {
				return "", err
			}
			txt += fmt.Sprintf("appended %d data points to %s\n", len(points), *jsonOut)
		}
		return txt, nil
	}
}

// benchRun is one recorded experiment invocation in a trajectory file:
// each BENCH_*.json holds an array of these, one per run, so the series
// tracks the experiment's numbers across checker versions.
type benchRun[P any] struct {
	Timestamp string `json:"timestamp"`
	Go        string `json:"go"`
	Points    []P    `json:"points"`
}

// appendTrajectory appends one run to the trajectory at path. Existing
// runs are carried as raw JSON, so their bytes survive unchanged even
// when the point type has since grown fields.
func appendTrajectory[P any](path string, points []P) error {
	var runs []json.RawMessage
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &runs); err != nil {
			return fmt.Errorf("%s: existing trajectory unreadable: %v", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	last, err := json.Marshal(benchRun[P]{
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Go:        runtime.Version(),
		Points:    points,
	})
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(append(runs, last), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// lastRun reads the run a -baseline gate compares against: the last
// one of the trajectory at path, its points decoded as P.
func lastRun[P any](path string) (*benchRun[P], error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []benchRun[P]
	if err := json.Unmarshal(data, &runs); err != nil {
		return nil, fmt.Errorf("%s: trajectory unreadable: %v", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: trajectory empty", path)
	}
	return &runs[len(runs)-1], nil
}
