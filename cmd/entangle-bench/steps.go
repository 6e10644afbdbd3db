package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"entangle/internal/bench"
)

// text adapts an experiment that also returns data to a text-only step.
func text[D any](exp func() (string, D, error)) func() (string, error) {
	return func() (string, error) {
		txt, _, err := exp()
		return txt, err
	}
}

// recorded adapts an experiment yielding trajectory points to a step
// that, under -json, appends them to the trajectory file. The
// experiments self-gate on correctness, so every recorded point is a
// verified one.
func recorded[P any](exp func() (string, []P, error)) func() (string, error) {
	return func() (string, error) {
		txt, points, err := exp()
		if err != nil {
			return "", err
		}
		return record(txt, points)
	}
}

func record[P any](txt string, points []P) (string, error) {
	if *jsonOut == "" {
		return txt, nil
	}
	if err := appendTrajectory(*jsonOut, points); err != nil {
		return "", err
	}
	return txt + fmt.Sprintf("appended %d data points to %s\n", len(points), *jsonOut), nil
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

// runSaturate additionally gates on `-baseline`: the cold-check
// hot-path numbers — throughput, and the e-matches and allocated bytes
// per check — must not regress against that trajectory's last
// committed run, and the rule applications per check must not move.
func runSaturate() (string, error) {
	txt, points, err := bench.Saturate()
	if err != nil {
		return "", err
	}
	if *baseline != "" {
		base, err := lastSaturateRun(*baseline)
		if err != nil {
			return "", err
		}
		// A throughput measurement that regresses is retried before
		// the gate fails: a genuine regression reproduces on every
		// attempt, while a transient slow period on a shared CI runner
		// does not. The match, byte and application counts repeat: those
		// fail at once.
		const gateAttempts = 3
		var cmp string
		var slower, moreWork []string
		for attempt := 1; ; attempt++ {
			cmp, slower, moreWork = bench.CompareSaturate(base.Points, points, *tolerance)
			if len(slower) == 0 || len(moreWork) > 0 || attempt == gateAttempts {
				break
			}
			fmt.Fprintf(os.Stderr, "entangle-bench: saturate: attempt %d/%d regressed, re-measuring\n",
				attempt, gateAttempts)
			txt, points, err = bench.Saturate()
			if err != nil {
				return "", err
			}
		}
		txt += fmt.Sprintf("baseline: %s (%s, go %s)\n%s", *baseline, base.Timestamp, base.Go, cmp)
		if violations := append(moreWork, slower...); len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintf(os.Stderr, "entangle-bench: saturate: REGRESSION: %s\n", v)
			}
			return "", fmt.Errorf("cold check regressed: throughput beyond %.0f%% on %d workload(s), e-matches or allocated bytes above baseline or applications off it %d time(s)",
				*tolerance*100, len(slower), len(moreWork))
		}
		txt += "regression gate: OK\n"
	}
	return record(txt, points)
}

func lastSaturateRun(path string) (*benchRun[bench.SaturatePoint], error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []benchRun[bench.SaturatePoint]
	if err := json.Unmarshal(data, &runs); err != nil {
		return nil, fmt.Errorf("%s: trajectory unreadable: %v", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: trajectory empty", path)
	}
	return &runs[len(runs)-1], nil
}
