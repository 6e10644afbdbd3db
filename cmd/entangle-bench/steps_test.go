package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"entangle/internal/bench"
)

// TestAppendTrajectoryPreservesRuns appends a run to a copy of every
// committed trajectory: the existing runs' bytes must survive, so a
// recording session never rewrites history.
func TestAppendTrajectoryPreservesRuns(t *testing.T) {
	for name, appendRun := range map[string]func(path string) error{
		"BENCH_fuzz.json":     func(p string) error { return appendTrajectory(p, []bench.FuzzPoint{{}}) },
		"BENCH_saturate.json": func(p string) error { return appendTrajectory(p, []bench.SaturatePoint{{}}) },
	} {
		before, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, before, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := appendRun(path); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		kept := bytes.TrimSuffix(before, []byte("\n]\n"))
		if len(kept) == len(before) || !bytes.HasPrefix(after, append(kept, ",\n  {"...)) {
			t.Errorf("%s: appending a run rewrote the existing runs", name)
		}
	}
	// The -baseline gates read the typed form of what was appended.
	path := filepath.Join(t.TempDir(), "new.json")
	if err := appendTrajectory(path, []bench.SaturatePoint{{Workload: "w"}}); err != nil {
		t.Fatal(err)
	}
	last, err := lastRun[bench.SaturatePoint](path)
	if err != nil || len(last.Points) != 1 || last.Points[0].Workload != "w" {
		t.Fatalf("round trip: %+v, %v", last, err)
	}
}

// TestTrajectoryFlagsNeedOneExperiment: a trajectory file holds one
// experiment's runs, so -json or -baseline without -exp saturate or
// -exp fuzz is a usage error (exit 2) before anything runs or is
// written. Under the default -exp all, -json used to append every
// recordable experiment's points to the one file, and -exp saturate
// -baseline then read the last (fuzz) run as saturate points.
func TestTrajectoryFlagsNeedOneExperiment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.json")
	defer func() { *exp, *jsonOut, *baseline = "all", "", "" }()
	for _, e := range []string{"all", "fig3"} {
		*exp, *jsonOut, *baseline = e, path, ""
		if code := run(); code != 2 {
			t.Errorf("-exp %s -json: exit %d, want 2", e, code)
		}
		*jsonOut, *baseline = "", path
		if code := run(); code != 2 {
			t.Errorf("-exp %s -baseline: exit %d, want 2", e, code)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("a refused run wrote %s (stat: %v)", path, err)
	}
}

// TestGateClearsEachWorkloadByItsBestAttempt: a timing violation is a
// workload's own, and one attempt in which that workload clears the
// floor clears it — the gate used to want a single attempt in which
// every workload did, and failed an unchanged tree when two workloads
// took turns being slow. A workload slow in every attempt still fails,
// and a count violation fails at once, without a re-measurement.
func TestGateClearsEachWorkloadByItsBestAttempt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "base.json")
	if err := appendTrajectory(path, []string{"baseline"}); err != nil {
		t.Fatal(err)
	}
	defer func() { *baseline = "" }()
	*baseline = path
	// A point is the names of the workloads that are slow in that
	// measurement; "count!" is a count violation.
	compare := func(_, now []string) (string, map[string]string, []string) {
		timing, counts := map[string]string{}, []string(nil)
		for _, w := range now {
			if w == "count!" {
				counts = append(counts, "a count moved")
			} else {
				timing[w] = w + ": slow"
			}
		}
		return "", timing, counts
	}
	for _, tc := range []struct {
		name     string
		attempts [][]string
		measured int
		ok       bool
	}{
		{"all clear at once", [][]string{{}}, 1, true},
		{"two workloads take turns", [][]string{{"a"}, {"b"}, {"a", "b"}}, 2, true},
		{"cleared on the last attempt", [][]string{{"a", "b"}, {"a"}, {"b"}}, 3, true},
		{"one workload slow every time", [][]string{{"a", "b"}, {"a"}, {"a", "c"}}, 3, false},
		{"a count fails at once", [][]string{{"a", "count!"}, {}}, 1, false},
		{"a count in a re-measurement", [][]string{{"a"}, {"count!"}, {}}, 2, false},
	} {
		measured := 0
		measure := func() (string, []string, error) {
			measured++
			return "", tc.attempts[measured-1], nil
		}
		_, err := gated(measure, compare)()
		if (err == nil) != tc.ok || measured != tc.measured {
			t.Errorf("%s: gate error %v after %d measurements, want ok=%t after %d", tc.name, err, measured, tc.ok, tc.measured)
		}
	}
}
