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
		"BENCH_cache.json":    func(p string) error { return appendTrajectory(p, []bench.CachePoint{{}}) },
		"BENCH_fleet.json":    func(p string) error { return appendTrajectory(p, []bench.FleetPoint{{}}) },
		"BENCH_diff.json":     func(p string) error { return appendTrajectory(p, []bench.DiffPoint{{}}) },
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
	// The saturate gate reads the typed form of what was appended.
	path := filepath.Join(t.TempDir(), "new.json")
	if err := appendTrajectory(path, []bench.SaturatePoint{{Workload: "w"}}); err != nil {
		t.Fatal(err)
	}
	last, err := lastSaturateRun(path)
	if err != nil || len(last.Points) != 1 || last.Points[0].Workload != "w" {
		t.Fatalf("round trip: %+v, %v", last, err)
	}
}
