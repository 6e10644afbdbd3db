package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestDeterminismCorpus runs the determinism check over the corpus in
// testdata/src/det/internal/core — a path whose suffix puts it under
// the determinism contract — and pins the exact findings.
func TestDeterminismCorpus(t *testing.T) {
	ds, err := Source("testdata/src/det/internal/core")
	if err != nil {
		t.Fatal(err)
	}
	findDiag(t, ds, CheckDeterminism, "wallClock")
	findDiag(t, ds, CheckDeterminism, "elapsed")
	findDiag(t, ds, CheckDeterminism, "draw")
	findDiag(t, ds, CheckDeterminism, "wrongPragma")
	findDiag(t, ds, CheckDeterminism, "deadline")
	noDiag(t, ds, CheckDeterminism, "annotated")
	noDiag(t, ds, CheckDeterminism, "formatted")
	for _, d := range ds {
		if d.Severity != SevError {
			t.Errorf("determinism findings must be errors, got %s", d)
		}
	}
	checkGolden(t, "determinism-golden.txt", ds)
}

// TestDeterminismScope: the same hazardous file outside the scoped
// package suffixes must produce no findings — the contract binds
// internal/core, internal/egraph, and internal/mc, not the world.
func TestDeterminismScope(t *testing.T) {
	src, err := os.ReadFile("testdata/src/det/internal/core/clock.go")
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "internal", "telemetry")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "clock.go"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := Source(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if d.Check == CheckDeterminism {
			t.Errorf("determinism check fired outside its package scope: %s", d)
		}
	}

	// And the suffix match must hold for absolute paths too, across
	// every package carrying the contract — internal/fingerprint joined
	// when the diff planner started deriving dirty sets from its cone
	// hashes, so a wall-clock read there would silently break plans;
	// internal/faultinject, whose fault decisions the chaos tests replay
	// by seed, promises them independent of the clock.
	for _, pkg := range determinismDirs {
		abs := filepath.Join(t.TempDir(), "work", filepath.FromSlash(pkg))
		if err := os.MkdirAll(abs, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(abs, "clock.go"), src, 0o644); err != nil {
			t.Fatal(err)
		}
		ds, err = Source(abs)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, d := range ds {
			found = found || d.Check == CheckDeterminism
		}
		if !found {
			t.Errorf("determinism check did not fire in an absolute %s path", pkg)
		}
	}
	if !determinismScoped("internal/faultinject") {
		t.Error("internal/faultinject is outside the determinism contract")
	}
}
