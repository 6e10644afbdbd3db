package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"entangle/internal/egraph"
	"entangle/internal/expr"
	"entangle/internal/fingerprint"
	"entangle/internal/graph"
	"entangle/internal/lemmas"
	"entangle/internal/models"
	"entangle/internal/vcache"
)

// update rewrites testdata/golden_reports.txt. The file was recorded at
// the commit preceding the per-operator ledger refactor; regenerate it
// only for a change that is meant to alter reports.
var update = flag.Bool("update", false, "rewrite golden files")

const goldenReports = "testdata/golden_reports.txt"

func goldenStats(s egraph.Stats) string {
	return fmt.Sprintf("iters=%d runs=%d matches=%d nodes=%d saturated=%t cancelled=%d budget=%d stop=%v apps=%v",
		s.Iterations, s.Runs, s.Matches, s.Nodes, s.Saturated, s.Cancelled, s.BudgetHit, s.StopReason,
		statLines(s.Applications))
}

func goldenVerdict(v OpVerdict) string {
	return fmt.Sprintf("  %s escalations=%d replayed=%t\n", v.Describe(), v.Escalations, v.Replayed)
}

// goldenCache is a run's cache section beside what the run did to its
// store's corrupt-entry and eviction counters, in the golden file's
// layout.
type goldenCache struct{ Hits, Misses, Stores, ReplayRejects, Corrupt, Evictions int64 }

// storeDelta is what happened to store's corrupt-entry and eviction
// counters since *last, which it moves to now.
func storeDelta(store *vcache.Cache, last *vcache.StatsSnapshot) vcache.StatsSnapshot {
	now := store.Stats().Snapshot()
	d := vcache.StatsSnapshot{Corrupt: now.Corrupt - last.Corrupt, Evictions: now.Evictions - last.Evictions}
	*last = now
	return d
}

// goldenReport renders every deterministic Report field, and store,
// the run's storeDelta.
func goldenReport(rep *Report, err error, gs *graph.Graph, store vcache.StatsSnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "error: %v\n", err != nil)
	if rep == nil {
		return b.String()
	}
	c := rep.Cache
	fmt.Fprintf(&b, "ops_processed=%d\nstats: %s\nlive:  %s\ncache: %+v\nverdicts:\n",
		rep.OpsProcessed, goldenStats(rep.Stats), goldenStats(rep.LiveStats),
		goldenCache{c.Hits, c.Misses, c.Stores, c.ReplayRejects, store.Corrupt, store.Evictions})
	for _, v := range rep.Verdicts {
		b.WriteString(goldenVerdict(v))
	}
	b.WriteString("failures:\n")
	for _, v := range rep.Failures {
		b.WriteString(goldenVerdict(v))
		if v.Err != nil {
			b.WriteString("    " + strings.ReplaceAll(strings.TrimSpace(v.Err.Error()), "\n", "\n    ") + "\n")
		}
	}
	if rep.OutputRelation != nil {
		b.WriteString("output relation:\n" + rep.OutputRelation.Render(gs))
	}
	fmt.Fprintf(&b, "full relation sha256: %x\n", sha256.Sum256([]byte(rep.FullRelation.Render(gs))))
	return b.String()
}

// goldenPlan renders a diff plan of gs's operators beside their cache
// keys.
func goldenPlan(t *testing.T, p *Plan, gs *graph.Graph, keys []fingerprint.Hash) string {
	order, err := gs.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	var b, hexKeys strings.Builder
	for i, op := range p.Ops {
		fmt.Fprintf(&b, "  %d %s %s: %s (%s)\n", i, op.Label, order[i].Op, op.Disposition, op.Reason)
		hexKeys.WriteString(keys[i].Hex() + ";")
	}
	return fmt.Sprintf("keys=%x\n%s", sha256.Sum256([]byte(hexKeys.String())), b.String())
}

// goldenEdit clones gs and rewires the last two-operand add/sum in
// topological order: swapped operands preserve refinement (but move the
// cone fingerprint); a duplicated operand breaks it.
func goldenEdit(t *testing.T, gs *graph.Graph, broken bool) *graph.Graph {
	t.Helper()
	order, err := gs.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if (v.Op != expr.OpAdd && v.Op != expr.OpSum) || len(v.Inputs) != 2 || v.Inputs[0] == v.Inputs[1] {
			continue
		}
		edited := gs.Clone()
		n := edited.Node(v.ID)
		if broken {
			n.Inputs[1] = n.Inputs[0]
		} else {
			n.Inputs[0], n.Inputs[1] = n.Inputs[1], n.Inputs[0]
		}
		return edited
	}
	t.Fatal("no add/sum operator to edit")
	return nil
}

type goldenSection struct{ name, text string }

// goldenScenario drives one model through cold, warm, one-op edit,
// broken edit and a KeepGoing failure on one shared cache. An edit is a
// diff on the planned path, with its *.plan and *.delta sections, and a
// KeepGoing check of the edited graph on the unplanned one; every other
// section must be identical across workers and planned/unplanned.
func goldenScenario(t *testing.T, name string, good, bad *models.Built, workers int, unplanned bool) []goldenSection {
	t.Helper()
	cache := openCache(t)
	last := cache.Stats().Snapshot()
	opts := Options{Registry: lemmas.Default(), Cache: cache, Workers: workers, unplanned: unplanned}
	checker := NewChecker(opts)
	opts.KeepGoing = true
	keepGoing := NewChecker(opts)

	var out []goldenSection
	add := func(section string, rep *Report, err error, gs *graph.Graph) {
		out = append(out, goldenSection{name + "/" + section, goldenReport(rep, err, gs, storeDelta(cache, &last))})
	}
	for _, phase := range []string{"cold", "warm"} {
		rep, err := checker.Check(good.Gs, good.Gd, good.Ri)
		add(phase, rep, err, good.Gs)
	}
	// The clone preserves tensor IDs, so the relation serves the edit.
	for _, broken := range []bool{false, true} {
		section := map[bool]string{false: "edit", true: "broken-edit"}[broken]
		edited := goldenEdit(t, good.Gs, broken)
		if unplanned {
			rep, err := keepGoing.Check(edited, good.Gd, good.Ri)
			add(section, rep, err, edited)
			continue
		}
		delta, err := checker.DiffCheck(good.Gs, edited, good.Gd, good.Ri, good.Ri)
		if delta == nil {
			t.Fatalf("%s %s: %v", name, section, err)
		}
		add(section, delta.Report, err, edited)
		out = append(out, goldenSection{name + "/" + section + ".delta", delta.Render()})
		plan, err := DiffPlan(good.Gs, good.Ri, edited, good.Ri, good.Gd)
		if err != nil {
			t.Fatalf("%s %s: %v", name, section, err)
		}
		out = append(out, goldenSection{name + "/" + section + ".plan", goldenPlan(t, plan, edited, opKeys(t, opts, edited, good.Gd, good.Ri))})
	}
	for _, phase := range []string{"fail-cold", "fail-warm"} {
		rep, err := keepGoing.Check(bad.Gs, bad.Gd, bad.Ri)
		add(phase, rep, err, bad.Gs)
	}
	return out
}

// TestGoldenReports pins the complete Report (Stats, LiveStats, Cache,
// Verdicts, Failures, relations), a diff's Plan and DeltaReport.Render for a
// small zoo at Workers 1 and 4, planned and unplanned, against bytes
// recorded before the ledger refactor.
func TestGoldenReports(t *testing.T) {
	build := func(b *models.Built, err error) *models.Built {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	zoo := []struct {
		name      string
		good, bad *models.Built
	}{
		{"gpt", build(models.GPT(models.Options{TP: 2})), build(models.GPT(models.Options{TP: 2, Bug: models.Bug7MissingAllReduce}))},
		{"seedmoe", build(models.SeedMoE(models.Options{TP: 2})), build(models.SeedMoE(models.Options{TP: 2, Bug: models.Bug2AuxLossScale}))},
	}

	recorded := map[string]string{}
	if !*update {
		data, err := os.ReadFile(goldenReports)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range strings.Split(string(data), "\n== ")[1:] {
			head, body, _ := strings.Cut(chunk, " ==\n")
			recorded[head] = body
		}
	}
	produced := map[string]bool{}
	for _, m := range zoo {
		for _, workers := range []int{1, 4} {
			for _, unplanned := range []bool{false, true} {
				for _, s := range goldenScenario(t, m.name, m.good, m.bad, workers, unplanned) {
					produced[s.name] = true
					want, ok := recorded[s.name]
					if !ok && *update {
						recorded[s.name] = s.text
						continue
					}
					if !ok {
						t.Errorf("workers=%d unplanned=%t: section %s not in %s", workers, unplanned, s.name, goldenReports)
					} else if s.text != want {
						t.Errorf("workers=%d unplanned=%t: section %s differs\n--- want ---\n%s--- got ---\n%s",
							workers, unplanned, s.name, want, s.text)
					}
				}
			}
		}
	}
	// A recorded section no run produces pins nothing: fail on it, so a
	// section whose report went away is deleted with it.
	for n := range recorded {
		if !produced[n] {
			t.Errorf("section %s of %s is produced by no scenario", n, goldenReports)
		}
	}
	if *update {
		names := make([]string, 0, len(recorded))
		for n := range recorded {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		b.WriteString("Recorded by `go test ./internal/core -run TestGoldenReports -update`.\n")
		for _, n := range names {
			b.WriteString("\n== " + n + " ==\n" + recorded[n])
		}
		if err := os.WriteFile(goldenReports, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
