package core

import (
	"encoding/json"
	"testing"

	"entangle/internal/hlo"
	"entangle/internal/lemmas"
	"entangle/internal/models"
)

// planOpByLabel finds one operator's plan entry; topo order is
// deterministic but tests should not depend on positions.
func planOpByLabel(t *testing.T, p *Plan, label string) PlanOp {
	t.Helper()
	for _, op := range p.Ops {
		if op.Label == label {
			return op
		}
	}
	t.Fatalf("plan has no operator %q", label)
	return PlanOp{}
}

// TestPlanFullDispositions checks the full-mode planner's decisions on
// the three configurations that exist: no cache (everything checked,
// keyless), cold cache (everything checked, keyed misses), warm cache
// (everything replayed).
func TestPlanFullDispositions(t *testing.T) {
	gs, gd, ri := figure1(t)
	reg := lemmas.Default()

	plain, err := NewChecker(Options{Registry: reg}).Check(gs, gd, ri)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Plan == nil || plain.Plan.Mode != PlanModeFull {
		t.Fatalf("missing full plan: %+v", plain.Plan)
	}
	if len(plain.Plan.Ops) != plain.OpsProcessed {
		t.Fatalf("plan covers %d ops, report processed %d", len(plain.Plan.Ops), plain.OpsProcessed)
	}
	for _, op := range plain.Plan.Ops {
		if op.Disposition != DispCheck || op.Reason != "no cache configured" || op.Key != "" {
			t.Fatalf("cacheless plan op %+v", op)
		}
	}

	cache := openCache(t)
	checker := NewChecker(Options{Registry: reg, Cache: cache})
	cold, err := checker.Check(gs, gd, ri)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range cold.Plan.Ops {
		if op.Disposition != DispCheck || op.Reason != "cache miss" || op.Key == "" {
			t.Fatalf("cold plan op %+v", op)
		}
	}
	if cold.Plan.Checks != len(cold.Plan.Ops) || cold.Plan.Replays != 0 {
		t.Fatalf("cold plan totals %+v", cold.Plan)
	}

	warm, err := checker.Check(gs, gd, ri)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range warm.Plan.Ops {
		if op.Disposition != DispReplayCache || op.Reason != "verdict cached" {
			t.Fatalf("warm plan op %+v", op)
		}
	}
	if warm.Plan.Replays != len(warm.Plan.Ops) || warm.Plan.Checks != 0 {
		t.Fatalf("warm plan totals %+v", warm.Plan)
	}
	if warm.LiveStats.Iterations != 0 {
		t.Fatalf("warm planned run re-saturated: %+v", warm.LiveStats)
	}
}

// TestPlanJSONRoundTrip: a Plan is plain data (ROADMAP item 1's
// sharded fleet routes them between nodes). Serialize, decode,
// re-serialize: byte-identical, with dispositions spelled as their
// canonical names.
func TestPlanJSONRoundTrip(t *testing.T) {
	gs, gd, ri := figure1(t)
	cache := openCache(t)
	checker := NewChecker(Options{Registry: lemmas.Default(), Cache: cache})
	if _, err := checker.Check(gs, gd, ri); err != nil {
		t.Fatal(err)
	}
	warm, err := checker.Check(gs, gd, ri)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(warm.Plan)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Plan
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(again) {
		t.Fatalf("round trip not stable:\n--- first ---\n%s\n--- second ---\n%s", blob, again)
	}
	var loose map[string]any
	if err := json.Unmarshal(blob, &loose); err != nil {
		t.Fatal(err)
	}
	op := loose["ops"].([]any)[0].(map[string]any)
	if op["disposition"] != "replay-cache" {
		t.Fatalf("disposition serialized as %v, want the canonical name", op["disposition"])
	}
}

// TestDispositionJSONUnknown rejects names outside the enum instead of
// silently zeroing them.
func TestDispositionJSONUnknown(t *testing.T) {
	var d Disposition
	if err := d.UnmarshalJSON([]byte(`"warp-speed"`)); err == nil {
		t.Fatal("unknown disposition decoded")
	}
}

// TestPlanUnplannedByteIdentical is the refactor's acceptance gate:
// the planned executor and the pre-plan inline path (Options.unplanned)
// produce byte-identical reports — relations, stats, verdicts, and
// cache counters — cold and warm, at 1 and 4 workers, over GPT and the
// saturation corpus models the goldens do not run (SeedMoE's forward
// pass is golden_reports.txt's, planned and unplanned), Llama-3 through
// the HLO text round trip.
func TestPlanUnplannedByteIdentical(t *testing.T) {
	corpus := []struct {
		name  string
		build func() (*models.Built, error)
	}{
		{"gpt-tp2", func() (*models.Built, error) { return models.GPT(models.Options{TP: 2}) }},
		{"gpt-tp2-sp", func() (*models.Built, error) { return models.GPT(models.Options{TP: 2, SP: true}) }},
		{"seedmoe-bwd", func() (*models.Built, error) { return models.SeedMoEBwd(models.Options{TP: 2}) }},
		{"llama3-hlo", func() (*models.Built, error) {
			b, err := models.Llama(models.Options{TP: 2})
			if err != nil {
				return nil, err
			}
			gs, gd, ri, err := hlo.RoundTrip(b.Gs, b.Gd, b.Ri)
			return &models.Built{Gs: gs, Gd: gd, Ri: ri}, err
		}},
	}
	reg := lemmas.Default()
	for _, c := range corpus {
		b, err := c.build()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, workers := range []int{1, 4} {
			planned := NewChecker(Options{Registry: reg, Cache: openCache(t), Workers: workers})
			unplanned := NewChecker(Options{Registry: reg, Cache: openCache(t), Workers: workers, unplanned: true})
			for _, phase := range []string{"cold", "warm"} {
				rp, err := planned.Check(b.Gs, b.Gd, b.Ri)
				if err != nil {
					t.Fatalf("%s workers=%d %s planned: %v", c.name, workers, phase, err)
				}
				ru, err := unplanned.Check(b.Gs, b.Gd, b.Ri)
				if err != nil {
					t.Fatalf("%s workers=%d %s unplanned: %v", c.name, workers, phase, err)
				}
				assertReportsMatch(t, b, ru, rp)
				// Counter parity: every op is probed exactly once on both
				// paths, so hits+misses always agree. The split itself
				// agrees only on a warm cache: on a cold one the inline
				// path can hit a verdict stored earlier in the same run by
				// a duplicate-cone sibling (SeedMoE-Bwd has one), which
				// the plan-time prefetch (all probes before any store)
				// reads as a miss — the verdicts still match, since a
				// duplicate cone replays identically.
				if rp.Cache.Hits+rp.Cache.Misses != ru.Cache.Hits+ru.Cache.Misses ||
					phase == "warm" && rp.Cache != ru.Cache {
					t.Errorf("%s workers=%d %s cache stats diverge: planned %+v unplanned %+v",
						c.name, workers, phase, rp.Cache, ru.Cache)
				}
				if rp.Plan == nil {
					t.Errorf("%s workers=%d %s: planned run carries no plan", c.name, workers, phase)
				}
				if ru.Plan != nil {
					t.Errorf("%s workers=%d %s: unplanned run carries a plan", c.name, workers, phase)
				}
			}
		}
	}
}
