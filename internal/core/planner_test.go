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

// dispositions counts a plan's operators by disposition.
func dispositions(p *Plan) map[Disposition]int {
	n := map[Disposition]int{}
	for _, op := range p.Ops {
		n[op.Disposition]++
	}
	return n
}

// TestPlanJSONRoundTrip: a Plan is plain data. Serialize a diff's plan,
// decode, re-serialize: byte-identical, with dispositions spelled as
// their canonical names (the spelling /v1/recheck's changed operators
// carry).
func TestPlanJSONRoundTrip(t *testing.T) {
	gd := diffGd(t)
	oldGs, oldRi := diffGs(t, gd, false, "gelu")
	newGs, newRi := diffGs(t, gd, true, "gelu")
	plan, err := DiffPlan(oldGs, oldRi, newGs, newRi, gd)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(plan)
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
	var loose struct {
		Ops []map[string]any `json:"ops"`
	}
	if err := json.Unmarshal(blob, &loose); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{"adder": "check", "act": "tainted-upstream", "side": "skip-unchanged"}
	for _, op := range loose.Ops {
		if w, ok := want[op["label"].(string)]; ok && op["disposition"] != w {
			t.Fatalf("%v's disposition serialized as %v, want the canonical name %q", op["label"], op["disposition"], w)
		}
	}
}

// TestDispositionJSONUnknown rejects names outside the enum instead of
// silently zeroing them, the full check's deleted "replay-cache"
// included.
func TestDispositionJSONUnknown(t *testing.T) {
	for _, name := range []string{`"warp-speed"`, `"replay-cache"`} {
		var d Disposition
		if err := d.UnmarshalJSON([]byte(name)); err == nil {
			t.Fatalf("unknown disposition %s decoded as %s", name, d)
		}
	}
}

// TestPlanUnplannedByteIdentical: the prefetching executor and the
// inline-probe path (Options.unplanned) produce byte-identical reports — relations, stats, verdicts, and
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
				// the prefetch (all probes before any store)
				// reads as a miss — the verdicts still match, since a
				// duplicate cone replays identically.
				if rp.Cache.Hits+rp.Cache.Misses != ru.Cache.Hits+ru.Cache.Misses ||
					phase == "warm" && rp.Cache != ru.Cache {
					t.Errorf("%s workers=%d %s cache stats diverge: planned %+v unplanned %+v",
						c.name, workers, phase, rp.Cache, ru.Cache)
				}
			}
		}
	}
}
