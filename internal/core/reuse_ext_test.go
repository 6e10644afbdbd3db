package core_test

import (
	"fmt"
	"testing"

	"entangle/internal/bench"
	"entangle/internal/core"
	"entangle/internal/det"
	"entangle/internal/fuzz"
	"entangle/internal/graph"
	"entangle/internal/models"
	"entangle/internal/relation"
)

// reuseCase is one check of the reuse differential.
type reuseCase struct {
	name   string
	gs, gd *graph.Graph
	ri     *relation.Relation
}

// reuseCases is the zoo, the fuzz corpus, the first plans of the fuzz
// campaign at seed 7 (degree ≤ 4, each correct composition and every
// injection the campaign would make) and three models stacked three
// layers deep, where most operators of layers 1 and 2 reuse layer 0's
// searches. Under the race detector, whose stage of scripts/verify.sh
// runs the audited zoo in internal/bench, the zoo is left out and the
// campaign cut to its first ten plans.
func reuseCases(t *testing.T) []reuseCase {
	t.Helper()
	var out []reuseCase
	for _, c := range bench.Zoo() {
		if core.RaceEnabled {
			break
		}
		_, gs, gd, ri, err := c.Graphs()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, reuseCase{c.Name, gs, gd, ri})
	}
	corpus, err := fuzz.LoadCorpus("../fuzz/testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range corpus {
		cs, err := fuzz.Compose(c.Plan, c.Defect)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		out = append(out, reuseCase{c.Name, cs.Gs, cs.Gd, cs.Env.Ri})
	}
	plans := 40
	if core.RaceEnabled {
		plans = 10
	}
	master := det.NewRNG(7)
	for i := 0; i < plans; i++ {
		p := fuzz.RandomPlan(master, fuzz.Families, 4)
		cs, err := fuzz.Compose(p, nil)
		if err != nil {
			t.Fatalf("seed 7 plan %d: %v", i, err)
		}
		out = append(out, reuseCase{fmt.Sprintf("seed7/%d", i), cs.Gs, cs.Gd, cs.Env.Ri})
		for _, cl := range fuzz.Classes {
			if n := cs.Sites[cl]; n > 0 {
				d := &fuzz.Defect{Class: cl, Site: master.Intn(n)}
				ics, err := fuzz.Compose(p, d)
				if err != nil {
					t.Fatalf("seed 7 plan %d %s: %v", i, d, err)
				}
				out = append(out, reuseCase{fmt.Sprintf("seed7/%d/%s", i, d), ics.Gs, ics.Gd, ics.Env.Ri})
			}
		}
	}
	deep := []struct {
		name  string
		build func(models.Options) (*models.Built, error)
		cfg   models.Config
		tp    int
		sp    bool
	}{
		{"GPT-tp8-L3", models.GPT, models.GPTConfig(), 8, true},
		{"Llama-3-tp2-L3", models.Llama, models.LlamaConfig(), 2, false},
		{"SeedMoE-tp2-L3", models.SeedMoE, models.SeedMoEConfig(), 2, false},
	}
	for _, d := range deep {
		cfg := d.cfg
		cfg.Layers = 3
		b, err := d.build(models.Options{Cfg: cfg, TP: d.tp, SP: d.sp})
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		out = append(out, reuseCase{d.name, b.Gs, b.Gd, b.Ri})
	}
	return out
}

// TestReuseIsInvisible: the in-run reuse table moves nothing a report
// says but LiveStats. Over zoo ∪ corpus ∪ the seed-7 campaign ∪ three
// deep models, checked KeepGoing at Workers 1 and 4, every report with
// reuse renders byte-identical to the report without it, and LiveStats
// with reuse is the same at both worker counts: whether an operator
// reuses does not depend on the schedule.
func TestReuseIsInvisible(t *testing.T) {
	hits := 0
	for _, c := range reuseCases(t) {
		live := map[int]string{}
		for _, workers := range []int{1, 4} {
			opts := core.Options{Workers: workers, KeepGoing: true}
			on, onErr := core.NewChecker(opts).Check(c.gs, c.gd, c.ri)
			off, offErr := core.NewChecker(core.WithoutReuse(opts)).Check(c.gs, c.gd, c.ri)
			if got, want := core.RenderReport(on, onErr, c.gs), core.RenderReport(off, offErr, c.gs); got != want {
				t.Errorf("%s workers=%d: the report with reuse differs from the one without\n--- without ---\n%s--- with ---\n%s",
					c.name, workers, want, got)
				continue
			}
			if on == nil {
				continue
			}
			live[workers] = core.LiveStats(on)
			if workers == 1 && on.LiveStats.Matches < on.Stats.Matches {
				hits++
			}
		}
		if live[1] != live[4] {
			t.Errorf("%s: LiveStats with reuse depends on the schedule:\n  workers=1: %s\n  workers=4: %s", c.name, live[1], live[4])
		}
	}
	if hits == 0 {
		t.Error("no check reused a search: the differential compared nothing")
	}
	t.Logf("%d checks reused at least one search", hits)
}
