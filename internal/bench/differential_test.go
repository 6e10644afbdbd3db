package bench

import (
	"reflect"
	"strings"
	"testing"

	"entangle/internal/core"
	"entangle/internal/lemmas"
	"entangle/internal/vcache"
)

// describeVerdicts renders a report's verdict lines, one per operator.
func describeVerdicts(rep *core.Report) string {
	var vs strings.Builder
	for _, ov := range rep.Verdicts {
		vs.WriteString(ov.Describe())
		vs.WriteByte('\n')
	}
	return vs.String()
}

// TestSaturationDifferential is the schedule-independence property
// test for saturation over the saturation corpus: a sequential check,
// a check at four workers, and a second check on the first checker
// (whose e-graphs come off the free list the first one stocked) are
// observationally identical. "Observationally identical" is pinned as:
// the same per-rule application counts, the same iteration count and
// stop profile, the same verdict lines, and byte-identical
// output-relation renderings. The naive-vs-indexed matcher comparison,
// which needs egraph's reference matcher, is egraph's
// TestNaiveMatcherMatchesIndexedZoo.
func TestSaturationDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("model corpus differential is not short")
	}
	for _, w := range saturateWorkloads() {
		t.Run(w.Name, func(t *testing.T) {
			_, gs, gd, ri, err := w.Case(2, 1).Graphs()
			if err != nil {
				t.Fatal(err)
			}

			type observed struct {
				apps     map[string]int
				iters    int
				stops    [3]int // saturated runs are the remainder
				verdicts string
				outputs  string
			}
			observe := func(checker *core.Checker) observed {
				rep, err := checker.Check(gs, gd, ri)
				if err != nil {
					t.Fatal(err)
				}
				return observed{
					apps:     rep.Stats.Applications,
					iters:    rep.Stats.Iterations,
					stops:    [3]int{rep.Stats.Runs, rep.Stats.BudgetHit, rep.Stats.Cancelled},
					verdicts: describeVerdicts(rep),
					outputs:  rep.OutputRelation.Render(gs),
				}
			}
			sequential := core.NewChecker(core.Options{Registry: lemmas.Default(), Workers: 1})
			base := observe(sequential)
			variants := []struct {
				name string
				got  observed
			}{
				{"w4", observe(core.NewChecker(core.Options{Registry: lemmas.Default(), Workers: 4}))},
				{"w1-again", observe(sequential)},
			}
			for _, v := range variants {
				got := v.got
				if !reflect.DeepEqual(base.apps, got.apps) {
					t.Errorf("%s: rule applications diverge:\n base %v\n got  %v", v.name, base.apps, got.apps)
				}
				if base.iters != got.iters || base.stops != got.stops {
					t.Errorf("%s: stats profile diverges: base iters=%d stops=%v, got iters=%d stops=%v",
						v.name, base.iters, base.stops, got.iters, got.stops)
				}
				if base.verdicts != got.verdicts {
					t.Errorf("%s: verdict lines diverge:\n base:\n%s\n got:\n%s", v.name, base.verdicts, got.verdicts)
				}
				if base.outputs != got.outputs {
					t.Errorf("%s: output relation diverges:\n base:\n%s\n got:\n%s", v.name, base.outputs, got.outputs)
				}
			}
		})
	}
}

// TestPlannedPathDifferential is the cache-independence property test
// for the prefetching path over the saturation corpus: at workers 1 and
// 4, a check against a cold verdict cache and its replay against the
// now-warm cache are observationally identical to an uncached check,
// and the cache counters are the prefetch's: every operator probed
// once, every probe a miss cold and a hit warm, whatever the worker
// count. The prefetch-vs-inline-probe comparison, which needs core's
// reference executor, is core's TestPlanUnplannedByteIdentical.
func TestPlannedPathDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("model corpus differential is not short")
	}
	for _, w := range saturateWorkloads() {
		t.Run(w.Name, func(t *testing.T) {
			_, gs, gd, ri, err := w.Case(2, 1).Graphs()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := core.NewChecker(core.Options{Registry: lemmas.Default(), Workers: 1}).Check(gs, gd, ri)
			if err != nil {
				t.Fatal(err)
			}
			wantVerdicts, wantOutputs := describeVerdicts(ref), ref.OutputRelation.Render(gs)
			ops := int64(len(ref.Verdicts))

			for _, workers := range []int{1, 4} {
				// Each worker count gets its own fresh cache so the cold
				// pass is genuinely cold; the warm pass replays the same
				// check against the cache the cold pass filled.
				vc, err := vcache.Open(vcache.Config{Dir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				checker := core.NewChecker(core.Options{Registry: lemmas.Default(), Workers: workers, Cache: vc})
				for _, phase := range []string{"cold", "warm"} {
					rep, err := checker.Check(gs, gd, ri)
					if err != nil {
						t.Fatalf("workers=%d %s: %v", workers, phase, err)
					}
					if got := describeVerdicts(rep); got != wantVerdicts {
						t.Errorf("workers=%d %s: verdict lines diverge:\n uncached:\n%s\n got:\n%s", workers, phase, wantVerdicts, got)
					}
					if got := rep.OutputRelation.Render(gs); got != wantOutputs {
						t.Errorf("workers=%d %s: output relation diverges:\n uncached:\n%s\n got:\n%s", workers, phase, wantOutputs, got)
					}
					c := rep.Cache
					if c.Hits+c.Misses != ops {
						t.Errorf("workers=%d %s: %d probes for %d operators: %+v", workers, phase, c.Hits+c.Misses, ops, c)
					}
					if phase == "cold" && (c.Hits != 0 || c.Stores != ops) {
						t.Errorf("workers=%d cold: want every probe a miss and every verdict stored: %+v", workers, c)
					}
					if phase == "warm" && (c.Misses != 0 || c.Stores != 0 || c.Hits != ops) {
						t.Errorf("workers=%d warm: want every operator replayed from the cache: %+v", workers, c)
					}
				}
			}
		})
	}
}
