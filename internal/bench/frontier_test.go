package bench

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"entangle/internal/core"
	"entangle/internal/det"
	"entangle/internal/fuzz"
)

// TestFrontierIsTransparent: the Listing-3 frontier and the newest-
// spellings-first ladder only prune. Over the zoo, the committed fuzz
// corpus and a slice of the seed-7 campaign every operator's verdict
// kind is the same as with the frontier off (every G_d node folded,
// every input spelling read), and so is whether an expectation holds.
func TestFrontierIsTransparent(t *testing.T) {
	cases, on := baselineCases(t)
	for i, c := range cases {
		if off := c.kinds(core.Options{DisableFrontier: true}); on[i] != off {
			t.Errorf("%s: verdicts with the frontier:\n%swithout:\n%s", c.name, on[i], off)
		}
	}
}

// baseline is the case list TestFrontierIsTransparent and
// TestVerdictIgnoresRankOrderAndNames share — the zoo, the committed
// fuzz corpus and a slice of the seed-7 campaign — with each case's
// kinds under the default options, built once per test binary.
var baseline struct {
	once  sync.Once
	built bool
	cases []checkCase
	kinds []string
}

// baselineCases returns the shared case list and its default kinds.
func baselineCases(t *testing.T) ([]checkCase, []string) {
	t.Helper()
	baseline.once.Do(func() {
		baseline.cases = append(zooAndCorpus(t), fuzzChecks(campaignCases(t))...)
		for _, c := range baseline.cases {
			baseline.kinds = append(baseline.kinds, c.kinds(core.Options{}))
		}
		baseline.built = true
	})
	if !baseline.built {
		t.Fatal("the shared case list failed to build")
	}
	return baseline.cases, baseline.kinds
}

// kinds renders what a check of c under opts decides: whether its
// expectation holds, or each operator's verdict kind keyed by its label
// and whether the check errs — nothing that names a tensor or depends
// on node order.
func (c checkCase) kinds(opts core.Options) string {
	if c.expect != nil {
		err := core.NewChecker(opts).CheckExpectation(c.gs, c.gd, c.ri, *c.expect)
		return fmt.Sprintf("expectation holds: %t\n", err == nil)
	}
	opts.KeepGoing = true
	rep, err := core.NewChecker(opts).Check(c.gs, c.gd, c.ri)
	if rep == nil {
		return fmt.Sprintf("no report: outcome %d\n", core.Classify(context.Background(), nil, err))
	}
	lines := make([]string, len(rep.Verdicts))
	for i, v := range rep.Verdicts {
		lines[i] = fmt.Sprintf("%s: %s\n", v.Op.Label, v.Kind)
	}
	slices.Sort(lines)
	return fmt.Sprintf("errs: %t\n%s", err != nil, strings.Join(lines, ""))
}

// campaignCases draws the first 40 plans of the seed-7 campaign (10
// under the race detector), each clean and with one injection per
// defect class that has sites in it, as core's reuse differential draws
// them.
func campaignCases(t *testing.T) []*fuzz.Case {
	t.Helper()
	plans := 40
	if raceEnabled {
		plans = 10
	}
	var out []*fuzz.Case
	master := det.NewRNG(7)
	for i := 0; i < plans; i++ {
		p := fuzz.RandomPlan(master, fuzz.Families, 4)
		cs, err := fuzz.Compose(p, nil)
		if err != nil {
			t.Fatalf("seed 7 plan %d: %v", i, err)
		}
		out = append(out, cs)
		for _, cl := range fuzz.Classes {
			if n := cs.Sites[cl]; n > 0 {
				d := &fuzz.Defect{Class: cl, Site: master.Intn(n)}
				ics, err := fuzz.Compose(p, d)
				if err != nil {
					t.Fatalf("seed 7 plan %d %s: %v", i, d, err)
				}
				out = append(out, ics)
			}
		}
	}
	return out
}
