package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"entangle/internal/egraph"
	"entangle/internal/faultinject"
	"entangle/internal/graph"
	"entangle/internal/models"
	"entangle/internal/relation"
)

// TestClassify pins the outcome ladder on what the checker itself
// returns — every row runs a check; none hand-builds a report or an
// error — so a change to how failures travel out of CheckContext shows
// up here before it shows up as a front end saying the wrong thing.
func TestClassify(t *testing.T) {
	build := func(b *models.Built, err error) *models.Built {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	gpt := build(models.GPT(models.Options{TP: 2}))
	gptBad := build(models.GPT(models.Options{TP: 2, Bug: models.Bug7MissingAllReduce}))
	fig1Gs, fig1Gd, fig1Ri := figure1(t)

	// A G_d as its own specification: the relation is the identity, and
	// the walk reaches the reduce-scatter.
	identity := relation.New()
	for _, in := range fig1Gd.Inputs {
		identity.Add(in, relation.GdLeaf(fig1Gd.Tensor(in)))
	}
	// R_i relates G_s inputs only: an entry on a produced tensor is
	// refused before any search.
	onProduced := fig1Ri.Clone()
	onProduced.Add(fig1Gs.Nodes[0].Outputs[0], fig1Ri.Get(fig1Gs.Inputs[0])[0])

	background := func() (context.Context, context.CancelFunc) {
		return context.WithCancel(context.Background())
	}
	bomb := func(label string) func(*graph.Node) *egraph.SaturateOpts {
		return func(v *graph.Node) *egraph.SaturateOpts {
			if v.Label == label {
				panic("bomb: " + label)
			}
			return nil
		}
	}

	rows := []struct {
		name       string
		opts       Options
		gs, gd     *graph.Graph
		ri         *relation.Relation
		ctx        func() (context.Context, context.CancelFunc)
		cancelAt   string // cancel the context once this operator is done
		want       Outcome
		wantReport bool
		check      func(t *testing.T, err error)
	}{
		{name: "refined", gs: gpt.Gs, gd: gpt.Gd, ri: gpt.Ri, want: Refined, wantReport: true},
		{name: "disproved", gs: gptBad.Gs, gd: gptBad.Gd, ri: gptBad.Ri, want: Failed,
			check: func(t *testing.T, err error) {
				var re *RefinementError
				if !errors.As(err, &re) || re.Op.Label != "final_ln" {
					t.Fatalf("want a RefinementError at final_ln, got %v", err)
				}
			}},
		{name: "disproved keep-going", opts: Options{KeepGoing: true},
			gs: gptBad.Gs, gd: gptBad.Gd, ri: gptBad.Ri, want: Failed, wantReport: true},
		{name: "starved inconclusive",
			opts: Options{PreOp: faultinject.Config{Seed: 1, StarveRate: 1}.PreOp},
			gs:   gpt.Gs, gd: gpt.Gd, ri: gpt.Ri, want: Failed,
			check: func(t *testing.T, err error) {
				var ie *InconclusiveError
				if !errors.As(err, &ie) {
					t.Fatalf("want Inconclusive(budget-exhausted), got %v", err)
				}
			}},
		{name: "pre-cancelled", gs: gpt.Gs, gd: gpt.Gd, ri: gpt.Ri, want: Cancelled,
			ctx: func() (context.Context, context.CancelFunc) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				return ctx, cancel
			}},
		{name: "cancelled mid-run", gs: gpt.Gs, gd: gpt.Gd, ri: gpt.Ri, cancelAt: "embed", want: Cancelled},
		{name: "cancelled mid-run keep-going", opts: Options{KeepGoing: true},
			gs: gptBad.Gs, gd: gptBad.Gd, ri: gptBad.Ri, cancelAt: "embed", want: Cancelled},
		{name: "engine fault", opts: Options{PreOp: bomb("L0/fc1")},
			gs: gpt.Gs, gd: gpt.Gd, ri: gpt.Ri, want: Fault,
			check: func(t *testing.T, err error) {
				var ef *EngineFaultError
				if !errors.As(err, &ef) || ef.Op.Label != "L0/fc1" || len(ef.Stack) == 0 {
					t.Fatalf("want an EngineFaultError at L0/fc1 with its stack, got %v", err)
				}
			}},
		{name: "engine fault keep-going", opts: Options{KeepGoing: true, PreOp: bomb("L0/fc1")},
			gs: gpt.Gs, gd: gpt.Gd, ri: gpt.Ri, want: Failed, wantReport: true},
		{name: "collective in G_s", gs: fig1Gd, gd: fig1Gd, ri: identity, want: Invalid,
			check: func(t *testing.T, err error) {
				if !strings.Contains(err.Error(), "contains collective") {
					t.Fatalf("want the collective named, got %v", err)
				}
			}},
		{name: "collective in G_s keep-going", opts: Options{KeepGoing: true},
			gs: fig1Gd, gd: fig1Gd, ri: identity, want: Invalid},
		{name: "missing input relation", gs: fig1Gs, gd: fig1Gd, ri: relation.New(), want: Invalid},
		{name: "R_i on a produced tensor", gs: fig1Gs, gd: fig1Gd, ri: onProduced, want: Invalid},
		{name: "figure 1", gs: fig1Gs, gd: fig1Gd, ri: fig1Ri, want: Refined, wantReport: true},
	}
	for _, row := range rows {
		for _, workers := range []int{1, 4} {
			t.Run(row.name, func(t *testing.T) {
				newCtx := row.ctx
				if newCtx == nil {
					newCtx = background
				}
				ctx, cancel := newCtx()
				defer cancel()
				opts := row.opts
				opts.Workers = workers
				if row.cancelAt != "" {
					opts.OpObserver = func(v *graph.Node, _ time.Duration) {
						if v.Label == row.cancelAt {
							cancel()
						}
					}
				}
				report, err := NewChecker(opts).CheckContext(ctx, row.gs, row.gd, row.ri)
				if got := Classify(ctx, report, err); got != row.want {
					t.Fatalf("workers %d: outcome %d, want %d (report %v, err %v)", workers, got, row.want, report != nil, err)
				}
				if (report != nil) != row.wantReport {
					t.Fatalf("workers %d: report present = %v, want %v", workers, report != nil, row.wantReport)
				}
				if row.check != nil {
					row.check(t, err)
				}
			})
		}
	}
}

// TestCheckBaseContext: the base pass reports a base that does not
// refine as context, not as an error — an engine fault included, since
// KeepGoing is forced — and keeps the error for what is fatal.
func TestCheckBaseContext(t *testing.T) {
	gpt, err := models.GPT(models.Options{TP: 2})
	if err != nil {
		t.Fatal(err)
	}
	gptBad, err := models.GPT(models.Options{TP: 2, Bug: models.Bug7MissingAllReduce})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if failed, err := NewChecker(Options{}).CheckBaseContext(ctx, gpt.Gs, gpt.Gd, gpt.Ri); failed || err != nil {
		t.Fatalf("clean base: failed=%v err=%v", failed, err)
	}
	if failed, err := NewChecker(Options{}).CheckBaseContext(ctx, gptBad.Gs, gptBad.Gd, gptBad.Ri); !failed || err != nil {
		t.Fatalf("disproved base: failed=%v err=%v", failed, err)
	}
	faulting := Options{PreOp: func(v *graph.Node) *egraph.SaturateOpts {
		if v.Label == "L0/fc1" {
			panic("bomb")
		}
		return nil
	}}
	if failed, err := NewChecker(faulting).CheckBaseContext(ctx, gpt.Gs, gpt.Gd, gpt.Ri); !failed || err != nil {
		t.Fatalf("faulting base: failed=%v err=%v", failed, err)
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	failed, err := NewChecker(Options{}).CheckBaseContext(dead, gpt.Gs, gpt.Gd, gpt.Ri)
	if failed || Classify(dead, nil, err) != Cancelled {
		t.Fatalf("cancelled base: failed=%v err=%v", failed, err)
	}
	_, gd, _ := figure1(t)
	if failed, err := NewChecker(Options{}).CheckBaseContext(ctx, gpt.Gs, gd, relation.New()); failed || Classify(ctx, nil, err) != Invalid {
		t.Fatalf("malformed base: failed=%v err=%v", failed, err)
	}
}
