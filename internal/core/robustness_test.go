package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"entangle/internal/egraph"
	"entangle/internal/faultinject"
	"entangle/internal/graph"
	"entangle/internal/lemmas"
	"entangle/internal/models"
	"entangle/internal/vcache"
)

// checkWithDeadline runs Check on a watchdog: if the checker deadlocks
// (the historical failure mode for a panicking lemma on a pool
// goroutine), the test fails fast instead of hanging the suite.
func checkWithDeadline(t *testing.T, c *Checker, b *models.Built, limit time.Duration) (*Report, error) {
	t.Helper()
	type result struct {
		rep *Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := c.Check(b.Gs, b.Gd, b.Ri)
		done <- result{rep, err}
	}()
	select {
	case r := <-done:
		return r.rep, r.err
	case <-time.After(limit):
		t.Fatalf("Check did not return within %v (pool deadlock?)", limit)
		return nil, nil
	}
}

// TestPanicObserverNoDeadlock is the regression test for the latent
// wavefront-pool deadlock: a panic thrown from inside an operator's
// check (here via OpObserver, the paper-era hook) used to leave
// wavefrontState.active incremented forever, so runnable() stayed
// false, stopped() never turned true, and every worker slept on the
// condition variable. The fix decrements via defer and converts the
// panic into a structured EngineFault naming the operator.
func TestPanicObserverNoDeadlock(t *testing.T) {
	for _, workers := range []int{1, 4} {
		b, err := models.GPT(models.Options{TP: 2})
		if err != nil {
			t.Fatal(err)
		}
		checker := NewChecker(Options{
			Workers: workers,
			OpObserver: func(v *graph.Node, d time.Duration) {
				if strings.Contains(v.Label, "attn") {
					panic("observer bomb: " + v.Label)
				}
			},
		})
		_, err = checkWithDeadline(t, checker, b, 60*time.Second)
		if err == nil {
			t.Fatalf("workers=%d: expected an engine fault", workers)
		}
		var ef *EngineFaultError
		if !errors.As(err, &ef) {
			t.Fatalf("workers=%d: error is %T, want *EngineFaultError: %v", workers, err, err)
		}
		if !strings.Contains(ef.Op.Label, "attn") {
			t.Fatalf("workers=%d: fault localized to %q, want an attn op", workers, ef.Op.Label)
		}
		if len(ef.Stack) == 0 || !strings.Contains(err.Error(), "observer bomb") {
			t.Fatalf("workers=%d: fault must carry the panic value and stack:\n%v", workers, err)
		}
	}
}

// TestPanickingLemmaKeepGoing: with KeepGoing, a panicking check is an
// EngineFault verdict for that operator, its downstream cone is
// skipped, and every independent tower still gets checked.
func TestPanickingLemmaKeepGoing(t *testing.T) {
	b, err := models.MultiTower(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	checker := NewChecker(Options{
		Workers:   4,
		KeepGoing: true,
		PreOp: func(v *graph.Node) *egraph.SaturateOpts {
			if v.Label == "T1/fc1" || v.Label == "T4/gelu" {
				panic("injected: " + v.Label)
			}
			return nil
		},
	})
	rep, err := checkWithDeadline(t, checker, b, 60*time.Second)
	if err == nil {
		t.Fatal("expected failures")
	}
	if rep == nil {
		t.Fatal("KeepGoing must return the partial report alongside the error")
	}
	if rep.OutputRelation != nil {
		t.Fatal("failed KeepGoing run must not claim a complete output relation")
	}

	kinds := map[string]VerdictKind{}
	for _, v := range rep.Failures {
		kinds[v.Op.Label] = v.Kind
	}
	if kinds["T1/fc1"] != VerdictEngineFault || kinds["T4/gelu"] != VerdictEngineFault {
		t.Fatalf("faulted ops misclassified: %v", kinds)
	}
	// Downstream cones: T1/gelu and T1/fc2 consume T1/fc1; T4/fc2
	// consumes T4/gelu; combine consumes every tower.
	for _, label := range []string{"T1/gelu", "T1/fc2", "T4/fc2", "combine"} {
		if kinds[label] != VerdictSkipped {
			t.Fatalf("%s: verdict %v, want skipped (failures: %s)", label, kinds[label], rep.RenderFailures())
		}
	}
	// The first failure in topo order is the returned error.
	if !errors.Is(err, rep.Failures[0].Err) {
		t.Fatalf("returned error %v is not the earliest failure %v", err, rep.Failures[0].Err)
	}
	// Independent towers were still checked: every op outside the two
	// cones is refined.
	refined := 0
	for _, v := range rep.Verdicts {
		if v.Kind == VerdictRefined {
			refined++
		}
	}
	// 8 towers × 4 ops + combine = 33 ops; 2 faulted + 4 skipped = 27 refined.
	if refined != 27 {
		t.Fatalf("refined %d ops, want 27:\n%s", refined, rep.RenderFailures())
	}
	if rep.OpsProcessed != 29 { // 33 − 4 skipped
		t.Fatalf("OpsProcessed %d, want 29", rep.OpsProcessed)
	}
}

// TestCancellationMidSaturation: a context cancelled while a large
// check is in flight aborts promptly (bounded by one saturation
// iteration per in-flight operator), returns an error wrapping
// context.Canceled, and — at Workers=8 — leaks no goroutines.
func TestCancellationMidSaturation(t *testing.T) {
	b, err := models.GPT(models.Options{TP: 2, SP: true})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	checker := NewChecker(Options{
		Workers: 8,
		OpObserver: func(v *graph.Node, d time.Duration) {
			cancel() // cancel as soon as the first operator completes
		},
	})
	start := time.Now()
	rep, err := checker.CheckContext(ctx, b.Gs, b.Gd, b.Ri)
	elapsed := time.Since(start)
	cancel()
	if err == nil {
		t.Fatalf("cancelled check succeeded in %v", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error must wrap context.Canceled, got: %v", err)
	}
	if rep != nil {
		t.Fatal("cancelled check must not return a report")
	}
	// Generous bound: a full GPT check takes seconds; post-cancel work
	// is at most one saturation iteration per in-flight operator.
	if elapsed > 30*time.Second {
		t.Fatalf("cancelled check took %v", elapsed)
	}

	// Hand-rolled goleak: every pool goroutine must have exited.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after cancellation", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPreCancelledContext: an already-expired context returns before
// any operator is checked.
func TestPreCancelledContext(t *testing.T) {
	b, err := models.Regression(models.Options{GradAccum: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ops := 0
	checker := NewChecker(Options{OpObserver: func(v *graph.Node, d time.Duration) { ops++ }, Workers: 1})
	if _, err := checker.CheckContext(ctx, b.Gs, b.Gd, b.Ri); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The first scheduled operator observes the dead context and aborts
	// fatally; nothing beyond it may run.
	if ops > 1 {
		t.Fatalf("%d operators ran under a pre-cancelled context", ops)
	}
}

// TestInconclusiveConeKeepGoing: an operator starved of budget is
// classified Inconclusive; with KeepGoing its downstream cone is
// skipped and the rest of the model still checks.
func TestInconclusiveConeKeepGoing(t *testing.T) {
	b, err := models.MultiTower(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	checker := NewChecker(Options{
		Workers:   2,
		KeepGoing: true,
		PreOp: func(v *graph.Node) *egraph.SaturateOpts {
			if v.Label == "T2/fc1" {
				return &egraph.SaturateOpts{MaxIters: 1, MaxNodes: 1}
			}
			return nil
		},
	})
	rep, err := checkWithDeadline(t, checker, b, 60*time.Second)
	if err == nil {
		t.Fatal("expected an inconclusive failure")
	}
	var ie *InconclusiveError
	if !errors.As(err, &ie) || ie.Op.Label != "T2/fc1" {
		t.Fatalf("want Inconclusive(budget-exhausted) at T2/fc1, got %v", err)
	}
	kinds := map[string]VerdictKind{}
	for _, v := range rep.Verdicts {
		kinds[v.Op.Label] = v.Kind
	}
	if kinds["T2/fc1"] != VerdictInconclusive || kinds["T2/gelu"] != VerdictSkipped {
		t.Fatalf("inconclusive cone wrong:\n%s", rep.RenderFailures())
	}
	if kinds["T0/fc2"] != VerdictRefined || kinds["T3/fc2"] != VerdictRefined {
		t.Fatalf("independent towers must still refine:\n%s", rep.RenderFailures())
	}
}

// TestBudgetEscalation: a budget-starved operator either recovers via
// the one ×4 escalation or is declared Inconclusive(BudgetExhausted) —
// never misreported as disproved. Every operator is starved through
// PreOp, as faultinject does: at 1 node even the escalated budget is
// too small, at 20 nodes the first attempt cannot finish but ×4 can.
func TestBudgetEscalation(t *testing.T) {
	b, err := models.Regression(models.Options{GradAccum: 2})
	if err != nil {
		t.Fatal(err)
	}
	starve := func(nodes int) func(*graph.Node) *egraph.SaturateOpts {
		return func(*graph.Node) *egraph.SaturateOpts {
			return &egraph.SaturateOpts{MaxIters: 1, MaxNodes: nodes}
		}
	}

	// Past rescue: the starved run must be inconclusive after its one
	// escalation, with the budget-exhaustion reason, not a disproof.
	rep, err := NewChecker(Options{PreOp: starve(1), Workers: 1, KeepGoing: true}).Check(b.Gs, b.Gd, b.Ri)
	if err == nil {
		t.Fatal("check starved past one escalation must fail")
	}
	var ie *InconclusiveError
	if !errors.As(err, &ie) {
		t.Fatalf("want Inconclusive(budget-exhausted), got %v", err)
	}
	if !strings.Contains(err.Error(), "after 1 budget escalation(s)") {
		t.Fatalf("inconclusive error must name the escalation: %v", err)
	}
	for _, v := range rep.Verdicts {
		if v.Op == ie.Op && (v.Kind != VerdictInconclusive || v.Escalations != maxEscalations) {
			t.Fatalf("%s: want inconclusive after %d escalation(s)", v.Describe(), maxEscalations)
		}
	}
	// The wrapped cause still localizes the operator for errors.As
	// call sites expecting the paper's RefinementError.
	var re *RefinementError
	if !errors.As(err, &re) {
		t.Fatalf("InconclusiveError must unwrap to RefinementError: %v", err)
	}

	// Within rescue: 1 iter/20 nodes → ×4 reaches far enough and the
	// model verifies.
	rep, err = NewChecker(Options{PreOp: starve(20), Workers: 1}).Check(b.Gs, b.Gd, b.Ri)
	if err != nil {
		t.Fatalf("escalated check must recover: %v", err)
	}
	escalated := 0
	for _, v := range rep.Verdicts {
		if v.Escalations > 0 {
			escalated++
		}
	}
	if escalated == 0 {
		t.Fatal("no operator recorded a budget escalation")
	}
	if rep.Stats.BudgetHit == 0 {
		t.Fatal("stats must count the budget hits that triggered escalation")
	}
}

// TestStarvedExpectationIsInconclusive: a §4.4 expectation whose check
// runs out of budget is inconclusive, not violated — starving a search
// says nothing about the model.
func TestStarvedExpectationIsInconclusive(t *testing.T) {
	b, err := models.DataParallel(2, true)
	if err != nil {
		t.Fatal(err)
	}
	e := Expectation{Fs: b.ExpectFs, Fd: b.ExpectFd}
	if err := NewChecker(Options{}).CheckExpectation(b.Gs, b.Gd, b.Ri, e); err != nil {
		t.Fatalf("expectation must hold at the default budget: %v", err)
	}
	starve := faultinject.Config{Seed: 1, StarveRate: 1}.PreOp
	err = NewChecker(Options{PreOp: starve, Workers: 1}).CheckExpectation(b.Gs, b.Gd, b.Ri, e)
	var ie *InconclusiveError
	var ee *ExpectationError
	if !errors.As(err, &ie) || errors.As(err, &ee) {
		t.Fatalf("want Inconclusive(budget-exhausted), got %v", err)
	}
}

// TestChaosDeterminism is the fault matrix: three correct models under
// seeded operator faults, each checked KeepGoing with Workers=1 and
// Workers=8. In every cell the two multi-failure reports are
// byte-identical — same verdicts, same topo order — no injected panic
// crashes the process or hangs the pool, every panicked operator is an
// engine fault, every starved one refines or is inconclusive, every
// cell that starves reaches at least one inconclusive verdict, and no
// verdict is disproved: a disproof is a bug report, and these models
// have no bug. The log carries one counts row per cell.
func TestChaosDeterminism(t *testing.T) {
	reg := lemmas.Default()
	cfgs := []faultinject.Config{
		{Seed: 1, PanicRate: 0.15},
		{Seed: 2, StarveRate: 0.3},
		{Seed: 3, PanicRate: 0.1, StarveRate: 0.2},
		{Seed: 99, PanicRate: 0.5},
		{Seed: 11, PanicRate: 0.15},
		{Seed: 23, StarveRate: 0.25},
		{Seed: 37, PanicRate: 0.1, StarveRate: 0.15},
	}
	builds := []struct {
		name  string
		build func() (*models.Built, error)
	}{
		{"MultiTower-8", func() (*models.Built, error) { return models.MultiTower(8, 2) }},
		{"GPT (TP)", func() (*models.Built, error) { return models.GPT(models.Options{TP: 2}) }},
		{"ByteDance-Fwd", func() (*models.Built, error) { return models.SeedMoE(models.Options{TP: 2}) }},
	}
	t.Logf("%-14s %5s %6s %7s %5s %5s %4s %7s %6s %5s", "model", "seed", "panic", "starve", "#ops", "ok", "esc", "incncl", "fault", "skip")
	for _, m := range builds {
		for _, cfg := range cfgs {
			b, err := m.build()
			if err != nil {
				t.Fatal(err)
			}
			cell := fmt.Sprintf("%s seed %d", m.name, cfg.Seed)
			var reports []*Report
			var errTexts []string
			for _, workers := range []int{1, 8} {
				checker := NewChecker(Options{
					Registry:  reg,
					Workers:   workers,
					KeepGoing: true,
					PreOp:     cfg.PreOp,
				})
				rep, err := checkWithDeadline(t, checker, b, 120*time.Second)
				if rep == nil {
					t.Fatalf("%s workers %d: no report (err %v)", cell, workers, err)
				}
				if (err != nil) != (len(rep.Failures) > 0) {
					t.Fatalf("%s workers %d: err %v vs %d failures", cell, workers, err, len(rep.Failures))
				}
				for _, v := range rep.Verdicts {
					ran := v.Kind != VerdictSkipped
					switch f := cfg.Decide(v.Op.Label); {
					case v.Kind == VerdictDisproved:
						t.Errorf("%s workers %d: %s (fault %v) is a false bug report", cell, workers, v.Describe(), f)
					case ran && f == faultinject.Panic && v.Kind != VerdictEngineFault,
						ran && f == faultinject.Starve && v.Kind != VerdictRefined && v.Kind != VerdictInconclusive:
						t.Errorf("%s workers %d: injected %v, verdict %s", cell, workers, f, v.Describe())
					}
				}
				reports = append(reports, rep)
				if err != nil {
					errTexts = append(errTexts, firstLine(err.Error()))
				}
			}
			if r1, r8 := reports[0].RenderFailures(), reports[1].RenderFailures(); r1 != r8 {
				t.Fatalf("%s: reports differ\n--- workers=1 ---\n%s--- workers=8 ---\n%s", cell, r1, r8)
			}
			if len(errTexts) == 2 && errTexts[0] != errTexts[1] {
				t.Fatalf("%s: first-failure errors differ:\n%s\n%s", cell, errTexts[0], errTexts[1])
			}
			counts := map[VerdictKind]int{}
			escalated := 0
			for _, v := range reports[0].Verdicts {
				counts[v.Kind]++
				if v.Escalations > 0 {
					escalated++
				}
			}
			t.Logf("%-14s %5d %6.2f %7.2f %5d %5d %4d %7d %6d %5d", m.name, cfg.Seed, cfg.PanicRate, cfg.StarveRate,
				len(reports[0].Verdicts), counts[VerdictRefined], escalated, counts[VerdictInconclusive],
				counts[VerdictEngineFault], counts[VerdictSkipped])
			if cfg.StarveRate > 0 && counts[VerdictInconclusive] == 0 {
				t.Errorf("%s: starves operators but no verdict is inconclusive", cell)
			}
		}
	}
}

// TestChaosCacheCorruption is the verdict cache's chaos criterion: a
// deterministically vandalized on-disk store (every entry damaged —
// torn, bit-flipped, re-tagged, or emptied) must degrade to a total
// miss, never to a wrong or different verdict. Runs at Workers 1 and 8
// on both a refining and a disproved model; reports must match a
// cache-disabled run byte for byte.
func TestChaosCacheCorruption(t *testing.T) {
	reg := lemmas.Default()
	builds := map[string]func() (*models.Built, error){
		"gpt": func() (*models.Built, error) { return models.GPT(models.Options{TP: 2}) },
		"seedmoe-bug": func() (*models.Built, error) {
			return models.SeedMoE(models.Options{TP: 2, Bug: models.Bug1RoPEOffset})
		},
	}
	for name, build := range builds {
		for _, seed := range []uint64{1, 42} {
			b, err := build()
			if err != nil {
				t.Fatal(err)
			}
			baseline, baseErr := NewChecker(Options{Registry: reg, KeepGoing: true}).Check(b.Gs, b.Gd, b.Ri)

			dir := t.TempDir()
			warmup, err := vcache.Open(vcache.Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := NewChecker(Options{Registry: reg, KeepGoing: true, Cache: warmup}).Check(b.Gs, b.Gd, b.Ri); (err != nil) != (baseErr != nil) {
				t.Fatalf("%s: warmup disagrees with baseline: %v vs %v", name, err, baseErr)
			}
			for _, workers := range []int{1, 8} {
				// Re-vandalize before every run: a prior miss-run
				// legitimately re-stores good entries.
				damaged, err := faultinject.CorruptCache(dir, seed)
				if err != nil || damaged == 0 {
					t.Fatalf("%s seed %d: corrupting cache: %v (%d files)", name, seed, err, damaged)
				}
				// A fresh cache over the vandalized directory: cold
				// memory forces every lookup through a damaged file.
				vandalized, err := vcache.Open(vcache.Config{Dir: dir})
				if err != nil {
					t.Fatal(err)
				}
				rep, repErr := NewChecker(Options{Registry: reg, KeepGoing: true, Workers: workers,
					Cache: vandalized}).Check(b.Gs, b.Gd, b.Ri)
				if (repErr != nil) != (baseErr != nil) {
					t.Fatalf("%s seed %d workers %d: verdict flipped: %v vs baseline %v",
						name, seed, workers, repErr, baseErr)
				}
				if rep.Cache.Hits != 0 {
					t.Fatalf("%s seed %d workers %d: corrupt entries served: %+v", name, seed, workers, rep.Cache)
				}
				if st := vandalized.Stats().Snapshot(); st.Corrupt == 0 {
					t.Fatalf("%s seed %d workers %d: corruption not counted: %+v", name, seed, workers, st)
				}
				if got, want := rep.RenderFailures(), baseline.RenderFailures(); got != want {
					t.Fatalf("%s seed %d workers %d: failures differ from cache-disabled run:\n--- want ---\n%s--- got ---\n%s",
						name, seed, workers, want, got)
				}
				if baseErr == nil {
					if got, want := rep.OutputRelation.Render(b.Gs), baseline.OutputRelation.Render(b.Gs); got != want {
						t.Fatalf("%s seed %d workers %d: relations differ:\n--- want ---\n%s--- got ---\n%s",
							name, seed, workers, want, got)
					}
				}
			}
		}
	}
}

// firstLine strips stack traces (which legitimately differ between
// goroutines) off error text before comparison.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// TestVerdictsOnSuccess: a clean run classifies every operator
// Refined, in topo order, with no failures.
func TestVerdictsOnSuccess(t *testing.T) {
	b, err := models.Regression(models.Options{GradAccum: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewChecker(Options{Workers: 4}).Check(b.Gs, b.Gd, b.Ri)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Verdicts) != b.Gs.OperatorCount() || len(rep.Failures) != 0 {
		t.Fatalf("verdicts %d (want %d), failures %d", len(rep.Verdicts), b.Gs.OperatorCount(), len(rep.Failures))
	}
	order, _ := b.Gs.TopoSort()
	for i, v := range rep.Verdicts {
		if v.Kind != VerdictRefined || v.Op.ID != order[i].ID {
			t.Fatalf("verdict %d: %v for %q, want refined for %q", i, v.Kind, v.Op.Label, order[i].Label)
		}
	}
	if rep.Stats.StopReason == egraph.StopNone {
		t.Fatal("merged stats must carry a stop reason")
	}
}
