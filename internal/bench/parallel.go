package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"entangle/internal/core"
	"entangle/internal/graph"
	"entangle/internal/models"
)

// parallelCases are the wavefront speedup study's models. The
// MultiTower ensembles are the wide cases — their towers form large
// anti-chains in G_s, so the wavefront scheduler can keep a full pool
// busy. The transformer stacks are the control group: their G_s is a
// chain of layers (critical path ≈ total work), so DAG-level
// parallelism cannot help them, whatever the pool size.
func parallelCases() []ZooCase {
	moe := models.SeedMoEConfig()
	moe.Layers = 3
	moe.Experts = 4 // one expert per rank, the paper's EP layout
	return []ZooCase{
		{Name: "MultiTower-8 (TP)", Build: func() (*models.Built, error) { return models.MultiTower(8, 4) }},
		{Name: "MultiTower-16 (TP)", Build: func() (*models.Built, error) { return models.MultiTower(16, 2) }},
		{Name: "GPT (TP+SP)", Build: func() (*models.Built, error) {
			return models.GPT(models.Options{TP: 4, SP: true, Cfg: models.Config{Layers: 3}})
		}},
		{Name: "ByteDance-Fwd (MoE)", Build: func() (*models.Built, error) {
			return models.SeedMoE(models.Options{TP: 4, Cfg: moe})
		}},
		{Name: "Regression (chain)", Build: func() (*models.Built, error) {
			return models.Regression(models.Options{GradAccum: 4})
		}},
	}
}

// Parallel runs the wavefront scheduler study: for each model it
// times its check (Run's median) sequentially (Workers: 1) and with a
// 4-worker pool, and reads the last sequential check's per-operator
// durations to compute the DAG's work/span bound and a deterministic
// simulation of the 4-worker wavefront schedule (list scheduling by
// topo index, the scheduler's actual policy). The simulated speedup is
// hardware-independent; the measured one is limited by GOMAXPROCS —
// on a single-CPU host it stays ≈ 1× for every model.
func Parallel() (string, error) {
	const workers = 4
	var out strings.Builder
	fmt.Fprintf(&out, "Wavefront scheduler: sequential vs %d workers (median of %d, ms; GOMAXPROCS=%d)\n",
		workers, figureRuns, runtime.GOMAXPROCS(0))
	fmt.Fprintf(&out, "%-22s %6s %10s %10s %9s %9s %9s\n",
		"model", "#ops", "workers=1", fmt.Sprintf("workers=%d", workers), "measured", "span-lim", fmt.Sprintf("sim@%d", workers))
	for _, c := range parallelCases() {
		seq, err := Run(c, core.Options{})
		if err != nil {
			return "", err
		}
		par, err := Run(c, core.Options{Workers: workers})
		if err != nil {
			return "", err
		}
		prof := profileSchedule(seq, workers)
		fmt.Fprintf(&out, "%-22s %6d %10.1f %10.1f %8.2fx %8.2fx %8.2fx\n",
			c.Name, prof.ops, msOf(seq.Duration), msOf(par.Duration),
			float64(seq.Duration)/float64(par.Duration),
			prof.spanBound, prof.simSpeedup)
	}
	out.WriteString(`
columns: measured = wall-clock workers=1 / workers=4 (needs >= 4 CPUs to
show; ~1x when GOMAXPROCS=1); span-lim = work/span, the critical-path
ceiling no scheduler can beat; sim@4 = work / simulated 4-worker
wavefront makespan from per-operator timings (list scheduling by topo
index, the shipped policy). Reports are byte-identical across pool
sizes; Workers is purely a wall-clock knob.
`)
	return out.String(), nil
}

// scheduleProfile is the outcome of one per-operator timing analysis.
type scheduleProfile struct {
	ops        int     // |V(G_s)| operators profiled
	spanBound  float64 // work / critical path
	simSpeedup float64 // work / simulated W-worker makespan
}

// profileSchedule reads the per-operator times of a sequential check —
// each verdict's Duration — then computes the critical path of G_s
// weighted by those durations and simulates the wavefront policy (W
// workers, earliest-topo-index-first) to get its makespan.
func profileSchedule(seq *Result, workers int) *scheduleProfile {
	rep := seq.Report

	// Verdicts are in topological order.
	n := len(rep.Verdicts)
	order := make([]*graph.Node, n)
	d := make([]time.Duration, n)
	var work time.Duration
	for i, v := range rep.Verdicts {
		order[i] = v.Op
		d[i] = v.Duration
		work += d[i]
	}
	producers := seq.Gs.Producers(order)

	// Critical path (span): longest duration-weighted producer chain.
	cp := make([]time.Duration, n)
	var span time.Duration
	for i := range n {
		var best time.Duration
		for _, j := range producers[i] {
			if cp[j] > best {
				best = cp[j]
			}
		}
		cp[i] = best + d[i]
		if cp[i] > span {
			span = cp[i]
		}
	}

	// Simulate the wavefront policy: W workers drive the scheduler's own
	// ready set (core.SchedCore: earliest topo index first), completions
	// are event-driven.
	sched := core.NewSchedCore(producers, false)
	type running struct {
		op   int
		done time.Duration
	}
	var pool []running
	var makespan time.Duration // completions only move forward
	for sched.Runnable() || len(pool) > 0 {
		for len(pool) < workers && sched.Runnable() {
			i := sched.Pop()
			pool = append(pool, running{op: i, done: makespan + d[i]})
		}
		// Advance to the earliest completion.
		next := 0
		for k := 1; k < len(pool); k++ {
			if pool[k].done < pool[next].done {
				next = k
			}
		}
		fin := pool[next]
		pool = append(pool[:next], pool[next+1:]...)
		makespan = fin.done
		sched.Resolve(fin.op, true)
	}

	prof := &scheduleProfile{ops: n}
	if span > 0 {
		prof.spanBound = float64(work) / float64(span)
	}
	if makespan > 0 {
		prof.simSpeedup = float64(work) / float64(makespan)
	}
	return prof
}
