package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"entangle/internal/core"
	"entangle/internal/graph"
	"entangle/internal/lemmas"
	"entangle/internal/models"
)

// parallelWorkloads are the wavefront speedup study's models. The
// MultiTower ensembles are the wide cases — their towers form large
// anti-chains in G_s, so the wavefront scheduler can keep a full pool
// busy. The transformer stacks are the control group: their G_s is a
// chain of layers (critical path ≈ total work), so DAG-level
// parallelism cannot help them, whatever the pool size.
func parallelWorkloads() []struct {
	w        Workload
	parallel int
	layers   int
} {
	return []struct {
		w        Workload
		parallel int
		layers   int
	}{
		{Workload{Name: "MultiTower-8 (TP)", Build: func(p, l int) (*models.Built, error) {
			return models.MultiTower(8, p)
		}}, 4, 1},
		{Workload{Name: "MultiTower-16 (TP)", Build: func(p, l int) (*models.Built, error) {
			return models.MultiTower(16, p)
		}}, 2, 1},
		{Workload{Name: "GPT (TP+SP)", Build: func(p, l int) (*models.Built, error) {
			return models.GPT(models.Options{TP: p, SP: true, Cfg: models.Config{Layers: l}})
		}}, 4, 3},
		{Workload{Name: "ByteDance-Fwd (MoE)", Build: func(p, l int) (*models.Built, error) {
			cfg := models.SeedMoEConfig()
			cfg.Layers = l
			cfg.Experts = p // one expert per rank, the paper's EP layout
			return models.SeedMoE(models.Options{TP: p, Cfg: cfg})
		}}, 4, 3},
		{Workload{Name: "Regression (chain)", Build: func(p, l int) (*models.Built, error) {
			return models.Regression(models.Options{GradAccum: p})
		}}, 4, 1},
	}
}

// Parallel runs the wavefront scheduler study: for each model it
// measures wall-clock time sequentially (Workers: 1) and with a
// 4-worker pool, and separately profiles per-operator durations to
// compute the DAG's work/span bound and a deterministic simulation of
// the 4-worker wavefront schedule (list scheduling by topo index, the
// scheduler's actual policy). The simulated speedup is
// hardware-independent; the measured one is limited by GOMAXPROCS —
// on a single-CPU host it stays ≈ 1× for every model.
func Parallel() (string, error) {
	const workers = 4
	var out strings.Builder
	fmt.Fprintf(&out, "Wavefront scheduler: sequential vs %d workers (best of 3, GOMAXPROCS=%d)\n",
		workers, runtime.GOMAXPROCS(0))
	fmt.Fprintf(&out, "%-22s %6s %10s %10s %9s %9s %9s\n",
		"model", "#ops", "workers=1", fmt.Sprintf("workers=%d", workers), "measured", "span-lim", fmt.Sprintf("sim@%d", workers))
	for _, c := range parallelWorkloads() {
		seq, err := bestOf(3, c.w, c.parallel, c.layers, 1)
		if err != nil {
			return "", err
		}
		par, err := bestOf(3, c.w, c.parallel, c.layers, workers)
		if err != nil {
			return "", err
		}
		prof, err := profileSchedule(c.w, c.parallel, c.layers, workers)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&out, "%-22s %6d %10s %10s %8.2fx %8.2fx %8.2fx\n",
			c.w.Name, prof.ops,
			seq.Duration.Round(time.Millisecond),
			par.Duration.Round(time.Millisecond),
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

// profileSchedule times every operator of one sequential check — its
// verdict's Duration, every escalation attempt included — then computes
// the critical path of G_s weighted by those durations and simulates
// the wavefront policy (W workers, earliest-topo-index-first) to get
// its makespan.
func profileSchedule(w Workload, parallel, layers, workers int) (*scheduleProfile, error) {
	gs, gd, ri, err := w.graphs(parallel, layers)
	if err != nil {
		return nil, err
	}
	rep, err := core.NewChecker(core.Options{Registry: lemmas.Default(), Workers: 1}).Check(gs, gd, ri)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", w.Name, err)
	}

	// Verdicts are in topological order.
	n := len(rep.Verdicts)
	pos := make(map[graph.NodeID]int, n)
	d := make([]time.Duration, n)
	var work time.Duration
	for i, v := range rep.Verdicts {
		pos[v.Op.ID] = i
		d[i] = v.Duration
		work += d[i]
	}
	producers := func(i int) []int {
		var ps []int
		seen := map[int]bool{}
		for _, in := range rep.Verdicts[i].Op.Inputs {
			p := gs.Tensor(in).Producer
			if p == graph.NoProducer {
				continue
			}
			if j := pos[p]; !seen[j] {
				seen[j] = true
				ps = append(ps, j)
			}
		}
		return ps
	}

	// Critical path (span): longest duration-weighted producer chain.
	cp := make([]time.Duration, n)
	var span time.Duration
	for i := range n {
		var best time.Duration
		for _, j := range producers(i) {
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
	deps := make([]int, n)
	children := make([][]int, n)
	for i := range n {
		for _, j := range producers(i) {
			deps[i]++
			children[j] = append(children[j], i)
		}
	}
	sched := core.NewSchedCore(deps, children, false)
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
	return prof, nil
}

// bestOf runs a configuration n times and keeps the fastest result.
func bestOf(n int, w Workload, parallel, layers, workers int) (*Result, error) {
	var best *Result
	for i := 0; i < n; i++ {
		res, err := RunWorkers(w, parallel, layers, workers)
		if err != nil {
			return nil, err
		}
		if best == nil || res.Duration < best.Duration {
			best = res
		}
	}
	return best, nil
}
