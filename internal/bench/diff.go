package bench

import (
	"fmt"
	"strings"
	"time"

	"entangle/internal/core"
	"entangle/internal/expr"
	"entangle/internal/graph"
	"entangle/internal/lemmas"
	"entangle/internal/vcache"
)

// DiffPoint is one workload's full-check vs incremental-recheck
// measurement — one row of `entangle-bench -exp diff` and one entry of
// the BENCH_diff.json trajectory. The edit is a single-operator change
// (the last add/sum's operands swapped: refinement-preserving, but the
// cone fingerprint moves), so the diff run must re-check exactly the
// edited operator's downstream cone and replay everything else.
type DiffPoint struct {
	Workload string `json:"workload"`
	// Ops counts the G_s operators; ConeSize the edited operator's
	// downstream cone (itself included) — the re-check lower bound.
	Ops      int     `json:"ops"`
	EditedOp string  `json:"edited_op"`
	ConeSize int     `json:"cone_size"`
	FullMS   float64 `json:"full_ms"`
	DiffMS   float64 `json:"diff_ms"`
	// Speedup is the cold full check's wall clock over the diff run's.
	Speedup   float64 `json:"speedup"`
	Replayed  int     `json:"replayed"`
	Rechecked int     `json:"rechecked"`
}

// Diff measures diff-aware incremental re-verification on the
// ByteDance forward and forward+backward workloads: a cold full check
// populates the verdict cache, then a single-operator edit is
// re-verified with core.DiffCheck. The run fails — it is CI's
// correctness smoke gate, not just a stopwatch — unless the diff
// re-checks exactly the edit's downstream cone and replays every
// unchanged operator from the cache.
func Diff() (string, []DiffPoint, error) {
	var out strings.Builder
	fmt.Fprintln(&out, "Diff: full cold check vs single-op-edit incremental re-check (parallelism 2, 1 layer)")
	fmt.Fprintf(&out, "%-16s %6s %-22s %6s %10s %10s %9s\n",
		"model", "#ops", "edited", "cone", "full", "diff", "speedup")
	var points []DiffPoint
	for _, w := range Fig3Workloads() {
		if w.Name != "ByteDance-Fwd" && w.Name != "ByteDance-Bwd" {
			continue
		}
		p, err := diffPoint(w, 2, 1)
		if err != nil {
			return "", nil, err
		}
		points = append(points, *p)
		fmt.Fprintf(&out, "%-16s %6d %-22s %6d %10s %10s %8.1fx\n",
			p.Workload, p.Ops, p.EditedOp, p.ConeSize,
			time.Duration(p.FullMS*float64(time.Millisecond)).Round(time.Millisecond),
			time.Duration(p.DiffMS*float64(time.Millisecond)).Round(10*time.Microsecond),
			p.Speedup)
	}
	fmt.Fprintln(&out, "(each diff run re-checks exactly the edited operator's downstream cone; all other verdicts replay)")
	return out.String(), points, nil
}

// diffPoint runs one workload's full check plus the edited re-check
// against a fresh disk-backed cache.
func diffPoint(w Workload, parallel, layers int) (*DiffPoint, error) {
	b, err := w.Build(parallel, layers)
	if err != nil {
		return nil, err
	}
	newGs, edited, err := editOneOp(b.Gs)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", w.Name, err)
	}
	cone, err := downstreamCone(newGs, edited)
	if err != nil {
		return nil, err
	}
	dir, cleanup, err := tempDir("diff")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	vc, err := vcache.Open(vcache.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	checker := core.NewChecker(core.Options{Registry: lemmas.Default(), Cache: vc})

	start := time.Now()
	if _, err := checker.Check(b.Gs, b.Gd, b.Ri); err != nil {
		return nil, fmt.Errorf("%s full check: %v", w.Name, err)
	}
	fullD := time.Since(start)

	// The clone preserves tensor IDs, so the old relation serves the
	// edited graph unchanged.
	start = time.Now()
	delta, err := checker.DiffCheck(b.Gs, newGs, b.Gd, b.Ri, b.Ri)
	if err != nil {
		return nil, fmt.Errorf("%s diff check: %v", w.Name, err)
	}
	diffD := time.Since(start)

	if delta.RecheckedOps != len(cone) {
		return nil, fmt.Errorf("%s: diff re-checked %d operators, edited cone has %d",
			w.Name, delta.RecheckedOps, len(cone))
	}
	if delta.ReplayedOps != delta.UnchangedOps {
		return nil, fmt.Errorf("%s: only %d of %d unchanged operators replayed from the warm cache",
			w.Name, delta.ReplayedOps, delta.UnchangedOps)
	}
	speedup := 0.0
	if diffD > 0 {
		speedup = float64(fullD) / float64(diffD)
	}
	return &DiffPoint{
		Workload:  w.Name,
		Ops:       b.Gs.OperatorCount(),
		EditedOp:  newGs.Node(edited).Label,
		ConeSize:  len(cone),
		FullMS:    msOf(fullD),
		DiffMS:    msOf(diffD),
		Speedup:   speedup,
		Replayed:  delta.ReplayedOps,
		Rechecked: delta.RecheckedOps,
	}, nil
}

// editOneOp clones gs and swaps the operands of the last add/sum in
// topological order: elementwise-commutative, so refinement still
// holds, but cone fingerprints hash input order, so the operator and
// its downstream cone become dirty.
func editOneOp(gs *graph.Graph) (*graph.Graph, graph.NodeID, error) {
	order, err := gs.TopoSort()
	if err != nil {
		return nil, 0, err
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if (v.Op != expr.OpAdd && v.Op != expr.OpSum) || len(v.Inputs) < 2 || v.Inputs[0] == v.Inputs[1] {
			continue
		}
		edited := gs.Clone()
		n := edited.Node(v.ID)
		n.Inputs[0], n.Inputs[1] = n.Inputs[1], n.Inputs[0]
		return edited, v.ID, nil
	}
	return nil, 0, fmt.Errorf("no add/sum operator to edit")
}

// downstreamCone returns the IDs of root and every operator
// transitively consuming one of its outputs — the set a correct diff
// re-checks after editing root.
func downstreamCone(g *graph.Graph, root graph.NodeID) (map[graph.NodeID]bool, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, err
	}
	cone := map[graph.NodeID]bool{root: true}
	for _, v := range order {
		if cone[v.ID] {
			continue
		}
		for _, in := range v.Inputs {
			if p := g.Tensor(in).Producer; p != graph.NoProducer && cone[p] {
				cone[v.ID] = true
				break
			}
		}
	}
	return cone, nil
}
