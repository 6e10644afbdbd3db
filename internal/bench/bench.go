// Package bench is the experiment harness: it regenerates every table
// and figure of the paper's evaluation (§6) — Figure 3's end-to-end
// verification times, Figure 4's scalability sweeps, Figure 5's lemma
// statistics, Figure 6's lemma-application heatmap, and Table 3's bug
// suite — as plain-text reports, which cmd/entangle-bench prints.
package bench

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"entangle/internal/core"
	"entangle/internal/graph"
	"entangle/internal/lemmas"
	"entangle/internal/models"
)

// Workload is one Figure 3 model: what the sweeps need to build it at
// any parallelism degree and depth.
type Workload struct {
	Name     string
	Strategy string // human-readable strategy summary (Table 2)
	Build    func(parallel, layers int) (*models.Built, error)
	// ViaHLO routes both graphs through the HLO text format before
	// checking (the Transformers-NeuronX capture path).
	ViaHLO bool
	// Parallelisms lists the degrees Figure 4 sweeps for this model
	// (nil: only degree 2 is used).
	Parallelisms []int
}

// Case is the workload at one parallelism degree and depth, named
// Name(degree) — with its depth appended when that is not one layer.
func (w Workload) Case(parallel, layers int) ZooCase {
	name := fmt.Sprintf("%s(%d)", w.Name, parallel)
	if layers != 1 {
		name += fmt.Sprintf(" × %d layers", layers)
	}
	return ZooCase{Name: name, ViaHLO: w.ViaHLO, Build: func() (*models.Built, error) { return w.Build(parallel, layers) }}
}

// Fig3Workloads returns the Figure 3 model set (Table 2's open models
// plus the ByteDance stand-ins).
func Fig3Workloads() []Workload {
	return []Workload{
		{
			Name: "ByteDance-Fwd", Strategy: "TP, SP, EP",
			Build: func(p, l int) (*models.Built, error) {
				return models.SeedMoE(models.Options{TP: p, Cfg: models.Config{Layers: l}})
			},
		},
		{
			Name: "ByteDance-Bwd", Strategy: "TP, SP, EP (backward)",
			Build: func(p, l int) (*models.Built, error) {
				return models.SeedMoEBwd(models.Options{TP: p})
			},
		},
		{
			Name: "GPT", Strategy: "TP, SP",
			Build: func(p, l int) (*models.Built, error) {
				return models.GPT(models.Options{TP: p, SP: true, Cfg: models.Config{Layers: l}})
			},
			Parallelisms: []int{2, 4, 6, 8},
		},
		{
			Name: "Qwen2", Strategy: "TP (vLLM fused kernels)",
			Build: func(p, l int) (*models.Built, error) {
				return models.Qwen2(models.Options{TP: p, Cfg: models.Config{Layers: l}})
			},
		},
		{
			Name: "Llama-3", Strategy: "TP (via HLO)",
			Build: func(p, l int) (*models.Built, error) {
				return models.Llama(models.Options{TP: p, Cfg: models.Config{Layers: l}})
			},
			ViaHLO:       true,
			Parallelisms: []int{2, 4, 8}, // 6 cannot partition heads=8
		},
		{
			Name: "Regression", Strategy: "gradient accumulation",
			Build: func(p, l int) (*models.Built, error) {
				return models.Regression(models.Options{GradAccum: p})
			},
		},
	}
}

// fig3Workload returns the Figure 3 workload called name.
func fig3Workload(name string) Workload {
	ws := Fig3Workloads()
	return ws[slices.IndexFunc(ws, func(w Workload) bool { return w.Name == name })]
}

// Result is one case's check: its size, its time and the last check's
// report.
type Result struct {
	Ops      int           // |G_s| + |G_d|
	Duration time.Duration // the median check
	Report   *core.Report  // nil for an expectation case
	Registry *lemmas.Registry
	Gs       *graph.Graph // the G_s the report's verdicts name
}

// figureRuns is how many cold checks Run times: it reads their median,
// which the experiments print to 0.1 ms. One check of a few
// milliseconds is too noisy to read alone.
const figureRuns = 5

// Run is how every experiment checks a case and times it. The case is
// built once, then checked figureRuns times, each by a fresh checker
// (cold), and Duration is the median check. opts.Workers 0 selects one
// worker, the paper's single-threaded prototype; a study of the
// wavefront scheduler sets the pool. An expectation case is checked
// with CheckExpectation against its pair's ExpectFs/ExpectFd. The
// check's error comes back beside the result, as Check returns a
// report beside it: a bug case's error is its finding.
func Run(c ZooCase, opts core.Options) (*Result, error) { return run(c, opts, figureRuns) }

// run is Run with n checks; an experiment that reads no time checks
// once.
func run(c ZooCase, opts core.Options, n int) (*Result, error) {
	b, gs, gd, ri, err := c.Graphs()
	if err != nil {
		return nil, err
	}
	if opts.Workers == 0 {
		opts.Workers = 1
	}
	if opts.Registry == nil {
		opts.Registry = lemmas.Default()
	}
	res := &Result{Ops: gs.OperatorCount() + gd.OperatorCount(), Registry: opts.Registry, Gs: gs}
	times := make([]time.Duration, n)
	for i := range times {
		checker := core.NewChecker(opts)
		start := time.Now()
		if c.Expectation {
			err = checker.CheckExpectation(gs, gd, ri, core.Expectation{Fs: b.ExpectFs, Fd: b.ExpectFd})
		} else {
			res.Report, err = checker.Check(gs, gd, ri)
		}
		times[i] = time.Since(start)
	}
	slices.Sort(times)
	res.Duration = times[n/2]
	if err != nil {
		return res, fmt.Errorf("%s: %w", c.Name, err)
	}
	return res, nil
}

// Fig3 verifies every workload at parallelism 2 with one layer and
// renders the end-to-end time table.
func Fig3() (string, []*Result, error) {
	var out strings.Builder
	fmt.Fprintf(&out, "Figure 3: end-to-end verification time (parallelism 2, 1 layer; median of %d, ms)\n", figureRuns)
	fmt.Fprintf(&out, "%-16s %-26s %10s %12s\n", "model", "strategy", "#ops", "time")
	var results []*Result
	for _, w := range Fig3Workloads() {
		res, err := Run(w.Case(2, 1), core.Options{})
		if err != nil {
			return "", nil, err
		}
		results = append(results, res)
		fmt.Fprintf(&out, "%-16s %-26s %10d %12.1f\n", w.Name, w.Strategy, res.Ops, msOf(res.Duration))
	}
	return out.String(), results, nil
}

// fig4Layers is Figure 4's layer axis: the paper's 1–3, then deeper, where
// a check's cost per added layer shows.
var fig4Layers = []int{1, 2, 3, 6, 12}

// Fig4 sweeps parallelism degree and layer count for GPT (TP+SP+VP)
// and Llama-3 (TP), the paper's scalability study.
func Fig4() (string, []*Result, error) { return fig4(fig4Layers) }

func fig4(layers []int) (string, []*Result, error) {
	var out strings.Builder
	var all []*Result
	sweep := func(title string, w Workload) error {
		fmt.Fprintf(&out, "Figure 4: %s scalability (verification time, median of %d, ms)\n", title, figureRuns)
		fmt.Fprintf(&out, "%-12s", "par \\ layers")
		for _, l := range layers {
			fmt.Fprintf(&out, " %10d", l)
		}
		fmt.Fprintln(&out)
		for _, p := range w.Parallelisms {
			fmt.Fprintf(&out, "%-12d", p)
			for _, l := range layers {
				res, err := Run(w.Case(p, l), core.Options{})
				if err != nil {
					return err
				}
				all = append(all, res)
				fmt.Fprintf(&out, " %10.1f", msOf(res.Duration))
			}
			fmt.Fprintln(&out)
		}
		fmt.Fprintln(&out)
		return nil
	}
	gpt := Workload{Name: "GPT (TP+SP+VP)", Parallelisms: []int{2, 4, 6, 8}, Build: func(p, l int) (*models.Built, error) {
		return models.GPT(models.Options{TP: p, SP: true, VP: true, Cfg: models.Config{Layers: l}})
	}}
	if err := sweep("GPT (TP+SP+VP)", gpt); err != nil {
		return "", nil, err
	}
	if err := sweep("Llama-3 (TP)", fig3Workload("Llama-3")); err != nil {
		return "", nil, err
	}
	out.WriteString("(Llama-3 has no degree-6 column: heads=8 cannot be evenly partitioned by 6.)\n")
	return out.String(), all, nil
}

// Fig5 reports per-model operator/lemma counts and average lemma
// complexity (5a), and the LOC-per-lemma CDF (5b).
func Fig5() (string, error) {
	var out strings.Builder
	fmt.Fprintln(&out, "Figure 5a: operators, lemmas used, avg lemma complexity")
	fmt.Fprintf(&out, "%-16s %8s %8s %12s\n", "model", "#ops", "#lemmas", "avg cmplx")
	for _, w := range Fig3Workloads() {
		res, err := run(w.Case(2, 1), core.Options{}, 1)
		if err != nil {
			return "", err
		}
		used := res.Registry.UsedLemmas(res.Report.Stats.Applications)
		total := 0
		for _, l := range used {
			total += l.Complexity
		}
		avg := 0.0
		if len(used) > 0 {
			avg = float64(total) / float64(len(used))
		}
		fmt.Fprintf(&out, "%-16s %8d %8d %12.1f\n", w.Name, res.Ops, len(used), avg)
	}
	fmt.Fprintln(&out)
	fmt.Fprintln(&out, "Figure 5b: CDF of LOC per lemma (full library)")
	reg := lemmas.Default()
	var locs []int
	for _, l := range reg.All() {
		locs = append(locs, l.LOC)
	}
	sort.Ints(locs)
	for _, q := range []int{10, 25, 50, 75, 90, 100} {
		idx := (q*len(locs) - 1) / 100
		if idx < 0 {
			idx = 0
		}
		fmt.Fprintf(&out, "  p%-3d ≤ %3d LOC\n", q, locs[idx])
	}
	fmt.Fprintf(&out, "  lemmas: %d total, max %d LOC (all < 70 LOC; the paper reports < 40 for most)\n",
		len(locs), locs[len(locs)-1])
	return out.String(), nil
}

// Fig6 renders the lemma-application heatmap: rows are (model,
// parallelism) pairs, columns lemma IDs, cells log₂-bucketed counts.
func Fig6() (string, error) {
	type row struct {
		label  string
		counts map[int]int
	}
	reg := lemmas.Default()
	var rows []row
	gpt := fig3Workload("GPT")
	for _, c := range []ZooCase{gpt.Case(2, 1), gpt.Case(4, 1), gpt.Case(8, 1),
		fig3Workload("Qwen2").Case(4, 1), fig3Workload("Llama-3").Case(4, 1)} {
		res, err := run(c, core.Options{}, 1)
		if err != nil {
			return "", err
		}
		rows = append(rows, row{label: c.Name, counts: res.Registry.LemmaCounts(res.Report.Stats.Applications)})
	}

	var out strings.Builder
	fmt.Fprintln(&out, "Figure 6: lemma applications (log2 buckets: .=0, digits=⌊log2(n)⌋+1)")
	fmt.Fprintf(&out, "%-12s ", "")
	kinds := make([]byte, reg.Len())
	for i, l := range reg.All() {
		kinds[i] = byte(l.Kind)
	}
	for i := 0; i < reg.Len(); i++ {
		fmt.Fprintf(&out, "%d", i%10)
	}
	fmt.Fprintln(&out)
	for _, r := range rows {
		fmt.Fprintf(&out, "%-12s ", r.label)
		for i := 0; i < reg.Len(); i++ {
			n := r.counts[i]
			switch {
			case n == 0:
				out.WriteByte('.')
			default:
				b := 1
				for n > 1 {
					n >>= 1
					b++
				}
				if b > 9 {
					b = 9
				}
				fmt.Fprintf(&out, "%d", b)
			}
		}
		fmt.Fprintln(&out)
	}
	fmt.Fprintf(&out, "%-12s ", "kind")
	out.Write(kinds)
	fmt.Fprintln(&out)
	fmt.Fprintln(&out, "legend: c=clean-op lemma, g=general ATen, v=vLLM fused (no HLO-only h lemma)")
	fmt.Fprintln(&out)
	fmt.Fprintln(&out, "lemma IDs:")
	for _, l := range reg.All() {
		fmt.Fprintf(&out, "  %2d %c %s\n", l.ID, l.Kind, l.Name)
	}
	return out.String(), nil
}
