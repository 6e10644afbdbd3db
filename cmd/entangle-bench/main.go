// Command entangle-bench regenerates the paper's evaluation artifacts
// as text reports:
//
//	entangle-bench                 # everything
//	entangle-bench -exp fig3       # one experiment
//	entangle-bench -exp bugs       # Table 3
//
// Experiments: fig3, fig4, fig5, fig6, bugs (Table 3), ablation,
// extensions, parallel, chaos (fault-injection robustness matrix),
// cache (cold vs warm verdict-cache matrix; -json FILE appends the
// run's data points to a BENCH_cache.json-style trajectory), saturate
// (cold-check hot-path microbenchmark; -json appends to a
// BENCH_saturate.json-style trajectory, -baseline FILE fails the run
// on a >20% cold-throughput regression, a rise in e-matches or
// allocated bytes per check, or any change in rule applications per
// check, vs. that trajectory's last recorded run — the CI smoke gate),
// diff (single-op-edit incremental re-verification vs a cold full
// check; fails unless the diff
// re-checks exactly the edit's downstream cone and replays everything
// else; -json FILE appends to a BENCH_diff.json-style trajectory),
// fleet (sharded verdict fleet: a 3-node simulated cluster must render
// byte-identical reports to a single node, fault-free and under seeded
// chaos with crash/partition/heal, and a fault-free cold check may
// cost at most 2·(nodes−1) peer round trips each way, plus a
// throughput-vs-node-count sweep; -json FILE appends to a
// BENCH_fleet.json-style trajectory),
// fuzz (randomized strategy fuzzer: a seeded campaign of composed
// parallelizations cross-checked against the numeric oracle plus the
// §6.2 bug-class rediscovery sweep; self-gates on soundness and full
// class coverage; -json FILE appends to a BENCH_fuzz.json-style
// trajectory).
//
// -cpuprofile/-memprofile write pprof profiles covering the selected
// experiments (the hot-path tuning loop: `entangle-bench -exp
// saturate -cpuprofile cpu.out`, then `go tool pprof cpu.out`).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"entangle/internal/bench"
)

var (
	jsonOut    = flag.String("json", "", "append the cache/saturate experiment's data points to this JSON trajectory file (e.g. BENCH_cache.json, BENCH_saturate.json)")
	baseline   = flag.String("baseline", "", "saturate: compare against this trajectory's last run and exit non-zero on a cold-throughput regression beyond -tolerance, on a rise in e-matches or allocated bytes per check, or on any change in rule applications per check")
	tolerance  = flag.Float64("tolerance", 0.20, "saturate: allowed fractional cold-throughput drop vs. -baseline before failing")
	cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile covering the selected experiments to this file")
	memprofile = flag.String("memprofile", "", "write a pprof allocation profile taken after the selected experiments to this file")
)

// main defers to run so profile-flushing defers execute before the
// process exits (os.Exit would skip them).
func main() { os.Exit(run()) }

func run() int {
	exp := flag.String("exp", "all", "experiment: fig3, fig4, fig5, fig6, bugs, ablation, extensions, parallel, chaos, cache, saturate, diff, fleet, fuzz, all")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "entangle-bench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "entangle-bench: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "entangle-bench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "entangle-bench: %v\n", err)
			}
		}()
	}

	steps := []struct {
		name string
		run  func() (string, error)
	}{
		{"fig3", text(bench.Fig3)},
		{"fig4", text(bench.Fig4)},
		{"fig5", bench.Fig5},
		{"fig6", bench.Fig6},
		{"bugs", text(bench.Table3)},
		{"ablation", bench.Ablation},
		{"extensions", bench.Extensions},
		{"parallel", bench.Parallel},
		{"chaos", bench.Chaos},
		{"cache", recorded(bench.Cache)},
		{"saturate", runSaturate},
		{"diff", recorded(bench.Diff)},
		{"fleet", recorded(bench.Fleet)},
		{"fuzz", recorded(bench.Fuzz)},
	}
	ran := false
	for _, s := range steps {
		if *exp != "all" && *exp != s.name {
			continue
		}
		ran = true
		txt, err := s.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "entangle-bench: %s: %v\n", s.name, err)
			return 1
		}
		fmt.Println(txt)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "entangle-bench: unknown experiment %q\n", *exp)
		return 2
	}
	return 0
}
