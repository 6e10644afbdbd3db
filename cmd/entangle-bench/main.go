// Command entangle-bench regenerates the paper's evaluation artifacts
// as text reports:
//
//	entangle-bench                 # everything
//	entangle-bench -exp fig3       # one experiment
//	entangle-bench -exp bugs       # Table 3
//
// Experiments: fig3, fig4, fig5, fig6, bugs (Table 3), ablation,
// extensions and parallel print the paper's text artefacts. Two more
// keep a committed trajectory and gate CI against its last run — with
// one of them selected, -json FILE appends the run's data points to the
// trajectory and -baseline FILE fails the run on a regression against
// it:
// saturate (cold-check hot-path microbenchmark, BENCH_saturate.json:
// fails on a >20% cold-throughput drop, a rise in e-matches per
// check, allocated bytes or allocations per check more than 1% over the
// last run, or any change in rule applications per check) and fuzz (randomized strategy fuzzer, BENCH_fuzz.json: a
// seeded campaign of composed parallelizations cross-checked against
// the numeric oracle plus the §6.2 bug-class rediscovery sweep;
// self-gates on soundness and full class coverage, and fails on a rise
// in unique lemma gaps or a fall in the share of injected defects
// rediscovered). What a cache hit, a one-operator edit or a fleet costs
// is measured on the shipped daemon by benchmark/ (BENCHMARK.json).
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
	exp        = flag.String("exp", "all", "experiment: fig3, fig4, fig5, fig6, bugs, ablation, extensions, parallel, saturate, fuzz, all")
	jsonOut    = flag.String("json", "", "saturate, fuzz: append the run's data points to this JSON trajectory file (BENCH_saturate.json, BENCH_fuzz.json)")
	baseline   = flag.String("baseline", "", "saturate, fuzz: compare against this trajectory's last run and exit non-zero on a regression (the package comment says what each gates)")
	cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile covering the selected experiments to this file")
	memprofile = flag.String("memprofile", "", "write a pprof allocation profile taken after the selected experiments to this file")
)

// main defers to run so profile-flushing defers execute before the
// process exits (os.Exit would skip them).
func main() {
	flag.Parse()
	os.Exit(run())
}

func run() int {
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
		{"saturate", gated(bench.Saturate, bench.CompareSaturate)},
		{"fuzz", gated(bench.Fuzz, bench.CompareFuzz)},
	}
	// A trajectory file holds one experiment's runs: under -exp all,
	// -json would append every gated experiment's points to it and
	// -baseline would read another experiment's run as its own.
	if (*jsonOut != "" || *baseline != "") && *exp != "saturate" && *exp != "fuzz" {
		fmt.Fprintf(os.Stderr, "entangle-bench: -json and -baseline need -exp saturate or -exp fuzz, the experiments that keep a trajectory (got -exp %s)\n", *exp)
		return 2
	}

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
