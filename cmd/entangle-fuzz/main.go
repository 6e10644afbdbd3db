// Command entangle-fuzz runs the randomized strategy fuzzer: seeded
// campaigns that compose random legal parallelizations of sequential
// models, inject paper-Table-3-style defects with recorded ground
// truth, and cross-check every checker verdict against the numeric
// oracle. Disagreements are shrunk to minimal replayable cases.
//
//	entangle-fuzz                                  # one bounded campaign
//	entangle-fuzz -seed 7 -n 200 -models chain,gpt # directed campaign
//	entangle-fuzz -corpus internal/fuzz/testdata/corpus   # replay first
//	entangle-fuzz -soak 10m -out /tmp/repros       # nightly soak
//
// The process exits non-zero on any unsound case (checker refined,
// numerics disagree), on a corpus replay failure, or on a composition
// error — so the same invocation is the CI gate and the bug hunter.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"entangle/internal/fuzz"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		seed      = flag.Uint64("seed", 1, "master seed for the campaign stream")
		n         = flag.Int("n", 50, "correct compositions per campaign (each also gets one injection per applicable defect class)")
		models    = flag.String("models", "", "comma-separated model families: chain,gpt,seedmoe,regression (empty = all)")
		maxDegree = flag.Int("max-degree", 4, "parallelism degree bound: plans draw R 2, or R 2 and 4 at 4 or more (above 4 acts as 4)")
		workers   = flag.Int("workers", 2, "checker workers per case")
		soak      = flag.Duration("soak", 0, "keep running fresh campaigns until this wall-clock budget is spent (0 = one campaign)")
		corpus    = flag.String("corpus", "", "replay this corpus directory before fuzzing; replay failure fails the run")
		out       = flag.String("out", "", "write shrunk repro cases (new lemma gaps, unsound cases) into this directory")
		verbose   = flag.Bool("v", false, "log every case as it is evaluated")
	)
	flag.Parse()

	families, err := fuzz.ParseFamilies(splitList(*models))
	if err != nil {
		fmt.Fprintf(os.Stderr, "entangle-fuzz: %v\n", err)
		return 2
	}

	// Stage 1: corpus replay — the regression gate. Every committed
	// case must rebuild byte-for-byte and keep (or improve on) its
	// recorded verdict.
	if *corpus != "" {
		cases, err := fuzz.LoadCorpus(*corpus)
		if err != nil {
			fmt.Fprintf(os.Stderr, "entangle-fuzz: corpus: %v\n", err)
			return 1
		}
		failed := 0
		for _, c := range cases {
			improved, err := fuzz.Replay(c, *workers)
			switch {
			case err != nil:
				fmt.Fprintf(os.Stderr, "entangle-fuzz: replay %s: FAIL: %v\n", c.Name, err)
				failed++
			case improved:
				fmt.Printf("replay %-32s ok (improved: recorded %s now passes)\n", c.Name, c.Expect)
			default:
				fmt.Printf("replay %-32s ok (%s)\n", c.Name, c.Expect)
			}
		}
		if failed > 0 {
			fmt.Fprintf(os.Stderr, "entangle-fuzz: %d/%d corpus replays failed\n", failed, len(cases))
			return 1
		}
		fmt.Printf("corpus: %d case(s) replayed\n\n", len(cases))
	}

	// Stage 2: campaigns. A soak budget reruns fresh campaigns with
	// derived seeds until the wall clock is spent.
	deadline := time.Now().Add(*soak)
	round := uint64(0)
	total := &fuzz.Stats{GapKeys: map[string]int{}, ByClass: map[fuzz.DefectClass]*fuzz.ClassStats{}}
	for {
		cfg := fuzz.Config{
			Seed:      *seed + round,
			N:         *n,
			Families:  families,
			MaxDegree: *maxDegree,
			Workers:   *workers,
			Shrink:    true,
		}
		if *verbose {
			cfg.OnCase = func(r *fuzz.Result) {
				d := "correct"
				if r.Case.Defect != nil {
					d = r.Case.Defect.String()
				}
				fmt.Printf("  %-60s %-12s %s\n", r.Case.Plan, d, r.Outcome)
			}
		}
		stats, err := fuzz.Run(cfg)
		merge(total, stats)
		if err != nil {
			report(total)
			fmt.Fprintf(os.Stderr, "entangle-fuzz: %v\n", err)
			return 1
		}
		round++
		if *soak <= 0 || time.Now().After(deadline) {
			break
		}
	}

	report(total)
	if *out != "" && len(total.Repros) > 0 {
		if err := fuzz.SaveCorpus(*out, total.Repros); err != nil {
			fmt.Fprintf(os.Stderr, "entangle-fuzz: saving repros: %v\n", err)
			return 1
		}
		fmt.Printf("wrote %d repro case(s) to %s\n", len(total.Repros), *out)
	}
	if total.Unsound > 0 {
		fmt.Fprintf(os.Stderr, "entangle-fuzz: %d UNSOUND case(s) — checker refined a numerically wrong graph\n", total.Unsound)
		return 1
	}
	return 0
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func merge(dst, src *fuzz.Stats) {
	if src == nil {
		return
	}
	dst.Cases += src.Cases
	dst.Correct += src.Correct
	dst.Injected += src.Injected
	dst.Agree += src.Agree
	dst.Rediscovered += src.Rediscovered
	dst.LemmaGaps += src.LemmaGaps
	dst.Masked += src.Masked
	dst.Unsound += src.Unsound
	for k, v := range src.GapKeys {
		dst.GapKeys[k] += v
	}
	for cl, cs := range src.ByClass {
		if dst.ByClass[cl] == nil {
			dst.ByClass[cl] = &fuzz.ClassStats{}
		}
		d := dst.ByClass[cl]
		d.Injected += cs.Injected
		d.Rediscovered += cs.Rediscovered
		d.LemmaGap += cs.LemmaGap
		d.Masked += cs.Masked
		d.Unsound += cs.Unsound
	}
	dst.Repros = append(dst.Repros, src.Repros...)
}

func report(s *fuzz.Stats) {
	fmt.Printf("fuzz: %d cases (%d correct, %d injected)\n", s.Cases, s.Correct, s.Injected)
	fmt.Printf("  agree        %6d\n", s.Agree)
	fmt.Printf("  rediscovered %6d\n", s.Rediscovered)
	fmt.Printf("  masked       %6d\n", s.Masked)
	fmt.Printf("  lemma gaps   %6d (%d unique)\n", s.LemmaGaps, s.UniqueGaps())
	fmt.Printf("  unsound      %6d\n", s.Unsound)
	for _, k := range s.SortedGapKeys() {
		fmt.Printf("    gap %-42s ×%d\n", k, s.GapKeys[k])
	}
	for _, cl := range fuzz.Classes {
		c := s.ByClass[cl]
		if c == nil || c.Injected == 0 {
			continue
		}
		fmt.Printf("  class %-20s injected %4d  rediscovered %4d  gap %3d  masked %3d  unsound %3d\n",
			cl, c.Injected, c.Rediscovered, c.LemmaGap, c.Masked, c.Unsound)
	}
}
