// Command entangle checks model refinement between a sequential model
// and a distributed implementation, both supplied as graph files, with
// the clean input relation in a small JSON sidecar:
//
//	entangle -gs seq.json -gd dist.json -rel relation.json
//	entangle -gs seq.hlo -gd dist.hlo -rel relation.json -format hlo
//	entangle -gs seq.json -gd dist.json -rel relation.json \
//	    -timeout 5m -op-timeout 30s -keep-going
//
// -timeout bounds the whole run (Ctrl-C cancels it the same way);
// -op-timeout bounds each operator's check, classifying a stalled
// operator inconclusive instead of aborting; -keep-going reports every
// failing operator (skipping their downstream cones) instead of
// stopping at the first; -budget-escalations retries budget-limited
// operators with geometrically larger saturation budgets; -cache DIR
// keeps a content-addressed verdict cache across runs, so re-checking
// an unchanged (or mostly unchanged) model pair replays stored
// verdicts instead of re-saturating.
//
// With -diff, positional arguments name the old and new sequential
// graphs, and the checker re-verifies incrementally: operators whose
// upstream cone is unchanged replay their verdicts from the cache,
// only the edit's downstream cone is re-saturated, and the delta —
// what changed, what was replayed, which failures are new — is
// printed. The relation file is parsed against each graph in turn, so
// one sidecar serves both as long as the input names survive the edit:
//
//	entangle -diff -gd dist.json -rel relation.json \
//	    -cache /var/cache/entangle old.json new.json
//
// Without -cache the diff uses a run-local in-memory cache: the old
// graph is checked first to populate it, which still demonstrates the
// delta but saves no wall clock; a persistent -cache directory is the
// intended mode.
//
// With -lint, positional arguments name captured graph files, and the
// graph IR lint layer (internal/lint) runs over each instead of a
// refinement check:
//
//	entangle -lint captured.json other.json
//
// The relation file maps sequential input names to clean expressions
// over distributed tensor names, in the textual form the paper uses:
//
//	{"A": ["concat(A1, A2, dim=1)"], "X": ["r0/X", "r1/X"]}
//
// Exit status: 0 when refinement holds (the output relation is printed),
// 1 on a refinement failure (the failing operator is printed — with
// -keep-going, every failing operator), 2 on usage or input errors, 3
// when the check was cancelled by -timeout or an interrupt before
// reaching a verdict.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"entangle"
	"entangle/internal/core"
	"entangle/internal/exprparse"
	"entangle/internal/lint"
)

func main() {
	var (
		gsPath  = flag.String("gs", "", "sequential model graph file")
		gdPath  = flag.String("gd", "", "distributed implementation graph file")
		relPath = flag.String("rel", "", "input relation JSON file")
		format  = flag.String("format", "json", "graph file format: json or hlo")
		verbose = flag.Bool("v", false, "print the full relation, including intermediates")
		expect  = flag.String("expect", "", "optional §4.4 expectation JSON: {\"fs\": <expr over G_s outputs>, \"fd\": <expr over G_d outputs>}")
		workers = flag.Int("workers", 0, "checker worker pool size (0 = GOMAXPROCS, 1 = sequential)")
		timeout = flag.Duration("timeout", 0, "whole-run deadline; an expired check exits 3 (0 = none)")
		opTO    = flag.Duration("op-timeout", 0, "per-operator deadline; an operator exceeding it is inconclusive, not fatal (0 = none)")
		keepGo  = flag.Bool("keep-going", false, "on a per-operator failure, skip its downstream cone and keep checking independent operators; report every failure")
		escal   = flag.Int("budget-escalations", 0, "retries with a 4x larger saturation budget before an operator is declared inconclusive (0 = default of 1, negative = disabled)")
		cache   = flag.String("cache", "", "verdict cache directory: operators whose content-addressed fingerprint matches a prior run replay the stored verdict instead of re-saturating (empty = no cache)")
		doLint  = flag.Bool("lint", false, "lint the given graph files instead of checking refinement")
		doDiff  = flag.Bool("diff", false, "incrementally re-verify: positional args are the old and new G_s; only the edit's downstream cone is re-checked")
		jsonOut = flag.Bool("json", false, "with -lint: emit findings as JSON")
	)
	flag.Parse()
	if *doLint {
		lintGraphs(flag.Args(), *format, *jsonOut)
		return
	}
	opts := entangle.CheckerOptions{
		Workers:           *workers,
		OpTimeout:         *opTO,
		KeepGoing:         *keepGo,
		BudgetEscalations: *escal,
	}
	if *cache != "" {
		vc, err := entangle.OpenVerdictCache(entangle.VerdictCacheConfig{Dir: *cache})
		if err != nil {
			fatal(2, "opening cache: %v", err)
		}
		opts.Cache = vc
	}
	if *doDiff {
		diffGraphs(flag.Args(), *gdPath, *relPath, *format, opts, *timeout, *verbose)
		return
	}
	if *gsPath == "" || *gdPath == "" || *relPath == "" {
		fmt.Fprintln(os.Stderr, "usage: entangle -gs <graph> -gd <graph> -rel <relation.json> [-format json|hlo] [-v]\n       entangle -lint [-json] <graph>...")
		os.Exit(2)
	}

	gs, err := loadGraph(*gsPath, *format)
	if err != nil {
		fatal(2, "loading G_s: %v", err)
	}
	gd, err := loadGraph(*gdPath, *format)
	if err != nil {
		fatal(2, "loading G_d: %v", err)
	}
	ri, err := loadRelation(*relPath, gs, gd)
	if err != nil {
		fatal(2, "loading relation: %v", err)
	}

	checker := entangle.NewChecker(opts)
	if *expect != "" {
		if err := checkExpectation(checker, gs, gd, ri, *expect); err != nil {
			var ee *entangle.ExpectationError
			if errors.As(err, &ee) {
				fmt.Fprintf(os.Stderr, "EXPECTATION VIOLATED\n%v\n", ee)
				os.Exit(1)
			}
			fatal(2, "%v", err)
		}
		fmt.Println("user expectation verified")
		return
	}

	// The run context: Ctrl-C (SIGINT/SIGTERM) and -timeout both cancel
	// it; the checker observes cancellation between saturation
	// iterations, so the process exits promptly either way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	report, err := checker.CheckContext(ctx, gs, gd, ri)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "entangle: check cancelled (%v): %v\n", ctx.Err(), err)
			os.Exit(3)
		}
		if report != nil && len(report.Failures) > 0 {
			// -keep-going: the partial report lists every failing
			// operator (and its skipped cone) in topological order.
			fmt.Fprintf(os.Stderr, "REFINEMENT FAILED (%d operators, %d checked)\n%s",
				len(report.Failures), report.OpsProcessed, report.RenderFailures())
			fmt.Fprintf(os.Stderr, "first failure:\n%v\n", err)
			os.Exit(1)
		}
		if core.FailingOp(err) != nil {
			header := "REFINEMENT FAILED"
			var ie *entangle.InconclusiveError
			if errors.As(err, &ie) {
				header = "REFINEMENT INCONCLUSIVE"
			}
			fmt.Fprintf(os.Stderr, "%s\n%v\n", header, err)
			os.Exit(1)
		}
		var ef *entangle.EngineFaultError
		if errors.As(err, &ef) {
			fmt.Fprintf(os.Stderr, "ENGINE FAULT\n%v\n", ef)
			os.Exit(2)
		}
		fatal(2, "%v", err)
	}

	fmt.Printf("refinement verified: %q refines %q (%d operators checked in %s)\n",
		gd.Name, gs.Name, report.OpsProcessed, report.Duration.Round(1e6))
	fmt.Println("output relation R_o:")
	fmt.Print(report.OutputRelation.Render(gs))
	if *verbose {
		fmt.Println("full relation (including intermediates):")
		fmt.Print(report.FullRelation.Render(gs))
	}
}

// diffGraphs runs the -diff mode: check the old graph (replaying from
// a warm cache, or populating a fresh one), then incrementally
// re-verify the new graph and print the delta. Exit codes mirror the
// plain check: 0 when the new graph refines, 1 on a refinement
// failure, 2 on input errors, 3 when cancelled.
func diffGraphs(paths []string, gdPath, relPath, format string, opts entangle.CheckerOptions, timeout time.Duration, verbose bool) {
	if len(paths) != 2 || gdPath == "" || relPath == "" {
		fmt.Fprintln(os.Stderr, "usage: entangle -diff -gd <graph> -rel <relation.json> [-cache DIR] <old-gs> <new-gs>")
		os.Exit(2)
	}
	oldGs, err := loadGraph(paths[0], format)
	if err != nil {
		fatal(2, "loading old G_s: %v", err)
	}
	newGs, err := loadGraph(paths[1], format)
	if err != nil {
		fatal(2, "loading new G_s: %v", err)
	}
	gd, err := loadGraph(gdPath, format)
	if err != nil {
		fatal(2, "loading G_d: %v", err)
	}
	oldRi, err := loadRelation(relPath, oldGs, gd)
	if err != nil {
		fatal(2, "loading relation against old G_s: %v", err)
	}
	newRi, err := loadRelation(relPath, newGs, gd)
	if err != nil {
		fatal(2, "loading relation against new G_s: %v", err)
	}
	if opts.Cache == nil {
		vc, err := entangle.OpenVerdictCache(entangle.VerdictCacheConfig{})
		if err != nil {
			fatal(2, "opening in-memory cache: %v", err)
		}
		opts.Cache = vc
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	// Baseline pass over the old graph: a warm cache replays it, a cold
	// one is populated. Old-graph failures are delta context ("already
	// failing before the edit"), not fatal — KeepGoing caches every
	// independent verdict regardless.
	warm := opts
	warm.KeepGoing = true
	if _, err := entangle.NewChecker(warm).CheckContext(ctx, oldGs, gd, oldRi); err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "entangle: diff cancelled (%v): %v\n", ctx.Err(), err)
			os.Exit(3)
		}
		if core.FailingOp(err) == nil {
			fatal(2, "checking old G_s: %v", err)
		}
	}

	delta, err := entangle.NewChecker(opts).DiffCheckContext(ctx, oldGs, newGs, gd, oldRi, newRi)
	if delta == nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "entangle: diff cancelled (%v): %v\n", ctx.Err(), err)
			os.Exit(3)
		}
		fatal(2, "%v", err)
	}
	fmt.Print(delta.Render())
	if verbose {
		fmt.Println("output relation R_o:")
		fmt.Print(delta.Report.OutputRelation.Render(newGs))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "REFINEMENT FAILED (%d operators, %d checked)\n%s",
			len(delta.Report.Failures), delta.Report.OpsProcessed, delta.Report.RenderFailures())
		os.Exit(1)
	}
}

// lintGraphs runs the graph IR lint layer over captured graph files;
// exit 0 when clean, 1 on error-severity findings, 2 on input errors.
func lintGraphs(paths []string, format string, jsonOut bool) {
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "usage: entangle -lint [-json] [-format json|hlo] <graph>...")
		os.Exit(2)
	}
	var report lint.Report
	for _, path := range paths {
		g, err := loadGraph(path, format)
		if err != nil {
			fatal(2, "loading %s: %v", path, err)
		}
		for _, d := range lint.Graph(g) {
			d.Subject = path + ": " + d.Subject
			report.Add(d)
		}
	}
	if jsonOut {
		if err := report.WriteJSON(os.Stdout); err != nil {
			fatal(2, "%v", err)
		}
	} else if err := report.WriteText(os.Stdout); err != nil {
		fatal(2, "%v", err)
	}
	if report.Errors() > 0 {
		os.Exit(1)
	}
}

func loadGraph(path, format string) (*entangle.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch format {
	case "json":
		return entangle.ReadGraph(f)
	case "hlo":
		return entangle.ParseHLO(f)
	}
	return nil, fmt.Errorf("unknown format %q", format)
}

func loadRelation(path string, gs, gd *entangle.Graph) (*entangle.Relation, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var raw map[string][]string
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, err
	}
	return exprparse.ParseRelation(raw, gs, gd)
}

// checkExpectation reads {"fs": "...", "fd": "..."} and runs the §4.4
// check: fs is an expression over G_s tensor names, fd over G_d names.
func checkExpectation(checker *entangle.Checker, gs, gd *entangle.Graph, ri *entangle.Relation, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var raw struct {
		Fs string `json:"fs"`
		Fd string `json:"fd"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	fs, err := exprparse.Parse(strings.TrimSpace(raw.Fs), exprparse.GsLeafFn(gs))
	if err != nil {
		return fmt.Errorf("expectation fs: %v", err)
	}
	fd, err := exprparse.Parse(strings.TrimSpace(raw.Fd), exprparse.GdLeafFn(gd))
	if err != nil {
		return fmt.Errorf("expectation fd: %v", err)
	}
	return checker.CheckExpectation(gs, gd, ri, entangle.Expectation{Fs: fs, Fd: fd})
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "entangle: "+format+"\n", args...)
	os.Exit(code)
}
