// Command entangle checks model refinement between a sequential model
// and a distributed implementation, both supplied as graph files, with
// the clean input relation in a small JSON sidecar:
//
//	entangle -gs seq.json -gd dist.json -rel relation.json
//	entangle -gs seq.hlo -gd dist.hlo -rel relation.json -format hlo
//	entangle -gs seq.json -gd dist.json -rel relation.json \
//	    -timeout 5m -keep-going
//
// Every flag is defined in newFlagSet and tabulated in README.md; -h
// prints them.
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
// The relation file maps sequential input names to clean expressions
// over distributed tensor names, in the textual form the paper uses:
//
//	{"A": ["concat(A1, A2, dim=1)"], "X": ["r0/X", "r1/X"]}
//
// Exit status: 0 when refinement holds (the output relation is printed),
// 1 on a refinement failure (the failing operator is printed — with
// -keep-going, every failing operator), 2 on usage or input errors, 3
// when the check was cancelled by -timeout, SIGINT or SIGTERM before
// reaching a verdict. What a run amounts to is core.Classify's decision;
// this command renders it and maps it to a status (exitCode).
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
	"syscall"
	"time"

	"entangle"
	"entangle/internal/core"
	"entangle/internal/exprparse"
)

// options is everything the command line sets; the checker's own
// knobs are parsed straight into its options.
type options struct {
	checker                            entangle.CheckerOptions
	gs, gd, rel, format, expect, cache string
	verbose, diff                      bool
	timeout                            time.Duration
}

// newFlagSet defines the command's flags, all of them and only here:
// main parses the set and the README test walks it.
func newFlagSet(name string) (*flag.FlagSet, *options) {
	o := new(options)
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.StringVar(&o.gs, "gs", "", "sequential model graph file")
	fs.StringVar(&o.gd, "gd", "", "distributed implementation graph file")
	fs.StringVar(&o.rel, "rel", "", "input relation JSON file")
	fs.StringVar(&o.format, "format", "json", "graph file format: json or hlo")
	fs.BoolVar(&o.verbose, "v", false, "print the full relation, including intermediates")
	fs.StringVar(&o.expect, "expect", "", "optional §4.4 expectation JSON: {\"fs\": <expr over G_s outputs>, \"fd\": <expr over G_d outputs>}")
	fs.IntVar(&o.checker.Workers, "workers", 0, "checker worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	fs.DurationVar(&o.timeout, "timeout", 0, "whole-run deadline; an expired check exits 3 (0 = none)")
	fs.BoolVar(&o.checker.KeepGoing, "keep-going", false, "on a per-operator failure, skip its downstream cone and keep checking independent operators; report every failure")
	fs.StringVar(&o.cache, "cache", "", "verdict cache directory: operators whose content-addressed fingerprint matches a prior run replay the stored verdict instead of re-saturating (empty = no cache)")
	fs.BoolVar(&o.diff, "diff", false, "incrementally re-verify: positional args are the old and new G_s; only the edit's downstream cone is re-checked")
	return fs, o
}

// exitCode is the command's whole reading of a check's outcome.
var exitCode = map[core.Outcome]int{core.Refined: 0, core.Failed: 1, core.Fault: 2, core.Invalid: 2, core.Cancelled: 3}

func main() {
	fs, o := newFlagSet(os.Args[0])
	_ = fs.Parse(os.Args[1:]) // ExitOnError
	opts := o.checker
	if o.cache != "" || o.diff {
		// A diff without -cache keeps the old graph's verdicts in a
		// run-local in-memory cache (an empty Dir): it still shows the
		// delta but saves no wall clock.
		vc, err := entangle.OpenVerdictCache(entangle.VerdictCacheConfig{Dir: o.cache})
		if err != nil {
			fatal("opening cache: %v", err)
		}
		opts.Cache = vc
	}
	checker := entangle.NewChecker(opts)
	if o.diff {
		diffGraphs(checker, fs.Args(), o)
		return
	}
	if o.gs == "" || o.gd == "" || o.rel == "" {
		fmt.Fprintln(os.Stderr, "usage: entangle -gs <graph> -gd <graph> -rel <relation.json> [-format json|hlo] [-v]")
		os.Exit(2)
	}
	gs := mustGraph("G_s", o.gs, o.format)
	gd := mustGraph("G_d", o.gd, o.format)
	ri := mustRelation("relation", o.rel, gs, gd)

	ctx, stop := runContext(o.timeout)
	defer stop()
	if o.expect != "" {
		if err := checkExpectation(ctx, checker, gs, gd, ri, o.expect); err != nil {
			var ee *entangle.ExpectationError
			if errors.As(err, &ee) {
				fmt.Fprintf(os.Stderr, "EXPECTATION VIOLATED\n%v\n", ee)
				os.Exit(1)
			}
			exitUnlessRefined("expectation", ctx, core.Classify(ctx, nil, err), nil, err)
		}
		fmt.Println("user expectation verified")
		return
	}

	report, err := checker.CheckContext(ctx, gs, gd, ri)
	exitUnlessRefined("check", ctx, core.Classify(ctx, report, err), report, err)
	fmt.Printf("refinement verified: %q refines %q (%d operators checked in %s)\n",
		gd.Name, gs.Name, report.OpsProcessed, report.Duration.Round(1e6))
	fmt.Println("output relation R_o:")
	fmt.Print(report.OutputRelation.Render(gs))
	if o.verbose {
		fmt.Println("full relation (including intermediates):")
		fmt.Print(report.FullRelation.Render(gs))
	}
}

// runContext is the context every check of this process runs under:
// SIGINT, SIGTERM and -timeout all cancel it, and the checker observes
// cancellation between saturation iterations, so the process exits
// promptly whichever it was.
func runContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if timeout <= 0 {
		return ctx, stop
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	return ctx, func() { cancel(); stop() }
}

// exitUnlessRefined renders a run ("check", "diff", "expectation") that
// did not end Refined on stderr and exits with the outcome's status.
func exitUnlessRefined(what string, ctx context.Context, outcome core.Outcome, report *core.Report, err error) {
	switch outcome {
	case core.Refined:
		return
	case core.Cancelled:
		fmt.Fprintf(os.Stderr, "entangle: %s cancelled (%v): %v\n", what, ctx.Err(), err)
	case core.Failed:
		if report != nil {
			// -keep-going: the partial report lists every failing
			// operator (and its skipped cone) in topological order.
			fmt.Fprintf(os.Stderr, "REFINEMENT FAILED (%d operators, %d checked)\n%s",
				len(report.Failures), report.OpsProcessed, report.RenderFailures())
			fmt.Fprintf(os.Stderr, "first failure:\n%v\n", err)
			break
		}
		header := "REFINEMENT FAILED"
		var ie *entangle.InconclusiveError
		if errors.As(err, &ie) {
			header = "REFINEMENT INCONCLUSIVE"
		}
		fmt.Fprintf(os.Stderr, "%s\n%v\n", header, err)
	case core.Fault:
		fmt.Fprintf(os.Stderr, "ENGINE FAULT\n%v\n", err)
	default:
		fmt.Fprintf(os.Stderr, "entangle: %v\n", err)
	}
	os.Exit(exitCode[outcome])
}

// diffGraphs runs the -diff mode: check the old graph (replaying from
// a warm cache, or populating a fresh one), then incrementally
// re-verify the new graph and print the delta. Exit codes mirror the
// plain check: 0 when the new graph refines, 1 on a refinement
// failure, 2 on input errors, 3 when cancelled.
func diffGraphs(checker *entangle.Checker, paths []string, o *options) {
	if len(paths) != 2 || o.gd == "" || o.rel == "" {
		fmt.Fprintln(os.Stderr, "usage: entangle -diff -gd <graph> -rel <relation.json> [-cache DIR] <old-gs> <new-gs>")
		os.Exit(2)
	}
	oldGs := mustGraph("old G_s", paths[0], o.format)
	newGs := mustGraph("new G_s", paths[1], o.format)
	gd := mustGraph("G_d", o.gd, o.format)
	oldRi := mustRelation("relation against old G_s", o.rel, oldGs, gd)
	newRi := mustRelation("relation against new G_s", o.rel, newGs, gd)

	ctx, stop := runContext(o.timeout)
	defer stop()
	// Old-graph failures are delta context ("already failing before the
	// edit"), not fatal; only a pass that could not run ends the diff.
	_, err := checker.CheckBaseContext(ctx, oldGs, gd, oldRi)
	outcome := core.Classify(ctx, nil, err)
	if outcome != core.Refined && outcome != core.Cancelled {
		err = fmt.Errorf("checking old G_s: %v", err)
	}
	exitUnlessRefined("diff", ctx, outcome, nil, err)

	delta, err := checker.DiffCheckContext(ctx, oldGs, newGs, gd, oldRi, newRi)
	if delta == nil {
		exitUnlessRefined("diff", ctx, core.Classify(ctx, nil, err), nil, err)
	}
	fmt.Print(delta.Render())
	if o.verbose {
		fmt.Println("output relation R_o:")
		fmt.Print(delta.Report.OutputRelation.Render(newGs))
	}
	if outcome = core.Classify(ctx, delta.Report, err); outcome == core.Failed {
		// The delta above says which of these failures are new.
		fmt.Fprintf(os.Stderr, "REFINEMENT FAILED (%d operators, %d checked)\n%s",
			len(delta.Report.Failures), delta.Report.OpsProcessed, delta.Report.RenderFailures())
		os.Exit(exitCode[outcome])
	}
	exitUnlessRefined("diff", ctx, outcome, nil, err)
}

// mustGraph and mustRelation load an input file; failing that they exit
// 2 naming what the file was to be.
func mustGraph(what, path, format string) *entangle.Graph {
	g, err := loadGraph(path, format)
	if err != nil {
		fatal("loading %s: %v", what, err)
	}
	return g
}

func mustRelation(what, path string, gs, gd *entangle.Graph) *entangle.Relation {
	ri, err := loadRelation(path, gs, gd)
	if err != nil {
		fatal("loading %s: %v", what, err)
	}
	return ri
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
func checkExpectation(ctx context.Context, checker *entangle.Checker, gs, gd *entangle.Graph, ri *entangle.Relation, path string) error {
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
	return checker.CheckExpectationContext(ctx, gs, gd, ri, entangle.Expectation{Fs: fs, Fd: fd})
}

// fatal reports a usage or input error and exits 2.
func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "entangle: "+format+"\n", args...)
	os.Exit(2)
}
