// Command entangle-lint is the static analyzer for the verifier
// itself: it lints the built-in lemma library, captured computation
// graphs, and the engine's Go source for nondeterminism hazards.
//
//	entangle-lint                         # lint the built-in lemma registry
//	entangle-lint internal/egraph         # + source lint of one package dir
//	entangle-lint model-dist.json         # + graph IR lint of a captured graph
//	entangle-lint -json internal/core g.json g.hlo
//
// Positional arguments are classified by shape: *.json and *.hlo files
// get the graph IR checks (read as the JSON interchange format or the
// HLO text IR), directories get the Go source checks. The lemma
// registry checks run unless -registry=false. Findings print one per
// line (or as one JSON object with -json).
//
// Exit status: 0 when no error-severity findings, 1 when at least one
// error-severity finding, 2 on usage or I/O errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"entangle/internal/graph"
	"entangle/internal/hlo"
	"entangle/internal/lemmas"
	"entangle/internal/lint"
)

func main() {
	var (
		jsonOut  = flag.Bool("json", false, "emit findings as JSON")
		registry = flag.Bool("registry", true, "lint the built-in lemma registry")
		minSev   = flag.String("severity", "warning", "lowest severity to report: info, warning or error")
	)
	flag.Parse()

	floor, err := parseSeverity(*minSev)
	if err != nil {
		fatal("%v", err)
	}

	var report lint.Report
	if *registry {
		report.Add(lint.Lemmas(lemmas.Default().All())...)
	}
	var srcDirs []string
	for _, arg := range flag.Args() {
		switch {
		case strings.HasSuffix(arg, ".json"), strings.HasSuffix(arg, ".hlo"):
			g, err := readGraph(arg)
			if err != nil {
				fatal("%s: %v", arg, err)
			}
			for _, d := range lint.Graph(g) {
				d.Subject = arg + ": " + d.Subject
				report.Add(d)
			}
		default:
			info, err := os.Stat(arg)
			if err != nil {
				fatal("%v", err)
			}
			if !info.IsDir() {
				fatal("%s: not a directory, .json or .hlo graph", arg)
			}
			srcDirs = append(srcDirs, arg)
		}
	}
	if len(srcDirs) > 0 {
		ds, err := lint.Source(srcDirs...)
		if err != nil {
			fatal("%v", err)
		}
		report.Add(ds...)
	}

	filtered := lint.Report{}
	for _, d := range report.Diags {
		if d.Severity >= floor {
			filtered.Add(d)
		}
	}

	if *jsonOut {
		if err := filtered.WriteJSON(os.Stdout); err != nil {
			fatal("%v", err)
		}
	} else if err := filtered.WriteText(os.Stdout); err != nil {
		fatal("%v", err)
	}
	if report.Errors() > 0 {
		os.Exit(1)
	}
}

func readGraph(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".hlo") {
		return hlo.Parse(f)
	}
	return graph.Read(f)
}

func parseSeverity(s string) (lint.Severity, error) {
	switch s {
	case "info":
		return lint.SevInfo, nil
	case "warning":
		return lint.SevWarning, nil
	case "error":
		return lint.SevError, nil
	}
	return 0, fmt.Errorf("unknown severity %q (want info, warning or error)", s)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "entangle-lint: "+format+"\n", args...)
	os.Exit(2)
}
