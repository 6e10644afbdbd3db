package core

import (
	"strings"
	"testing"

	"entangle/internal/fingerprint"
	"entangle/internal/graph"
	"entangle/internal/relation"
	"entangle/internal/vcache"
)

// opKeys is the verdict-cache key of every G_s operator, in topological
// order, as a checker with opts (a cache set) derives and probes them.
func opKeys(t testing.TB, opts Options, gs, gd *graph.Graph, ri *relation.Relation) []fingerprint.Hash {
	t.Helper()
	order, err := gs.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	gdOrder, err := gd.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	opts = opts.withDefaults()
	return newKeyDerivation(fingerprint.IndexGd(gd, gdOrder), &opts).side(gs, ri, order).keys
}

// RaceEnabled reports, to the external tests, that the race detector is
// compiled in.
const RaceEnabled = raceEnabled

// WithoutReuse is opts with the in-run reuse table off (Options.noReuse),
// for the external tests.
func WithoutReuse(opts Options) Options {
	opts.noReuse = true
	return opts
}

// The ladder's rungs (spellings.go), as WithRungLog reports them.
const (
	RungNewest = int(rungNewest)
	RungAll    = int(rungAll)
	RungWhole  = int(rungWhole)
)

// WithRungLog is opts with log told the rung of every search a check
// starts (Options.rungHook), for the external tests.
func WithRungLog(opts Options, log func(v *graph.Node, rung int)) Options {
	opts.rungHook = func(v *graph.Node, rg rung) { log(v, int(rg)) }
	return opts
}

// RenderReport renders every field of a check's outcome that neither the
// Workers value nor the reuse table may move: goldenReport's text
// without its live: line, with the full relation written out.
func RenderReport(rep *Report, err error, gs *graph.Graph) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(goldenReport(rep, err, gs, vcache.StatsSnapshot{}), "\n") {
		if !strings.HasPrefix(line, "live:") {
			b.WriteString(line)
		}
	}
	if rep != nil {
		b.WriteString("full relation:\n" + rep.FullRelation.Render(gs))
	}
	if err != nil {
		b.WriteString("error: " + err.Error() + "\n")
	}
	return b.String()
}

// LiveStats renders a report's LiveStats in the golden file's layout.
func LiveStats(rep *Report) string { return goldenStats(rep.LiveStats) }
