package fuzz

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"entangle/internal/core"
	"entangle/internal/det"
	"entangle/internal/egraph"
	"entangle/internal/graph"
	"entangle/internal/numeric"
)

// ---------------------------------------------------------------------
// RNG and plan determinism

func TestRNGDeterminism(t *testing.T) {
	a, b := det.NewRNG(7), det.NewRNG(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
	if det.NewRNG(7).Uint64() == det.NewRNG(8).Uint64() {
		t.Fatal("different seeds produced the same first draw")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	det.NewRNG(1).Intn(0)
}

func TestParseFamilies(t *testing.T) {
	fs, err := ParseFamilies(nil)
	if err != nil || len(fs) != len(Families) {
		t.Fatalf("nil must mean all families: %v %v", fs, err)
	}
	fs, err = ParseFamilies([]string{"gpt", "chain"})
	if err != nil || len(fs) != 2 || fs[0] != FamilyGPT {
		t.Fatalf("parse: %v %v", fs, err)
	}
	if _, err := ParseFamilies([]string{"bert"}); err == nil {
		t.Fatal("unknown family accepted")
	}
}

// ---------------------------------------------------------------------
// Generator reproducibility (satellite: same seed ⇒ byte-identical
// graphs across runs and worker counts)

func TestSameSeedIsByteIdentical(t *testing.T) {
	master := det.NewRNG(99)
	corpus := sha256.New()
	for i := 0; i < 10; i++ {
		p := RandomPlan(master, Families, 4)
		a, err := Compose(p, nil)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		b, err := Compose(p, nil)
		if err != nil {
			t.Fatalf("%s: rebuild: %v", p, err)
		}
		da1, _ := Digest(a.Gs)
		db1, _ := Digest(b.Gs)
		da2, _ := Digest(a.Gd)
		db2, _ := Digest(b.Gd)
		if da1 != db1 || da2 != db2 {
			t.Fatalf("%s: rebuild not byte-identical (G_s %s vs %s, G_d %s vs %s)", p, da1, db1, da2, db2)
		}
		if !reflect.DeepEqual(a.Sites, b.Sites) {
			t.Fatalf("%s: site census diverged: %v vs %v", p, a.Sites, b.Sites)
		}
		fmt.Fprintf(corpus, "%s %s %s;", p, da1, da2)
	}
	// Committed corpus entries replay by seed: the stream is pinned to
	// what PR 11's generator drew.
	if got := fmt.Sprintf("%x", corpus.Sum(nil)); got != "8294069bf24373ff65d48261843457e3e3ec9a0efb5ca82aa314388a165d9a4d" {
		t.Errorf("seed 99 no longer composes the same corpus: digest %s", got)
	}

	// Seed 1's first 100 plans with every (class, site) rebuild reach
	// every weighted branch of the composer, the padded gather and the
	// reduce-scatter included: this digest pins the decision stream on
	// all of them.
	master = det.NewRNG(1)
	streams := sha256.New()
	pads, scatters := 0, 0
	for i := 0; i < 100; i++ {
		p := RandomPlan(master, Families, 4)
		cs, err := Compose(p, nil)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		builds := []*Case{cs}
		for _, cl := range Classes {
			for s := 0; s < cs.Sites[cl]; s++ {
				ics, err := Compose(p, &Defect{Class: cl, Site: s})
				if err != nil {
					t.Fatalf("%s: inject %s@%d: %v", p, cl, s, err)
				}
				builds = append(builds, ics)
			}
		}
		for _, b := range builds {
			dgd, _ := Digest(b.Gd)
			fmt.Fprintf(streams, "%s %v %s;", p, b.Defect, dgd)
			for _, n := range b.Gd.Nodes {
				switch {
				case strings.HasSuffix(n.Label, "/pad"):
					pads++
				case strings.HasSuffix(n.Label, "/reducescatter"):
					scatters++
				}
			}
		}
	}
	if pads == 0 || scatters == 0 {
		t.Errorf("seed 1 sample misses a weighted branch: %d pad, %d reducescatter nodes", pads, scatters)
	}
	if got := fmt.Sprintf("%x", streams.Sum(nil)); got != "65afea960e07e62a26def92454ec9b8ec606e3c454b1cca3006ac74ef8b43880" {
		t.Errorf("seed 1 no longer composes the same rebuilds: digest %s (%d pad, %d reducescatter nodes)", got, pads, scatters)
	}
}

func TestVerdictIndependentOfWorkers(t *testing.T) {
	master := det.NewRNG(4242)
	for i := 0; i < 6; i++ {
		p := RandomPlan(master, []Family{FamilyChain}, 4)
		cs1, err := Compose(p, nil)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		cs4, err := Compose(p, nil)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		r1, err := Evaluate(cs1, 1)
		if err != nil {
			t.Fatalf("%s: workers=1: %v", p, err)
		}
		r4, err := Evaluate(cs4, 4)
		if err != nil {
			t.Fatalf("%s: workers=4: %v", p, err)
		}
		if r1.Outcome != r4.Outcome || r1.GapKey != r4.GapKey {
			t.Fatalf("%s: outcome depends on workers: %s/%q vs %s/%q",
				p, r1.Outcome, r1.GapKey, r4.Outcome, r4.GapKey)
		}
		if r1.Report.RenderFailures() != r4.Report.RenderFailures() {
			t.Fatalf("%s: failure rendering depends on workers", p)
		}
	}
}

// ---------------------------------------------------------------------
// Injection machinery

// Every (class, site) pair counted by a correct build must fire when
// injected into a rebuild — the composer's determinism contract.
func TestEverySiteInCensusFires(t *testing.T) {
	master := det.NewRNG(77)
	for i := 0; i < 8; i++ {
		p := RandomPlan(master, []Family{FamilyChain}, 4)
		cs, err := Compose(p, nil)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		for _, cl := range Classes {
			for s := 0; s < cs.Sites[cl]; s++ {
				if _, err := Compose(p, &Defect{Class: cl, Site: s}); err != nil {
					t.Fatalf("%s: inject %s@%d: %v", p, cl, s, err)
				}
			}
		}
	}
}

// TestInjectionsReplayTheCorrectDecisions observes the determinism
// contract through the chooser: for every enumerated composition of a
// small plan, each injection of a class other than missing-register
// makes exactly the correct build's decisions — the same count, the
// same arities, the same picks.
func TestInjectionsReplayTheCorrectDecisions(t *testing.T) {
	p := enumPlan(blockFFN, 1)
	err := enumerate(p, func(cs *Case, ch *pathChooser) error {
		for _, cl := range Classes {
			if cl == DefectMissingRegister {
				continue // may change the layout after its site: sanctioned
			}
			for s := 0; s < cs.Sites[cl]; s++ {
				replay := &pathChooser{path: slices.Clone(ch.path)}
				if _, err := compose(p, &Defect{Class: cl, Site: s}, replay); err != nil {
					return err
				}
				if !slices.Equal(replay.path, ch.path) || !slices.Equal(replay.arities, ch.arities) {
					return fmt.Errorf("%s@%d diverges from %v (arities %v): picks %v, arities %v",
						cl, s, ch.path, ch.arities, replay.path, replay.arities)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", p, err)
	}
}

// The campaign is the main property test: correct compositions must
// never disagree with the numeric oracle, injected defects must be
// disproved or surface as lemma gaps, and nothing may be unsound.
func TestCampaignProperties(t *testing.T) {
	n := 25
	if testing.Short() {
		n = 6
	}
	stats, err := Run(Config{Seed: 1, N: n, Workers: 2, Shrink: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if stats.Unsound > 0 {
		t.Fatalf("unsound cases: %d (%v)", stats.Unsound, stats.Repros)
	}
	if stats.Correct != n {
		t.Fatalf("correct cases: %d, want %d", stats.Correct, n)
	}
	if stats.Injected == 0 || stats.Rediscovered == 0 {
		t.Fatalf("no injections exercised: %+v", stats)
	}
	// Every outcome must be accounted for.
	if stats.Agree+stats.Rediscovered+stats.LemmaGaps+stats.Masked+stats.Unsound != stats.Cases {
		t.Fatalf("outcome counts do not add up: %+v", stats)
	}
}

// ---------------------------------------------------------------------
// Enumeration

// enumPlan is a one-block chain at R 2 under an MSE head.
func enumPlan(block int, seed uint64) Plan {
	return Plan{Seed: seed, Family: FamilyChain, Degree: 2, Blocks: []int{block}, Head: headMSE}
}

// TestEnumerateWalksEveryChoiceSequence: Enumerate visits each choice
// sequence of a plan once, the sequence counts of two small plans are
// pinned, and each random composition of such a plan, over 20 seeds, is
// among the G_d its enumeration visits. The seed fixes block parameters
// (the FFN's activation), so plans are enumerated once per G_s.
func TestEnumerateWalksEveryChoiceSequence(t *testing.T) {
	for _, tc := range []struct{ block, sequences int }{{blockRMSNorm, 132}, {blockFFN, 3456}} {
		enumerated := map[string]map[string]bool{} // G_s digest → G_d digests
		for seed := uint64(1); seed <= 20; seed++ {
			p := enumPlan(tc.block, seed)
			cs, err := Compose(p, nil)
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			dgs, _ := Digest(cs.Gs)
			gds, ok := enumerated[dgs]
			if !ok {
				gds = map[string]bool{}
				seen := map[string]bool{}
				err := enumerate(p, func(e *Case, ch *pathChooser) error {
					key := fmt.Sprint(ch.path)
					if seen[key] || len(ch.path) != len(ch.arities) {
						return fmt.Errorf("choice sequence %v (arities %v) visited twice or cut short", ch.path, ch.arities)
					}
					seen[key] = true
					dgd, err := Digest(e.Gd)
					gds[dgd] = true
					return err
				})
				if err != nil {
					t.Fatalf("%s: %v", p, err)
				}
				if len(seen) != tc.sequences {
					t.Errorf("%s: %d choice sequences, want %d", p, len(seen), tc.sequences)
				}
				enumerated[dgs] = gds
			}
			if dgd, _ := Digest(cs.Gd); !gds[dgd] {
				t.Errorf("%s: random composition is not among the %d enumerated G_d", p, len(gds))
			}
		}
	}
	// An error from visit stops the walk: it is how a caller caps it.
	stop := errors.New("cap")
	visits := 0
	err := Enumerate(enumPlan(blockFFN, 1), func(*Case) error {
		if visits++; visits == 10 {
			return stop
		}
		return nil
	})
	if err != stop || visits != 10 {
		t.Fatalf("capped walk: %v after %d visits, want %v after 10", err, visits, stop)
	}
}

// ---------------------------------------------------------------------
// Rediscovery of the paper's bug classes

// TestStarvedRefinementsAreNumericallyRight checks what the checker
// asserts when a node budget cuts saturation short: an operator that
// still comes back refined must rest only on true equalities. The first
// 40 plans seed 7 draws are composed correctly and checked with every
// operator held to {MaxIters 24, MaxNodes n}, and its one escalation to
// ×4 of that, and every FullRelation mapping of every refined
// operator's outputs is evaluated against G_s's own value.
func TestStarvedRefinementsAreNumericallyRight(t *testing.T) {
	master := det.NewRNG(7)
	var cases []*Case
	for i := 0; i < 40; i++ {
		cs, err := Compose(RandomPlan(master, Families, 4), nil)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, cs)
	}
	for _, maxNodes := range []int{16, 32, 64} {
		budget := egraph.SaturateOpts{MaxIters: 24, MaxNodes: maxNodes}
		checker := core.NewChecker(core.Options{KeepGoing: true, Workers: 1,
			PreOp: func(*graph.Node) *egraph.SaturateOpts { return &budget }})
		wrong := 0
		for _, cs := range cases {
			report, _ := checker.Check(cs.Gs, cs.Gd, cs.Env.Ri)
			if report == nil {
				t.Fatalf("%s: no report", cs.Plan)
			}
			gsVals, gdVals, err := evalBoth(cs)
			if err != nil {
				t.Fatal(err)
			}
			lookup := mappingLookup(gdVals)
			for _, v := range report.Verdicts {
				if v.Kind != core.VerdictRefined {
					continue
				}
				for _, out := range v.Op.Outputs {
					for _, m := range report.FullRelation.Get(out) {
						got, err := numeric.EvalTerm(m, nil, lookup)
						if err == nil && numeric.AllClose(gsVals[out], got, numTol) {
							continue
						}
						if wrong++; wrong <= 3 {
							t.Errorf("MaxNodes %d, %s: refined %s maps %s = %s, which is numerically wrong (%v)",
								maxNodes, cs.Plan, v.Op.Label, cs.Gs.Tensors[out].Name, m, err)
						}
					}
				}
			}
		}
		if wrong > 0 {
			t.Errorf("MaxNodes %d: %d numerically wrong mappings of refined operators", maxNodes, wrong)
		}
	}
}

func TestAllNineClassesRediscovered(t *testing.T) {
	for _, cl := range Classes {
		res, err := Rediscover(cl, 42, 2, 200)
		if err != nil {
			t.Errorf("%s: %v", cl, err)
			continue
		}
		if res.Outcome != OutcomeRediscovered {
			t.Errorf("%s: outcome %s, want %s", cl, res.Outcome, OutcomeRediscovered)
		}
		if res.Case.Defect == nil || res.Case.Defect.Class != cl {
			t.Errorf("%s: witness carries wrong defect %v", cl, res.Case.Defect)
		}
		if ops := res.Case.Gs.OperatorCount(); ops > 6 {
			t.Errorf("%s: shrunk witness still has %d operators", cl, ops)
		}
	}
}

// ---------------------------------------------------------------------
// Shrinker

func TestShrinkerMinimizes(t *testing.T) {
	// A deep chain with a defect: the shrinker must strip unrelated
	// blocks while preserving the disproof.
	p := Plan{Seed: 5, Family: FamilyChain, Degree: 2,
		Blocks: []int{blockFFN, blockUnary, blockRMSNorm, blockSoftmax}, Head: headMSE}
	cs, err := Compose(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	var d *Defect
	for _, cl := range Classes {
		if cs.Sites[cl] > 0 && !cl.NumericBenign() {
			d = &Defect{Class: cl, Site: 0}
			break
		}
	}
	if d == nil {
		t.Skip("no injectable site in this plan")
	}
	orig, err := Compose(p, d)
	if err != nil {
		t.Fatal(err)
	}
	origRes, err := Evaluate(orig, 2)
	if err != nil {
		t.Fatal(err)
	}
	if origRes.Outcome == OutcomeAgree {
		t.Fatalf("injected case evaluated as agree")
	}
	small, res, err := Shrink(p, d, 2, func(r *Result) bool { return r.Outcome == origRes.Outcome })
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != origRes.Outcome {
		t.Fatalf("shrunk outcome %s, want %s", res.Outcome, origRes.Outcome)
	}
	if len(small.Blocks) >= len(p.Blocks) && small.Head == p.Head {
		t.Fatalf("shrinker removed nothing: %s -> %s", p, small)
	}
}

// ---------------------------------------------------------------------
// Corpus

func TestCorpusRoundTrip(t *testing.T) {
	res, err := Rediscover(DefectGatherOrder, 7, 2, 100)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := NewCorpusCase("roundtrip", res, "test")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := SaveCorpus(dir, []CorpusCase{cc}); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != 1 || !reflect.DeepEqual(loaded[0], cc) {
		t.Fatalf("round trip mismatch: %+v vs %+v", loaded, cc)
	}
	if _, err := Replay(loaded[0], 2); err != nil {
		t.Fatal(err)
	}
}

// The committed corpus holds a minimized Disproved witness for every
// paper bug class, plus the campaign cases that witness lemma rules the
// model zoo never fires (bench's TestGoldenZoo counts them); replay
// re-derives the graphs byte-for-byte and re-checks the verdicts.
func TestCommittedCorpusReplays(t *testing.T) {
	cases, err := LoadCorpus(filepath.Join("testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[DefectClass]bool{}
	for _, c := range cases {
		improved, err := Replay(c, 2)
		if err != nil {
			t.Errorf("%s: %v", c.Name, err)
			continue
		}
		if improved {
			t.Logf("%s: corpus expectation improved (gap closed)", c.Name)
		}
		if c.Defect != nil {
			seen[c.Defect.Class] = true
		}
	}
	for _, cl := range Classes {
		if !seen[cl] {
			t.Errorf("no corpus witness for class %s", cl)
		}
	}
}

func TestLoadCorpusRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCorpus(dir); err == nil {
		t.Fatal("malformed corpus file accepted")
	}
}

// TestComposedGraphsValidate: the composer's graphs, correct and with
// each defect class injected, pass the full Validate after Build — the
// builder's by-construction validity, on the repository's most varied
// builder user.
func TestComposedGraphsValidate(t *testing.T) {
	master := det.NewRNG(31)
	for i := 0; i < 12; i++ {
		p := RandomPlan(master, Families, 4)
		cs, err := Compose(p, nil)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		cases := []*Case{cs}
		for _, cl := range Classes {
			if cs.Sites[cl] > 0 {
				injected, err := Compose(p, &Defect{Class: cl, Site: 0})
				if err != nil {
					t.Fatalf("%s with %s: %v", p, cl, err)
				}
				cases = append(cases, injected)
			}
		}
		for _, c := range cases {
			for _, g := range []*graph.Graph{c.Gs, c.Gd} {
				if err := g.Validate(); err != nil {
					t.Errorf("%s (defect %v): %v", p, c.Defect, err)
				}
			}
		}
	}
}
