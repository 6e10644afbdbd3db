package bench

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"entangle/internal/core"
	"entangle/internal/egraph"
	"entangle/internal/fuzz"
	"entangle/internal/graph"
	"entangle/internal/lemmas"
	"entangle/internal/relation"
)

// update rewrites testdata/golden_zoo.txt. Regenerate it only for a
// change that is meant to alter which lemmas fire, how often they are
// matched, or what R_o reads.
var update = flag.Bool("update", false, "rewrite golden files")

const goldenZoo = "testdata/golden_zoo.txt"

// runZooCase renders one case's per-rule applications, saturation
// counters and R_o (or failure text), and adds the applications to
// fired.
func runZooCase(t *testing.T, c ZooCase, fired map[string]int) string {
	t.Helper()
	b, gs, gd, ri, err := c.Graphs()
	if err != nil {
		t.Fatal(err)
	}
	checker := core.NewChecker(core.Options{Registry: lemmas.Default()})
	var out strings.Builder
	if c.Expectation {
		err = checker.CheckExpectation(gs, gd, ri, core.Expectation{Fs: b.ExpectFs, Fd: b.ExpectFd})
		var ee *core.ExpectationError
		fmt.Fprintf(&out, "expectation violated: %t\n", errors.As(err, &ee))
		if err != nil {
			fmt.Fprintf(&out, "error: %v\n", err)
		}
		return out.String()
	}
	rep, err := checker.Check(gs, gd, ri)
	if err != nil {
		// The failure text as Table 3 reads it, then the same check in
		// KeepGoing mode, which hands back the lemma traffic of every
		// operator outside the failure's downstream cone.
		fmt.Fprintf(&out, "error: %v\n", err)
		rep, _ = core.NewChecker(core.Options{Registry: lemmas.Default(), KeepGoing: true}).Check(gs, gd, ri)
		if rep == nil {
			t.Fatalf("%s: KeepGoing returned no report", c.Name)
		}
		out.WriteString("failures:\n" + rep.RenderFailures())
	}
	s := rep.Stats
	fmt.Fprintf(&out, "iterations=%d matches=%d nodes=%d\n", s.Iterations, s.Matches, s.Nodes)
	names := make([]string, 0, len(s.Applications))
	for name, n := range s.Applications {
		fired[name] += n
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&out, "  %s=%d\n", name, s.Applications[name])
	}
	if rep.OutputRelation != nil {
		out.WriteString("output relation:\n" + rep.OutputRelation.Render(gs))
	}
	fmt.Fprintf(&out, "full relation sha256: %x\n", sha256.Sum256([]byte(rep.FullRelation.Render(gs))))
	return out.String()
}

// TestGoldenZoo pins, for every model the repository can build, the
// per-rule Stats.Applications (Figure 6's input), the saturation
// counters, the rendered R_o and the failure text of every bug case.
// Its last section lists the rules that fire nowhere in the zoo or the
// committed fuzz corpus, and the test fails unless that list is empty:
// every registered rule has a witness in the repository that fires it.
func TestGoldenZoo(t *testing.T) {
	fired := map[string]int{}
	var names []string
	sections := map[string]string{}
	for _, c := range Zoo() {
		names = append(names, c.Name)
		sections[c.Name] = runZooCase(t, c, fired)
	}
	corpusApplications(t, fired)
	var idle strings.Builder
	var idleRules []string
	for _, r := range lemmas.Default().Rules() {
		if fired[r.Name] == 0 {
			idle.WriteString("  " + r.Name + "\n")
			idleRules = append(idleRules, r.Name)
		}
	}
	if len(idleRules) > 0 {
		t.Errorf("rules with no witness in the zoo or the fuzz corpus: %s (promote a case that fires each, or delete the rule)",
			strings.Join(idleRules, ", "))
	}
	const idleName = "rules that fire nowhere in the zoo or the fuzz corpus"
	names = append(names, idleName)
	sections[idleName] = idle.String()

	if *update {
		var b strings.Builder
		b.WriteString("Recorded by `go test ./internal/bench -run TestGoldenZoo -update`.\n")
		for _, n := range names {
			b.WriteString("\n== " + n + " ==\n" + sections[n])
		}
		if err := os.WriteFile(goldenZoo, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenZoo)
	if err != nil {
		t.Fatal(err)
	}
	recorded := map[string]string{}
	for _, chunk := range strings.Split(string(data), "\n== ")[1:] {
		head, body, _ := strings.Cut(chunk, " ==\n")
		recorded[head] = body
	}
	if len(recorded) != len(names) {
		t.Errorf("%s holds %d sections, the zoo has %d", goldenZoo, len(recorded), len(names))
	}
	for _, n := range names {
		if want, ok := recorded[n]; !ok {
			t.Errorf("section %s not in %s", n, goldenZoo)
		} else if sections[n] != want {
			t.Errorf("section %s differs\n--- want ---\n%s--- got ---\n%s", n, want, sections[n])
		}
	}
}

// corpusApplications adds the lemma traffic of every committed fuzz
// corpus case to fired. The check runs in KeepGoing mode, so a case
// that rediscovers a bug still counts what its other operators fire.
func corpusApplications(t *testing.T, fired map[string]int) {
	t.Helper()
	for _, cs := range corpusCases(t) {
		rep, _ := core.NewChecker(core.Options{Registry: lemmas.Default(), KeepGoing: true}).Check(cs.Gs, cs.Gd, cs.Env.Ri)
		if rep == nil {
			t.Fatalf("%s: KeepGoing returned no report", cs.Plan)
		}
		for name, n := range rep.Stats.Applications {
			fired[name] += n
		}
	}
}

// corpusCases composes every committed fuzz corpus case.
func corpusCases(t *testing.T) []*fuzz.Case {
	t.Helper()
	cases, err := fuzz.LoadCorpus("../fuzz/testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*fuzz.Case, len(cases))
	for i, c := range cases {
		if out[i], err = fuzz.Compose(c.Plan, c.Defect); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
	}
	return out
}

// checkCase is one check of the zoo, the corpus or a campaign, built
// once and re-checked under each ablation or transform.
type checkCase struct {
	name   string
	gs, gd *graph.Graph
	ri     *relation.Relation
	expect *core.Expectation // nil for a refinement check
}

// zooAndCorpus is the zoo and the committed fuzz corpus as checks.
func zooAndCorpus(t *testing.T) []checkCase {
	t.Helper()
	var cases []checkCase
	for _, c := range Zoo() {
		b, gs, gd, ri, err := c.Graphs()
		if err != nil {
			t.Fatal(err)
		}
		cc := checkCase{name: c.Name, gs: gs, gd: gd, ri: ri}
		if c.Expectation {
			cc.expect = &core.Expectation{Fs: b.ExpectFs, Fd: b.ExpectFd}
		}
		cases = append(cases, cc)
	}
	return append(cases, fuzzChecks(corpusCases(t))...)
}

// fuzzChecks is composed fuzz cases as checks.
func fuzzChecks(cases []*fuzz.Case) []checkCase {
	out := make([]checkCase, len(cases))
	for i, cs := range cases {
		out[i] = checkCase{name: fmt.Sprintf("%s %v", cs.Plan, cs.Defect), gs: cs.Gs, gd: cs.Gd, ri: cs.Env.Ri}
	}
	return out
}

// outcome renders what a check of c under reg decides: the verdict and
// failure text of every operator, R_o and the full relation — not the
// saturation counters, which any rule set moves.
func (c checkCase) outcome(reg *lemmas.Registry) string {
	if c.expect != nil {
		return fmt.Sprint(core.NewChecker(core.Options{Registry: reg}).CheckExpectation(c.gs, c.gd, c.ri, *c.expect))
	}
	rep, err := core.NewChecker(core.Options{Registry: reg, KeepGoing: true}).Check(c.gs, c.gd, c.ri)
	if rep == nil {
		return fmt.Sprint(err)
	}
	out := fmt.Sprintf("%v\n%s", err, rep.RenderFailures())
	if rep.OutputRelation != nil {
		out += rep.OutputRelation.Render(c.gs)
	}
	return out + rep.FullRelation.Render(c.gs)
}

// registryWithout re-registers lib's lemmas with the named rule left
// out, and a lemma left with no rule dropped whole.
func registryWithout(lib *lemmas.Registry, rule string) *lemmas.Registry {
	r := lemmas.NewRegistry()
	for _, l := range lib.All() {
		rules := slices.DeleteFunc(slices.Clone(l.Rules), func(x *egraph.Rule) bool { return x.Name == rule })
		if len(rules) > 0 {
			r.MustRegister(&lemmas.Lemma{Name: l.Name, Kind: l.Kind, Complexity: l.Complexity, LOC: l.LOC, Rules: rules})
		}
	}
	return r
}

// TestEveryRuleIsNeeded is the lemma library's ratchet, stricter than
// TestGoldenZoo's "fires somewhere": for every registered rule the zoo
// and the committed fuzz corpus are checked again with a registry that
// lacks it, and some check's verdict, failure text, output relation or
// full relation must move. A rule whose removal moves none of them has
// no committed witness that needs it: promote a case that does, or
// delete the rule.
func TestEveryRuleIsNeeded(t *testing.T) {
	cases := zooAndCorpus(t)
	lib := lemmas.Default()
	want := make([]string, len(cases))
	for i, c := range cases {
		want[i] = c.outcome(lib)
	}
	var unneeded []string
	for _, r := range lib.Rules() {
		reg := registryWithout(lib, r.Name)
		moved := false
		for i := 0; i < len(cases) && !moved; i++ {
			moved = cases[i].outcome(reg) != want[i]
		}
		if !moved {
			unneeded = append(unneeded, r.Name)
		}
	}
	if len(unneeded) > 0 {
		t.Errorf("rules whose removal moves no verdict, failure text or relation in the zoo or the fuzz corpus: %s (promote a case that needs each, or delete the rule)",
			strings.Join(unneeded, ", "))
	}
}
