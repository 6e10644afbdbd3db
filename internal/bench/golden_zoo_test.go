package bench

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"entangle/internal/core"
	"entangle/internal/fuzz"
	"entangle/internal/lemmas"
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
	cases, err := fuzz.LoadCorpus("../fuzz/testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		cs, err := fuzz.Compose(c.Plan, c.Defect)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		rep, _ := core.NewChecker(core.Options{Registry: lemmas.Default(), KeepGoing: true}).Check(cs.Gs, cs.Gd, cs.Env.Ri)
		if rep == nil {
			t.Fatalf("%s: KeepGoing returned no report", c.Name)
		}
		for name, n := range rep.Stats.Applications {
			fired[name] += n
		}
	}
}
