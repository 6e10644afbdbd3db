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
	"entangle/internal/lemmas"
)

// update rewrites testdata/golden_zoo.txt. The file was recorded at the
// commit preceding the lemma-schema refactor; regenerate it only for a
// change that is meant to alter which lemmas fire or what R_o reads.
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
// counters, the rendered R_o and the failure text of every bug case
// against bytes recorded before the lemma library became schema rows.
// Its last section lists the rules no model fires, so which lemmas the
// zoo exercises is recorded rather than guessed.
func TestGoldenZoo(t *testing.T) {
	fired := map[string]int{}
	var names []string
	sections := map[string]string{}
	for _, c := range Zoo() {
		names = append(names, c.Name)
		sections[c.Name] = runZooCase(t, c, fired)
	}
	var idle strings.Builder
	for _, r := range lemmas.Default().Rules() {
		if fired[r.Name] == 0 {
			idle.WriteString("  " + r.Name + "\n")
		}
	}
	const idleName = "rules that fire nowhere in the zoo"
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
