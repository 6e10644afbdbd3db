package bench

import (
	"fmt"
	"strings"
	"testing"

	"entangle/internal/graph"
	"entangle/internal/models"
)

func TestFig3(t *testing.T) {
	txt, results, err := Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("want 6 workloads, got %d", len(results))
	}
	for _, want := range []string{"GPT", "Qwen2", "Llama-3", "ByteDance-Fwd", "ByteDance-Bwd", "Regression"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("figure 3 output missing %q:\n%s", want, txt)
		}
	}
	t.Log("\n" + txt)
}

func TestTable3AllBugsDetected(t *testing.T) {
	txt, outcomes, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 9 {
		t.Fatalf("want 9 bugs, got %d", len(outcomes))
	}
	for _, o := range outcomes {
		if !o.Detected {
			t.Errorf("bug %d (%s) not detected", o.Case.ID, o.Case.Description)
		}
	}
	t.Log("\n" + txt)
}

func TestFig5(t *testing.T) {
	txt, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt, "Figure 5a") || !strings.Contains(txt, "Figure 5b") {
		t.Fatalf("incomplete fig5 output:\n%s", txt)
	}
	t.Log("\n" + txt)
}

func TestFig6(t *testing.T) {
	txt, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"GPT(2)", "GPT(8)", "Qwen2(4)", "Llama-3(4)", "kind"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("figure 6 output missing %q", want)
		}
	}
	t.Log("\n" + txt)
}

func TestAblation(t *testing.T) {
	txt, err := Ablation()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + txt)
}

func TestExtensionsHarness(t *testing.T) {
	txt, err := Extensions()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"DataParallel(2)", "Pipeline(4)", "ContextParallel(2)", "VIOLATED"} {
		if !strings.Contains(txt, want) {
			t.Fatalf("extensions output missing %q:\n%s", want, txt)
		}
	}
	t.Log("\n" + txt)
}

// TestFig4Harness sweeps Figure 4: 35 cells, GPT's four degrees and
// Llama-3's three at five depths. Under the race detector (the audited
// race stage of scripts/verify.sh) it sweeps the paper's 1–3 layers,
// 21 cells: the 6- and 12-layer cells take minutes there.
func TestFig4Harness(t *testing.T) {
	if testing.Short() {
		t.Skip("fig4 sweep is the long harness run")
	}
	layers, want := fig4Layers, 35
	if raceEnabled {
		layers, want = fig4Layers[:3], 21
	}
	txt, results, err := fig4(layers)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != want {
		t.Fatalf("want %d sweep cells, got %d", want, len(results))
	}
	if !strings.Contains(txt, "no degree-6 column") {
		t.Fatal("missing the Llama degree-6 note")
	}
	t.Log("\n" + txt)
}

func TestRunBugBuildErrorSurfaces(t *testing.T) {
	bad := BugCase{ID: 99, Build: func() (*models.Built, error) {
		return nil, errTest
	}}
	if o := RunBug(bad); o.Err == nil || o.Detected {
		t.Fatalf("build error must surface: %+v", o)
	}
}

var errTest = fmt.Errorf("synthetic build failure")

// TestZooGraphsValidate: every graph of the zoo — builder graphs,
// autodiff's backward graphs, graphs re-read from HLO text — passes the
// full Validate: shapes re-inferred, producer links, acyclicity. It is
// what lets Builder.Build skip that work.
func TestZooGraphsValidate(t *testing.T) {
	for _, c := range Zoo() {
		_, gs, gd, _, err := c.Graphs()
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range []*graph.Graph{gs, gd} {
			if err := g.Validate(); err != nil {
				t.Errorf("%s: %v", c.Name, err)
			}
		}
	}
}
