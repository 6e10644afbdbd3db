package core

import (
	"runtime"
	"testing"

	"entangle/internal/models"
)

// TestFrontierMatchesWholeGraphOnAllModels checks the paper's claim
// that the §4.3.1 optimization affects performance only: every
// evaluation model must verify identically with and without it, and
// the output relations must contain the same simplest mappings.
func TestFrontierMatchesWholeGraphOnAllModels(t *testing.T) {
	builds := map[string]func() (*models.Built, error){
		"gpt":        func() (*models.Built, error) { return models.GPT(models.Options{TP: 2, SP: true}) },
		"llama":      func() (*models.Built, error) { return models.Llama(models.Options{TP: 2}) },
		"qwen2":      func() (*models.Built, error) { return models.Qwen2(models.Options{TP: 2}) },
		"seedmoe":    func() (*models.Built, error) { return models.SeedMoE(models.Options{TP: 2}) },
		"regression": func() (*models.Built, error) { return models.Regression(models.Options{GradAccum: 2}) },
	}
	for name, build := range builds {
		name, build := name, build
		t.Run(name, func(t *testing.T) {
			b, err := build()
			if err != nil {
				t.Fatal(err)
			}
			fast, err := NewChecker(Options{}).Check(b.Gs, b.Gd, b.Ri)
			if err != nil {
				t.Fatalf("frontier: %v", err)
			}
			slow, err := NewChecker(Options{DisableFrontier: true}).Check(b.Gs, b.Gd, b.Ri)
			if err != nil {
				t.Fatalf("whole-graph: %v", err)
			}
			for _, o := range b.Gs.Outputs {
				fm := fast.OutputRelation.Get(o)
				sm := slow.OutputRelation.Get(o)
				if len(fm) == 0 || len(sm) == 0 {
					t.Fatalf("output %d unmapped (%d vs %d)", o, len(fm), len(sm))
				}
				if fm[0].Key() != sm[0].Key() {
					t.Fatalf("simplest mappings differ:\n  frontier: %s\n  whole:    %s", fm[0], sm[0])
				}
			}
		})
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Registry == nil || o.BudgetEscalations != 1 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	if o.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers default %d, want GOMAXPROCS %d", o.Workers, runtime.GOMAXPROCS(0))
	}
	// Explicit values survive.
	if o2 := (Options{Workers: 1}).withDefaults(); o2.Workers != 1 {
		t.Fatal("explicit Workers overridden")
	}
	// Negative worker counts clamp to sequential.
	if o3 := (Options{Workers: -4}).withDefaults(); o3.Workers != 1 {
		t.Fatalf("negative Workers must clamp to 1, got %d", o3.Workers)
	}
}

func TestReportFields(t *testing.T) {
	b, err := models.Regression(models.Options{GradAccum: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewChecker(Options{}).Check(b.Gs, b.Gd, b.Ri)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OpsProcessed != b.Gs.OperatorCount() {
		t.Fatalf("ops processed %d want %d", rep.OpsProcessed, b.Gs.OperatorCount())
	}
	if rep.Duration <= 0 {
		t.Fatal("duration not recorded")
	}
	if len(rep.Stats.Applications) == 0 {
		t.Fatal("no lemma applications recorded")
	}
	if rep.FullRelation.Len() < rep.OutputRelation.Len() {
		t.Fatal("full relation smaller than output relation")
	}
}
