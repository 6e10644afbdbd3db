package bench

import (
	"errors"
	"fmt"
	"strings"

	"entangle/internal/core"
	"entangle/internal/models"
)

// BugCase is one Table 3 entry.
type BugCase struct {
	ID          int
	Framework   string
	Description string
	// Expectation marks the §4.4 cases (bugs 5, 8, 9).
	Expectation bool
	Build       func() (*models.Built, error)
}

// BugCases returns the nine reproduced bugs of §6.2 / Table 3.
func BugCases() []BugCase {
	return []BugCase{
		{ID: 1, Framework: "ByteDance", Description: "Incorrect offset in RoPE with SP",
			Build: func() (*models.Built, error) {
				return models.SeedMoE(models.Options{TP: 2, Bug: models.Bug1RoPEOffset})
			}},
		{ID: 2, Framework: "ByteDance", Description: "Incorrect scaling for auxiliary loss with TP",
			Build: func() (*models.Built, error) {
				return models.SeedMoE(models.Options{TP: 2, Bug: models.Bug2AuxLossScale})
			}},
		{ID: 3, Framework: "ByteDance", Description: "Mismatched padding and slicing in data processing",
			Build: func() (*models.Built, error) {
				return models.SeedMoE(models.Options{TP: 2, Bug: models.Bug3PadSlice})
			}},
		{ID: 4, Framework: "ByteDance", Description: "Incompatible configurations for model components",
			Build: func() (*models.Built, error) {
				return models.SeedMoE(models.Options{TP: 2, Bug: models.Bug4ShardedExperts})
			}},
		{ID: 5, Framework: "ByteDance", Description: "Missing aggregation for a layernorm weight",
			Expectation: true,
			Build: func() (*models.Built, error) {
				return models.GradSync(models.ModuleLayerNorm, 2, false)
			}},
		{ID: 6, Framework: "HF transformers", Description: "Wrong scaling in gradient accumulation",
			Build: func() (*models.Built, error) {
				return models.Regression(models.Options{GradAccum: 2, Bug: models.Bug6GradAccumScale})
			}},
		{ID: 7, Framework: "Megatron-LM", Description: "Missing all-reduce in parallel linear layer",
			Build: func() (*models.Built, error) {
				return models.GPT(models.Options{TP: 2, Bug: models.Bug7MissingAllReduce})
			}},
		{ID: 8, Framework: "Megatron-LM", Description: "Missing all-reduce in optimizer for MoE router (TP+SP)",
			Expectation: true,
			Build: func() (*models.Built, error) {
				return models.GradSync(models.ModuleMoERouter, 2, false)
			}},
		{ID: 9, Framework: "TransformerEngine", Description: "Missing all-reduce in optimizer for layernorm (SP)",
			Expectation: true,
			Build: func() (*models.Built, error) {
				return models.GradSync(models.ModuleTELayerNorm, 2, false)
			}},
	}
}

// Case is the bug as a zoo case, named bug<ID>.
func (c BugCase) Case() ZooCase {
	return ZooCase{Name: fmt.Sprintf("bug%d", c.ID), Build: c.Build, Expectation: c.Expectation}
}

// BugOutcome records one bug run.
type BugOutcome struct {
	Case      BugCase
	Detected  bool
	Localized string // the operator label ENTANGLE reported
	Err       error
}

// RunBug checks one bug case: refinement for ordinary bugs,
// refinement + expectation for the §4.4 cases.
func RunBug(c BugCase) BugOutcome {
	out := BugOutcome{Case: c}
	_, err := run(c.Case(), core.Options{}, 1)
	var ee *core.ExpectationError
	switch op := core.FailingOp(err); {
	case c.Expectation && errors.As(err, &ee):
		out.Detected, out.Localized = true, "user expectation on "+ee.Expect.Fs.String()
	case !c.Expectation && op != nil:
		out.Detected, out.Localized = true, op.Label
	default:
		out.Err = err
	}
	return out
}

// Table3 runs the full bug suite and renders the summary table.
func Table3() (string, []BugOutcome, error) {
	var out strings.Builder
	fmt.Fprintln(&out, "Table 3: reproduced bugs (detection + localization)")
	fmt.Fprintf(&out, "%-3s %-18s %-55s %-9s %s\n", "id", "framework", "description", "detected", "localized at")
	var outcomes []BugOutcome
	for _, c := range BugCases() {
		o := RunBug(c)
		outcomes = append(outcomes, o)
		if o.Err != nil {
			return "", nil, fmt.Errorf("bug %d: %v", c.ID, o.Err)
		}
		fmt.Fprintf(&out, "%-3d %-18s %-55s %-9v %s\n",
			c.ID, c.Framework, c.Description, o.Detected, o.Localized)
	}
	return out.String(), outcomes, nil
}

// Ablation compares the frontier-restricted exploration (§4.3.1)
// against folding the whole G_d into every per-operator e-graph, on
// the GPT workload — the design choice DESIGN.md calls out.
func Ablation() (string, error) {
	var out strings.Builder
	fmt.Fprintf(&out, "Ablation: §4.3.1 frontier-restricted G_d exploration (GPT, TP+SP, degree 2; median of %d, ms)\n", figureRuns)
	gpt := zooCase("GPT(2)")
	var ms [2]float64
	for i, mode := range []string{"frontier (Listing 3)", "whole-graph folding"} {
		res, err := Run(gpt, core.Options{DisableFrontier: i == 1})
		if err != nil {
			return "", err
		}
		ms[i] = msOf(res.Duration)
		fmt.Fprintf(&out, "  %-24s %12.1f\n", mode, ms[i])
	}
	fmt.Fprintf(&out, "  %-24s %11.1fx\n", "whole-graph / frontier", ms[1]/ms[0])
	return out.String(), nil
}
