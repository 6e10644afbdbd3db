package bench

import (
	"errors"
	"fmt"
	"strings"
	"time"

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

// BugOutcome records one bug run.
type BugOutcome struct {
	Case      BugCase
	Detected  bool
	Localized string // the operator label ENTANGLE reported
	Duration  time.Duration
	Err       error
}

// RunBug checks one bug case: refinement for ordinary bugs,
// refinement + expectation for the §4.4 cases.
func RunBug(c BugCase) BugOutcome {
	out := BugOutcome{Case: c}
	b, err := c.Build()
	if err != nil {
		out.Err = err
		return out
	}
	checker := core.NewChecker(core.Options{})
	start := time.Now()
	if c.Expectation {
		err = checker.CheckExpectation(b.Gs, b.Gd, b.Ri,
			core.Expectation{Fs: b.ExpectFs, Fd: b.ExpectFd})
		out.Duration = time.Since(start)
		var ee *core.ExpectationError
		if errors.As(err, &ee) {
			out.Detected = true
			out.Localized = "user expectation on " + b.ExpectFs.String()
		} else if err != nil {
			out.Err = err
		}
		return out
	}
	_, err = checker.Check(b.Gs, b.Gd, b.Ri)
	out.Duration = time.Since(start)
	if op := core.FailingOp(err); op != nil {
		out.Detected = true
		out.Localized = op.Label
	} else if err != nil {
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
	build := func() (*models.Built, error) {
		return models.GPT(models.Options{TP: 2, SP: true})
	}
	var out strings.Builder
	fmt.Fprintln(&out, "Ablation: §4.3.1 frontier-restricted G_d exploration (GPT, TP+SP, degree 2)")
	for _, disable := range []bool{false, true} {
		b, err := build()
		if err != nil {
			return "", err
		}
		checker := core.NewChecker(core.Options{DisableFrontier: disable})
		start := time.Now()
		if _, err := checker.Check(b.Gs, b.Gd, b.Ri); err != nil {
			return "", err
		}
		mode := "frontier (Listing 3)"
		if disable {
			mode = "whole-graph folding"
		}
		fmt.Fprintf(&out, "  %-24s %12s\n", mode, time.Since(start).Round(time.Millisecond))
	}
	return out.String(), nil
}
