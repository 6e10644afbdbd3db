package bench

import (
	"errors"
	"fmt"
	"strings"

	"entangle/internal/core"
)

// extensionStrategies labels the Zoo cases Extensions times.
var extensionStrategies = map[string]string{
	"DataParallel(2)":    "DP fwd+bwd, DDP grad sync",
	"DataParallel(4)":    "DP fwd+bwd, DDP grad sync",
	"Pipeline(2)":        "PP, 2 stages × 2 microbatches",
	"Pipeline(4)":        "PP, 2 stages × 4 microbatches",
	"ContextParallel(2)": "CP, blockwise attention",
	"ContextParallel(4)": "CP, blockwise attention",
}

// Extensions exercises the three §2.1 strategies the paper could not
// evaluate because of TorchDynamo limitations (§6.1): data parallelism
// (contiguous gradient buffers), pipeline parallelism (intermediate
// leaf tensors), and context parallelism. Our capture substrate has
// neither limitation, so these run as ordinary refinement checks.
func Extensions() (string, error) {
	var out strings.Builder
	fmt.Fprintf(&out, "Extensions: the §2.1 strategies the paper could not capture (median of %d, ms)\n", figureRuns)
	fmt.Fprintf(&out, "%-22s %-34s %10s %12s\n", "workload", "strategy", "#ops", "time")
	for _, c := range Zoo() {
		strategy, ok := extensionStrategies[c.Name]
		if !ok {
			continue
		}
		res, err := Run(c, core.Options{})
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&out, "%-22s %-34s %10d %12.1f\n", c.Name, strategy, res.Ops, msOf(res.Duration))
	}

	// DP without gradient sync: plain refinement holds, the DDP user
	// expectation is violated — same §4.4 shape as bugs 5/8/9.
	_, err := run(zooCase("DataParallel(2)/unsynced-expectation"), core.Options{}, 1)
	var ee *core.ExpectationError
	if !errors.As(err, &ee) {
		return "", fmt.Errorf("unsynced DP should violate the DDP expectation, got %v", err)
	}
	fmt.Fprintln(&out, "DataParallel(2) without gradient sync: refinement holds, DDP expectation VIOLATED (detected)")
	return out.String(), nil
}
