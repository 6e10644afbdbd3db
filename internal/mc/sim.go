package mc

import (
	"fmt"
	"time"

	"entangle/internal/det"
)

// SimOptions parameterize a random-walk simulation.
type SimOptions struct {
	// Seed drives every random choice. Two runs with the same seed,
	// model, and options visit identical executions.
	Seed uint64
	// Walks is how many independent walks to run (0 = 100).
	Walks int
	// MaxDepth bounds each walk's length (0 = 1000).
	MaxDepth int
	// TraceLimit caps how many trailing steps of a violating walk are
	// kept in the reported trace (0 = 200). Random-walk counterexamples
	// are not minimal; the tail is what matters.
	TraceLimit int
}

// SimResult summarizes one simulation.
type SimResult struct {
	Model string
	// Walks actually completed (a violation stops the run early).
	Walks int
	// Steps is the total number of transitions taken.
	Steps int
	// Distinct is the number of distinct states visited across walks.
	Distinct int
	// Deepest is the longest walk prefix reached.
	Deepest int
	// Duration is the total wall time; StatesPerSec = Steps/Duration.
	Duration     time.Duration
	StatesPerSec float64
	// Violation is the first property failure, with the violating
	// walk's trailing steps as its (non-minimal) trace.
	Violation *Violation
}

// Simulate runs seeded random walks over m, checking every invariant
// (and deadlock-freedom) at every visited state. It samples depths far
// beyond exhaustive reach; it proves nothing, but a violation it finds
// is real, replayable from the same seed, and reported with the walk's
// trailing steps.
func Simulate(m Model, opts SimOptions) (*SimResult, error) {
	if opts.Walks <= 0 {
		opts.Walks = 100
	}
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 1000
	}
	if opts.TraceLimit <= 0 {
		opts.TraceLimit = 200
	}
	// Wall-clock time is reporting metadata (states/sec) only; the
	// walks themselves are seed-deterministic.
	//lint:ignore determinism duration is reporting metadata, not walk input
	start := time.Now()
	res := &SimResult{Model: m.Name()}
	rng := det.NewRNG(opts.Seed)
	seen := make(map[fingerprint]struct{})
	invs := m.Invariants()

	inits := m.Init()
	if len(inits) == 0 {
		return nil, fmt.Errorf("mc: model %s has no initial states", m.Name())
	}

	finish := func() *SimResult {
		//lint:ignore determinism duration is reporting metadata, not walk input
		res.Duration = time.Since(start)
		if secs := res.Duration.Seconds(); secs > 0 {
			res.StatesPerSec = float64(res.Steps) / secs
		}
		return res
	}

	for walk := 0; walk < opts.Walks; walk++ {
		s := inits[rng.Intn(len(inits))]
		trace := Trace{{Action: "", State: s.String()}}
		for step := 0; ; step++ {
			if step > res.Deepest {
				res.Deepest = step
			}
			fp := fingerprintOf(s.Key())
			if _, ok := seen[fp]; !ok {
				seen[fp] = struct{}{}
				res.Distinct = len(seen)
			}
			for _, inv := range invs {
				if err := inv.Check(s); err != nil {
					res.Violation = &Violation{Invariant: inv.Name, Detail: err.Error(), Trace: clip(trace, opts.TraceLimit)}
					return finish(), nil
				}
			}
			acts := m.Actions(s)
			if len(acts) == 0 {
				if !m.Terminal(s) {
					res.Violation = &Violation{
						Invariant: DeadlockInvariant,
						Detail:    "no action is enabled and the state is not a legitimate terminal state",
						Trace:     clip(trace, opts.TraceLimit),
					}
					return finish(), nil
				}
				break
			}
			if step >= opts.MaxDepth {
				break
			}
			a := acts[rng.Intn(len(acts))]
			s = a.Next()
			res.Steps++
			trace = append(trace, Step{Action: a.Name, State: s.String()})
		}
		res.Walks++
	}
	return finish(), nil
}

// clip keeps the trailing limit steps of a trace, marking the cut.
func clip(t Trace, limit int) Trace {
	if len(t) <= limit {
		return t
	}
	out := Trace{{Action: "", State: fmt.Sprintf("… %d earlier steps elided …", len(t)-limit)}}
	return append(out, t[len(t)-limit:]...)
}
