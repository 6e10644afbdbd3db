package models

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"entangle/internal/core"
	"entangle/internal/mc"
)

// DAG is a small operator dependency graph, given as per-op parent
// lists (each parent once: core.NewSchedCore's form). Ops are
// topologically indexed: every parent index is smaller than its
// child's (the models reject anything else).
type DAG struct {
	Name    string
	Parents [][]int
}

// mustBeTopological panics unless d is topologically indexed: presets
// are compiled in, so a violation is a programming error.
func (d DAG) mustBeTopological() {
	for i, ps := range d.Parents {
		for _, p := range ps {
			if p < 0 || p >= i {
				panic(fmt.Sprintf("models: DAG %s is not topologically indexed: op %d has parent %d", d.Name, i, p))
			}
		}
	}
}

// The preset DAGs cover the shapes the scheduler actually sees: pure
// chains, fan-out/fan-in diamonds, independent islands, and the
// attention/MoE-style mixtures of all three.

// ChainDAG is n ops in a straight line.
func ChainDAG(n int) DAG {
	parents := make([][]int, n)
	for i := 1; i < n; i++ {
		parents[i] = []int{i - 1}
	}
	return DAG{Name: fmt.Sprintf("chain%d", n), Parents: parents}
}

// DiamondDAG is the minimal fan-out/fan-in: 0 → {1,2} → 3.
func DiamondDAG() DAG {
	return DAG{Name: "diamond", Parents: [][]int{nil, {0}, {0}, {1, 2}}}
}

// TwoChainsDAG is two independent 2-op chains (0→2 and 1→3): the
// smallest DAG where one island can fail while the other completes.
func TwoChainsDAG() DAG {
	return DAG{Name: "twochains", Parents: [][]int{nil, nil, {0}, {1}}}
}

// AttentionDAG mimics an attention block: input 0 fans out to q/k/v
// projections 1,2,3, which join at 4, followed by the output
// projection 5.
func AttentionDAG() DAG {
	return DAG{Name: "attn", Parents: [][]int{nil, {0}, {0}, {0}, {1, 2, 3}, {4}}}
}

// MoEDAG mimes a mixture-of-experts block: router 0 fans out to four
// experts 1..4, which join at combine 5, then head 6 and loss 7.
func MoEDAG() DAG {
	return DAG{Name: "moe", Parents: [][]int{nil, {0}, {0}, {0}, {0}, {1, 2, 3, 4}, {5}, {6}}}
}

// TowersDAG is two independent attention towers (ops 0-5 and 6-11)
// joined by a final op 12: islands, fan-out, fan-in, and a cross-tower
// join all in one 13-op graph — the widest preset.
func TowersDAG() DAG {
	return DAG{Name: "towers", Parents: [][]int{
		nil, {0}, {0}, {0}, {1, 2, 3}, {4},
		nil, {6}, {6}, {6}, {7, 8, 9}, {10},
		{5, 11},
	}}
}

// WavefrontConfig bounds one wavefront-scheduler model.
type WavefrontConfig struct {
	Name string
	DAG  DAG
	// Workers is the pool size; workers are symmetric (they carry no
	// state beyond which op they run), so the model tracks the multiset
	// of running ops, not worker identities.
	Workers int
	// MaxFailures bounds how many ops may fail (or panic) in one
	// execution; it is what makes the state space finite-interesting
	// rather than dominated by all-failing runs.
	MaxFailures int
	// KeepGoing selects the scheduling mode, exactly as in core.Check.
	KeepGoing bool
	// Buggy reintroduces the pre-fix panic accounting bug: a panicking
	// lemma's deferred bookkeeping never ran, so its op was never
	// resolved and its worker never returned to the pool. The fixed
	// code recovers the panic and resolves the op as failed, which the
	// model expresses by NOT offering the wedge transition.
	Buggy bool
}

// Wavefront is the model of the wavefront scheduler protocol. Every
// transition drives a Clone of core.SchedCore — the exact state
// machine the production worker pool drives under its mutex — so the
// checked protocol is the shipped scheduling logic.
type Wavefront struct {
	cfg WavefrontConfig
}

// NewWavefront builds the model; the DAG's parent lists go to
// core.NewSchedCore as they are. It panics on a non-topological DAG.
func NewWavefront(cfg WavefrontConfig) *Wavefront {
	cfg.DAG.mustBeTopological()
	if cfg.Workers <= 0 {
		panic("models: wavefront needs at least one worker")
	}
	return &Wavefront{cfg: cfg}
}

// wfState is one scheduler state: the SchedCore plus the pool's
// worker-side view. Workers are symmetric, so only the sorted multiset
// of running ops, the sorted list of wedged ops (Buggy mode), and the
// failure budget spent so far are tracked — a sound symmetry reduction
// that matches the production pool of identical goroutines.
type wfState struct {
	m        *Wavefront
	core     *core.SchedCore
	running  []int // ops popped and being checked, sorted
	wedged   []int // ops whose worker panicked away (Buggy), sorted
	failures int
}

func (s *wfState) idle() int {
	return s.m.cfg.Workers - len(s.running) - len(s.wedged)
}

func (s *wfState) clone() *wfState {
	return &wfState{
		m:        s.m,
		core:     s.core.Clone(),
		running:  append([]int(nil), s.running...),
		wedged:   append([]int(nil), s.wedged...),
		failures: s.failures,
	}
}

// Key is canonical: the core's outcome/errAt encoding (deps, ready,
// and taint are functions of it) plus the running and wedged op sets,
// which are NOT derivable from outcomes — a popped-but-unresolved op
// and a ready op both read as pending.
func (s *wfState) Key() string {
	b := s.core.AppendKey(make([]byte, 0, 64))
	b = appendOps(b, s.running)
	b = appendOps(b, s.wedged)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(s.failures), 10)
	return string(b)
}

func appendOps(b []byte, ops []int) []byte {
	b = append(b, '|')
	for _, op := range ops {
		b = strconv.AppendInt(b, int64(op), 10)
		b = append(b, ',')
	}
	return b
}

func (s *wfState) String() string {
	var b strings.Builder
	b.WriteString("ops=")
	for i := 0; i < s.core.Len(); i++ {
		b.WriteByte("-+!~"[s.core.Outcome(i)])
	}
	fmt.Fprintf(&b, " run=%v idle=%d failures=%d", s.running, s.idle(), s.failures)
	if len(s.wedged) > 0 {
		fmt.Fprintf(&b, " wedged=%v", s.wedged)
	}
	if errAt := s.core.ErrAt(); errAt < s.core.Len() {
		fmt.Fprintf(&b, " err@%d", errAt)
	}
	return b.String()
}

func (m *Wavefront) Name() string { return m.cfg.Name }

func (m *Wavefront) Init() []mc.State {
	return []mc.State{&wfState{
		m:    m,
		core: core.NewSchedCore(m.cfg.DAG.Parents, m.cfg.KeepGoing),
	}}
}

// Actions mirrors the worker loop: an idle worker picks the earliest
// runnable op (Pop is deterministic, so one pick action covers all
// idle workers — symmetry again), and each running op can complete
// refined, complete failed (covering disproved, inconclusive, engine
// fault, and — in the fixed code — a recovered panic), or, in Buggy
// mode, panic its worker away without ever resolving.
func (m *Wavefront) Actions(st mc.State) []mc.Action {
	s := st.(*wfState)
	var acts []mc.Action
	if s.idle() > 0 && s.core.Runnable() {
		acts = append(acts, mc.Action{Name: "pick", Next: func() mc.State {
			n := s.clone()
			n.running = insertOp(n.running, n.core.Pop())
			return n
		}})
	}
	for _, op := range s.running {
		op := op
		acts = append(acts, mc.Action{Name: fmt.Sprintf("op%d/refined", op), Next: func() mc.State {
			n := s.clone()
			n.core.Resolve(op, true)
			n.running = removeOp(n.running, op)
			return n
		}})
		if s.failures < m.cfg.MaxFailures {
			acts = append(acts, mc.Action{Name: fmt.Sprintf("op%d/fail", op), Next: func() mc.State {
				n := s.clone()
				n.core.Resolve(op, false)
				n.running = removeOp(n.running, op)
				n.failures++
				return n
			}})
			if m.cfg.Buggy {
				acts = append(acts, mc.Action{Name: fmt.Sprintf("op%d/panic", op), Next: func() mc.State {
					// The op is never resolved and the worker never
					// comes back: the pre-fix accounting bug.
					n := s.clone()
					n.running = removeOp(n.running, op)
					n.wedged = insertOp(n.wedged, op)
					n.failures++
					return n
				}})
			}
		}
	}
	return acts
}

// Terminal: with no wedged workers, a state with no enabled actions is
// legitimate quiescence (in default mode possibly a cancelled suffix).
// Any no-action state with a wedged worker is the bug's deadlock.
func (m *Wavefront) Terminal(st mc.State) bool {
	return len(st.(*wfState).wedged) == 0
}

// quiesced is the model's own drain predicate: no worker running or
// wedged, and nothing runnable. (The scheduler's, wavefrontState.stopped,
// also counts a fatal error as stopping all scheduling.)
func (s *wfState) quiesced() bool {
	return len(s.running) == 0 && len(s.wedged) == 0 && !s.core.Runnable()
}

func (m *Wavefront) Invariants() []mc.Invariant {
	invs := []mc.Invariant{
		{Name: "scheduled-once", Check: func(st mc.State) error {
			s := st.(*wfState)
			if busy := len(s.running) + len(s.wedged); busy > m.cfg.Workers {
				return fmt.Errorf("%d ops in flight with %d workers", busy, m.cfg.Workers)
			}
			for _, ops := range [][]int{s.running, s.wedged} {
				for i, op := range ops {
					if s.core.Outcome(op) != core.SchedPending {
						return fmt.Errorf("op %d is being run but already has outcome %s", op, s.core.Outcome(op))
					}
					if i > 0 && ops[i-1] >= op {
						return fmt.Errorf("op %d scheduled twice", op)
					}
				}
			}
			return nil
		}},
		{Name: "one-verdict-per-op", Check: func(st mc.State) error {
			s := st.(*wfState)
			if !s.quiesced() {
				return nil
			}
			n := s.core.Len()
			errAt := s.core.ErrAt()
			for i := 0; i < n; i++ {
				o := s.core.Outcome(i)
				switch {
				case m.cfg.KeepGoing && o == core.SchedPending:
					return fmt.Errorf("quiesced in keep-going mode with op %d unresolved", i)
				case !m.cfg.KeepGoing && i < errAt && o != core.SchedOK:
					return fmt.Errorf("quiesced with op %d %s before the earliest failure at %d", i, o, errAt)
				case !m.cfg.KeepGoing && errAt == n && o != core.SchedOK:
					return fmt.Errorf("quiesced failure-free with op %d %s", i, o)
				}
			}
			return nil
		}},
	}
	if m.cfg.KeepGoing {
		invs = append(invs, mc.Invariant{Name: "taint-exact-cone", Check: func(st mc.State) error {
			s := st.(*wfState)
			if !s.quiesced() {
				return nil
			}
			cone := m.failureCone(s)
			for i := 0; i < s.core.Len(); i++ {
				skipped := s.core.Outcome(i) == core.SchedSkipped
				if skipped != cone[i] {
					return fmt.Errorf("op %d: outcome %s but downstream-of-failure = %v", i, s.core.Outcome(i), cone[i])
				}
			}
			return nil
		}})
	}
	return invs
}

// failureCone computes, independently of the scheduler's own taint
// propagation, which ops are downstream of a failed op. The DAG is
// topologically indexed, so one forward pass suffices.
func (m *Wavefront) failureCone(s *wfState) []bool {
	cone := make([]bool, s.core.Len())
	for i, ps := range m.cfg.DAG.Parents {
		for _, p := range ps {
			if cone[p] || s.core.Outcome(p) == core.SchedFailed {
				cone[i] = true
				break
			}
		}
	}
	return cone
}

func insertOp(ops []int, op int) []int {
	i := sort.SearchInts(ops, op)
	ops = append(ops, 0)
	copy(ops[i+1:], ops[i:])
	ops[i] = op
	return ops
}

func removeOp(ops []int, op int) []int {
	i := sort.SearchInts(ops, op)
	return append(ops[:i:i], ops[i+1:]...)
}
