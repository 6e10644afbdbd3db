package models

import (
	"fmt"
	"strings"

	"entangle/internal/core"
	"entangle/internal/exprparse"
	"entangle/internal/graph"
	"entangle/internal/mc"
	"entangle/internal/relation"
	"entangle/internal/shape"
	"entangle/internal/sym"
)

// PlannerConfig bounds one diff-planner model: a preset DAG realized
// as a real G_s, and a budget of single-operator edits.
type PlannerConfig struct {
	Name string
	DAG  DAG
	// MaxEdits bounds how many operators may be edited in one state,
	// which bounds the explored edit space to sum_{k<=MaxEdits} C(n,k)
	// subsets.
	MaxEdits int
}

// Planner is the model of the diff planner. Unlike the wavefront and
// daemon models it has no concurrency: its state space is the set of
// possible edits to a graph, and every state's invariant check runs
// the SHIPPED core.DiffPlan on real built graphs — proving, at
// bounded scope, the two safety properties the incremental re-check
// rests on:
//
//   - replay-never-stale: an operator the plan marks SkipUnchanged has
//     no edited operator anywhere in its upstream cone, so replaying
//     its cached verdict can never serve a stale result;
//   - changed-cone-rechecked: every operator whose upstream cone
//     contains an edit is re-checked, as Check where the edit is the
//     operator itself and TaintedUpstream where a producer changed.
//
// The "upstream cone" on the model side is computed directly from the
// preset DAG's parent lists — independently of the cone fingerprints
// DiffPlan actually compares — so agreement is meaningful.
type Planner struct {
	cfg   PlannerConfig
	gd    *graph.Graph
	oldGs *graph.Graph
	oldRi *relation.Relation
}

// NewPlanner builds the model plus the shared fixed artifacts: the
// trivial G_d and the unedited base graph. Presets are compiled in, so
// any build failure is a programming error and panics.
func NewPlanner(cfg PlannerConfig) *Planner {
	cfg.DAG.mustBeTopological()
	if cfg.MaxEdits <= 0 {
		panic("models: planner needs an edit budget")
	}
	gdb := graph.NewBuilder("Gd", nil)
	X0 := gdb.Input("X0", shape.Of(2, 3))
	gdb.Output(gdb.Identity("out", X0))
	m := &Planner{cfg: cfg, gd: gdb.MustBuild()}
	m.oldGs, m.oldRi = m.realize(nil)
	return m
}

// realize turns the preset DAG into a real G_s with the given edit
// set (nil = unedited). Every operator gets a unique unary function
// string, so distinct operators always have distinct cone
// fingerprints and every edit is fingerprint-visible: a single-parent
// operator is edited by priming its function, a join by permuting its
// operand order (both are hashed; labels are not).
func (m *Planner) realize(edited []bool) (*graph.Graph, *relation.Relation) {
	isEdited := func(i int) bool { return edited != nil && edited[i] }
	bd := graph.NewBuilder("Gs", nil)
	X := bd.Input("X", shape.Of(2, 3))
	n := len(m.cfg.DAG.Parents)
	outs := make([]graph.TensorID, n)
	isParent := make([]bool, n)
	for i, ps := range m.cfg.DAG.Parents {
		label := fmt.Sprintf("op%d", i)
		fn := fmt.Sprintf("f%d", i)
		if isEdited(i) {
			fn += "'"
		}
		switch len(ps) {
		case 0:
			outs[i] = bd.Unary(label, fn, X)
		case 1:
			outs[i] = bd.Unary(label, fn, outs[ps[0]])
			isParent[ps[0]] = true
		default:
			args := make([]graph.TensorID, len(ps))
			for j, p := range ps {
				args[j] = outs[p]
				isParent[p] = true
			}
			if isEdited(i) {
				for a, b := 0, len(args)-1; a < b; a, b = a+1, b-1 {
					args[a], args[b] = args[b], args[a]
				}
			}
			outs[i] = bd.Concat(label, sym.Const(0), args...)
		}
	}
	for i := range outs {
		if !isParent[i] {
			bd.Output(outs[i])
		}
	}
	g := bd.MustBuild()
	ri, err := exprparse.ParseRelation(map[string][]string{"X": {"X0"}}, g, m.gd)
	if err != nil {
		panic(fmt.Sprintf("models: planner relation: %v", err))
	}
	return g, ri
}

// plannerState is one point of the edit space.
type plannerState struct {
	m      *Planner
	edited []bool
	nEdits int
}

func (s *plannerState) clone() *plannerState {
	return &plannerState{m: s.m, edited: append([]bool(nil), s.edited...), nEdits: s.nEdits}
}

func (s *plannerState) Key() string {
	b := make([]byte, len(s.edited))
	for i, e := range s.edited {
		b[i] = '0'
		if e {
			b[i] = '1'
		}
	}
	return string(b)
}

func (s *plannerState) String() string {
	var ops []string
	for i, e := range s.edited {
		if e {
			ops = append(ops, fmt.Sprintf("op%d", i))
		}
	}
	if len(ops) == 0 {
		return "edits={}"
	}
	return "edits={" + strings.Join(ops, ",") + "}"
}

func (m *Planner) Name() string { return m.cfg.Name }

func (m *Planner) Init() []mc.State {
	return []mc.State{&plannerState{m: m, edited: make([]bool, len(m.cfg.DAG.Parents))}}
}

// Actions: edit any not-yet-edited operator while budget remains.
// Order is irrelevant (states are edit SETS), but each subset is still
// reached and checked exactly once thanks to the seen-set.
func (m *Planner) Actions(st mc.State) []mc.Action {
	s := st.(*plannerState)
	if s.nEdits >= m.cfg.MaxEdits {
		return nil
	}
	var acts []mc.Action
	for i := range s.edited {
		if s.edited[i] {
			continue
		}
		i := i
		acts = append(acts, mc.Action{Name: fmt.Sprintf("edit-op%d", i), Next: func() mc.State {
			n := s.clone()
			n.edited[i] = true
			n.nEdits++
			return n
		}})
	}
	return acts
}

// Terminal: every edit set is a legitimate stopping point.
func (m *Planner) Terminal(mc.State) bool { return true }

// editedCone marks each operator whose upstream cone (itself
// included) contains an edit — one forward pass over the
// topologically indexed DAG, fully independent of fingerprints.
func (m *Planner) editedCone(edited []bool) []bool {
	cone := make([]bool, len(edited))
	for i, ps := range m.cfg.DAG.Parents {
		cone[i] = edited[i]
		for _, p := range ps {
			if cone[p] {
				cone[i] = true
				break
			}
		}
	}
	return cone
}

func (m *Planner) Invariants() []mc.Invariant {
	// Both invariants share one DiffPlan run per state; the plan is
	// deterministic, so recomputing it in each closure is merely slow,
	// and at model scopes these graphs are a handful of operators.
	planFor := func(s *plannerState) (map[string]core.Disposition, error) {
		newGs, newRi := m.realize(s.edited)
		plan, err := core.DiffPlan(m.oldGs, m.oldRi, newGs, newRi, m.gd)
		if err != nil {
			return nil, err
		}
		byLabel := make(map[string]core.Disposition, len(plan.Ops))
		for _, op := range plan.Ops {
			byLabel[op.Label] = op.Disposition
		}
		return byLabel, nil
	}
	return []mc.Invariant{
		{Name: "replay-never-stale", Check: func(st mc.State) error {
			s := st.(*plannerState)
			disp, err := planFor(s)
			if err != nil {
				return err
			}
			cone := m.editedCone(s.edited)
			for i := range cone {
				if cone[i] && disp[fmt.Sprintf("op%d", i)] == core.DispSkipUnchanged {
					return fmt.Errorf("op%d has an edit in its cone but the plan replays it", i)
				}
			}
			return nil
		}},
		{Name: "changed-cone-rechecked", Check: func(st mc.State) error {
			s := st.(*plannerState)
			disp, err := planFor(s)
			if err != nil {
				return err
			}
			cone := m.editedCone(s.edited)
			for i, ps := range m.cfg.DAG.Parents {
				upstream := false
				for _, p := range ps {
					if cone[p] {
						upstream = true
						break
					}
				}
				want := core.DispSkipUnchanged
				switch {
				case cone[i] && upstream:
					want = core.DispTaintedUpstream
				case cone[i]:
					want = core.DispCheck
				}
				if got := disp[fmt.Sprintf("op%d", i)]; got != want {
					return fmt.Errorf("op%d planned %s, want %s (edited cone %v, dirty producer %v)",
						i, got, want, cone[i], upstream)
				}
			}
			return nil
		}},
	}
}
