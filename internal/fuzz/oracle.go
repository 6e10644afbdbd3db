package fuzz

import (
	"errors"
	"fmt"
	"math/rand"

	"entangle/internal/core"
	"entangle/internal/expr"
	"entangle/internal/graph"
	"entangle/internal/numeric"
	"entangle/internal/relation"
)

// Outcome classifies one case after both the checker and the numeric
// differential have spoken.
type Outcome string

const (
	// OutcomeAgree: a correct composition refined, and the verified
	// relation matched the numeric ground truth.
	OutcomeAgree Outcome = "agree"
	// OutcomeRediscovered: an injected defect was disproved — the
	// checker caught the bug.
	OutcomeRediscovered Outcome = "rediscovered"
	// OutcomeLemmaGap: the checker was weaker than the ground truth —
	// a correct composition it could not refine, or an injected defect
	// it could only call inconclusive. GapKey names the gap.
	OutcomeLemmaGap Outcome = "lemma-gap"
	// OutcomeMasked: an injected defect that turned out semantically
	// harmless (the checker refined it AND the numerics agree — e.g. a
	// double reduce feeding a scale-invariant rmsnorm).
	OutcomeMasked Outcome = "masked"
	// OutcomeUnsound: the checker refined a graph the numeric
	// differential rejects (or accepted a relation that omits the
	// tensors actually computed with). The one outcome that must never
	// happen.
	OutcomeUnsound Outcome = "unsound"
)

// Result is the oracle's verdict on one case.
type Result struct {
	Case    *Case
	Report  *core.Report
	Refined bool
	// NumericAgree is the differential verdict: every G_s output was
	// reconstructed from the per-rank G_d outputs and compared.
	NumericAgree bool
	MaxDiff      float64
	Outcome      Outcome
	// GapKey identifies a lemma gap: "<op>/<verdict>" of the first
	// failing operator. Empty unless Outcome is OutcomeLemmaGap.
	GapKey string
}

// numTol is the agreement tolerance for the numeric differential; the
// graphs are tiny, so anything past float noise is a real divergence.
const numTol = 1e-6

// Evaluate runs the checker and the numeric differential on one case
// and classifies the combination. workers sets the checker's
// parallelism (results must not depend on it).
func Evaluate(cs *Case, workers int) (*Result, error) {
	report, cerr := core.NewChecker(core.Options{KeepGoing: true, Workers: workers}).
		Check(cs.Gs, cs.Gd, cs.Env.Ri)
	if report == nil {
		return nil, fmt.Errorf("fuzz: %s: checker: %v", cs.Plan, cerr)
	}
	res := &Result{Case: cs, Report: report, Refined: cerr == nil}

	agree, maxDiff, err := diffNumeric(cs, report.OutputRelation)
	if err != nil {
		return nil, fmt.Errorf("fuzz: %s: numeric differential: %w", cs.Plan, err)
	}
	res.NumericAgree = agree
	res.MaxDiff = maxDiff

	res.Outcome, res.GapKey = classify(cs, res)
	return res, nil
}

func classify(cs *Case, res *Result) (Outcome, string) {
	injected := cs.Defect != nil
	if res.Refined {
		switch {
		case !injected && res.NumericAgree:
			return OutcomeAgree, ""
		case injected && res.NumericAgree && !cs.Defect.Class.NumericBenign():
			// The injection dissolved semantically; nothing to catch.
			return OutcomeMasked, ""
		default:
			// Refined against a numeric counterexample, or refined a
			// relation that never mentions the tensors G_d computes
			// with (missing-register): soundness is broken.
			return OutcomeUnsound, ""
		}
	}
	disproved := false
	for _, f := range res.Report.Failures {
		if f.Kind == core.VerdictDisproved {
			disproved = true
			break
		}
	}
	if injected && disproved {
		return OutcomeRediscovered, ""
	}
	// A correct composition the checker could not refine, or an
	// injected defect it could only call inconclusive: a lemma gap.
	return OutcomeLemmaGap, gapKey(res.Report)
}

// gapKey fingerprints a lemma gap by the first failing operator's kind
// and verdict, so campaigns can count unique gaps instead of raw
// failures.
func gapKey(report *core.Report) string {
	if len(report.Failures) == 0 {
		return "output-resolution"
	}
	f := report.Failures[0]
	return fmt.Sprintf("%s/%s", f.Op.Op, f.Kind)
}

// diffNumeric evaluates both graphs on seeded concrete inputs, splits
// the sequential inputs with the recorded derivations, reconstructs
// every sequential output from the per-rank outputs using the
// composer's layout bindings, and compares. When the checker produced
// a verified output relation, every one of its mappings is evaluated
// and compared too — a refined case must agree both through the
// composer's own layout bookkeeping and through the checker's proof.
func diffNumeric(cs *Case, verified *relation.Relation) (agree bool, maxDiff float64, err error) {
	gsVals, gdVals, err := evalBoth(cs)
	if err != nil {
		return false, 0, err
	}

	agree = true
	for _, ob := range cs.outs {
		want := gsVals[ob.gs]
		var got []*numeric.Dense
		for _, id := range ob.ids {
			v, ok := gdVals[id]
			if !ok {
				return false, 0, fmt.Errorf("no value for G_d tensor %d", id)
			}
			got = append(got, v)
		}
		var rec *numeric.Dense
		switch ob.kind {
		case stShared:
			rec = got[0]
		case stReplicated:
			// Every rank must hold the sequential value.
			rec = got[0]
			for _, g := range got[1:] {
				if d := numeric.MaxAbsDiff(rec, g); d > maxDiff {
					maxDiff = d
				}
				if !numeric.AllClose(rec, g, numTol) {
					agree = false
				}
			}
		case stSharded:
			rec, err = numeric.Concat(ob.dim, got...)
		case stPartial:
			rec, err = numeric.SumN(got...)
		default:
			err = fmt.Errorf("unknown output layout %v", ob.kind)
		}
		if err != nil {
			return false, 0, err
		}
		if d := numeric.MaxAbsDiff(want, rec); d > maxDiff {
			maxDiff = d
		}
		if !numeric.AllClose(want, rec, numTol) {
			agree = false
		}
	}

	if verified != nil {
		lookup := mappingLookup(gdVals)
		for _, o := range cs.Gs.Outputs {
			want := gsVals[o]
			for _, m := range verified.Get(o) {
				got, err := numeric.EvalTerm(m, nil, lookup)
				if err != nil {
					return false, maxDiff, fmt.Errorf("eval verified mapping %s: %w", m, err)
				}
				if d := numeric.MaxAbsDiff(want, got); d > maxDiff {
					maxDiff = d
				}
				if !numeric.AllClose(want, got, numTol) {
					agree = false
				}
			}
		}
	}
	return agree, maxDiff, nil
}

// evalBoth evaluates G_s on the case's seeded concrete inputs and G_d
// on those inputs split by the recorded derivations: every tensor of
// each graph, by ID.
func evalBoth(cs *Case) (gsVals, gdVals map[graph.TensorID]*numeric.Dense, err error) {
	gsIn, err := ConcreteInputs(cs.Gs, cs.Plan.Seed)
	if err != nil {
		return nil, nil, err
	}
	if gsVals, err = numeric.EvalGraph(cs.Gs, gsIn, nil); err != nil {
		return nil, nil, fmt.Errorf("eval G_s: %w", err)
	}
	gdIn, err := cs.Env.SplitInputs(gsIn)
	if err != nil {
		return nil, nil, err
	}
	if gdVals, err = numeric.EvalGraph(cs.Gd, gdIn, nil); err != nil {
		return nil, nil, fmt.Errorf("eval G_d: %w", err)
	}
	return gsVals, gdVals, nil
}

// ConcreteInputs draws seeded concrete values for every graph input.
// Integer id tensors (embedding indices) get values inside the
// smallest consuming table's vocabulary.
func ConcreteInputs(gs *graph.Graph, seed uint64) (map[string]*numeric.Dense, error) {
	// The structural streams use splitmix64, but the numeric kernels
	// take a *rand.Rand; the stream is still fully determined by the
	// case seed.
	//lint:ignore determinism oracle input values are seeded from the case plan
	rng := rand.New(rand.NewSource(int64(seed ^ 0x5eed_0f_7e5707)))
	vocab := idVocab(gs)
	in := map[string]*numeric.Dense{}
	for _, id := range gs.Inputs {
		t := gs.Tensor(id)
		dims, err := t.Shape.Concrete(nil)
		if err != nil {
			return nil, fmt.Errorf("input %q has symbolic shape: %v", t.Name, err)
		}
		if hi, ok := vocab[id]; ok {
			in[t.Name] = numeric.RandInts(rng, hi, dims...)
		} else {
			in[t.Name] = numeric.Rand(rng, dims...)
		}
	}
	return in, nil
}

// idVocab maps integer-id input tensors to the extent of the smallest
// embedding table they index.
func idVocab(gs *graph.Graph) map[graph.TensorID]int {
	out := map[graph.TensorID]int{}
	for _, n := range gs.Nodes {
		if (n.Op != expr.OpEmbedding && n.Op != expr.OpEmbeddingShard) || len(n.Inputs) < 2 {
			continue
		}
		v, ok := gs.Tensor(n.Inputs[0]).Shape[0].IsConst()
		if !ok {
			continue
		}
		if cur, seen := out[n.Inputs[1]]; !seen || int(v) < cur {
			out[n.Inputs[1]] = int(v)
		}
	}
	return out
}

// mappingLookup adapts a G_d value map to numeric.EvalTerm's lookup.
func mappingLookup(gdVals map[graph.TensorID]*numeric.Dense) func(tid int) (*numeric.Dense, error) {
	return func(tid int) (*numeric.Dense, error) {
		if !relation.IsGd(tid) {
			return nil, errors.New("fuzz: relation mapping references a G_s tensor")
		}
		v, ok := gdVals[relation.GdTensorID(tid)]
		if !ok {
			return nil, errors.New("fuzz: relation mapping references an unevaluated tensor")
		}
		return v, nil
	}
}
