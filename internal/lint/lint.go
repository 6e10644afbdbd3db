// Package lint is ENTANGLE's static-analysis layer: correctness
// tooling for the verifier itself. The paper spends a large share of
// its lemma budget on validation (§5); this package is the static
// counterpart to the runtime soundness fuzzing in
// internal/lemmas/soundness_test.go. It has three layers:
//
//   - Lemmas: lint the rewrite-rule library — duplicate names and
//     rules with no LHS.
//   - Graph: lint a computation graph beyond Graph.Validate — dead
//     nodes, unused tensors, duplicate labels, shape inconsistencies.
//   - Source: a go/ast analysis over the engine's own source that
//     flags nondeterminism hazards (ranging over a map on the way to
//     e-graph mutation without an intervening sort — the bug class a
//     previous change fixed by hand).
//
// Every check has a stable kebab-case ID so findings can be gated in
// CI and suppressed individually in source (//lint:ignore <check>).
package lint

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Severity ranks a finding. Error-severity findings fail the verify
// gate; warnings are advisory.
type Severity int

const (
	// SevInfo findings are informational only.
	SevInfo Severity = iota
	// SevWarning findings deserve attention but do not gate.
	SevWarning
	// SevError findings fail `make lint` and scripts/verify.sh.
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarning:
		return "warning"
	case SevError:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// MarshalJSON encodes the severity as its name, the stable form
// consumed by CI tooling.
func (s Severity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// Diagnostic is one lint finding.
type Diagnostic struct {
	// Check is the stable check ID, e.g. "rule-duplicate-name".
	Check string `json:"check"`
	// Severity gates: SevError findings fail the verify gate.
	Severity Severity `json:"severity"`
	// Subject names what the finding is about: a rule or lemma name,
	// a graph node label or tensor name.
	Subject string `json:"subject,omitempty"`
	// Pos is a file:line:col position for source-layer findings.
	Pos string `json:"pos,omitempty"`
	// Message explains the finding.
	Message string `json:"message"`
}

// String renders the finding in the single-line compiler-style form:
//
//	error: internal/egraph/x.go:12:2 [source-map-range-mutation] ...
//	warning: node "L0/attn" (matmul) [graph-dead-node] ...
func (d Diagnostic) String() string {
	head := d.Subject
	if d.Pos != "" {
		head = d.Pos
		if d.Subject != "" {
			head += " (" + d.Subject + ")"
		}
	}
	return fmt.Sprintf("%s: %s [%s] %s", d.Severity, head, d.Check, d.Message)
}

// Report collects findings across lint layers.
type Report struct {
	Diags []Diagnostic `json:"diagnostics"`
}

// Add appends findings.
func (r *Report) Add(ds ...Diagnostic) { r.Diags = append(r.Diags, ds...) }

// Sort orders findings deterministically: position (numerically by
// line and column), then subject, then check ID, then message.
func (r *Report) Sort() {
	sort.SliceStable(r.Diags, func(i, j int) bool {
		a, b := r.Diags[i], r.Diags[j]
		if a.Pos != b.Pos {
			return posLess(a.Pos, b.Pos)
		}
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// Count returns the number of findings at severity s or above.
func (r *Report) Count(s Severity) int {
	n := 0
	for _, d := range r.Diags {
		if d.Severity >= s {
			n++
		}
	}
	return n
}

// Errors returns the number of error-severity findings — the quantity
// the verify gate checks against zero.
func (r *Report) Errors() int { return r.Count(SevError) }

// WriteText renders one finding per line plus a summary tail.
func (r *Report) WriteText(w io.Writer) error {
	for _, d := range r.Diags {
		if _, err := fmt.Fprintln(w, d); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%d findings (%d errors, %d warnings)\n",
		len(r.Diags), r.Errors(), r.Count(SevWarning)-r.Errors())
	return err
}

// WriteJSON renders the report as a single JSON object (the -json
// flag of cmd/entangle-lint).
func (r *Report) WriteJSON(w io.Writer) error {
	if r.Diags == nil {
		r.Diags = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
