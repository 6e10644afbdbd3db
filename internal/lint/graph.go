package lint

import (
	"fmt"

	"entangle/internal/graph"
)

// Layer 2: graph IR lint. Graph.Validate enforces the invariants a
// graph must satisfy to be checked at all (ID consistency, producer
// links, acyclicity, inferable shapes) and stops at the first
// violation. These checks go further — they collect every finding in
// one pass and add the "legal but suspicious" class a captured graph
// often exhibits: computation that cannot reach any output, tensors
// nobody reads, and duplicate bug-localization labels.
const (
	// CheckGraphDeadNode fires when no path leads from a node to any
	// graph output: the node's computation is unobservable and the
	// checker will still pay to map it.
	CheckGraphDeadNode = "graph-dead-node"
	// CheckGraphUnusedTensor fires when a live node produces an output
	// tensor that no node consumes and that is not a graph output.
	CheckGraphUnusedTensor = "graph-unused-tensor"
	// CheckGraphUnusedInput fires when a graph input is never read.
	CheckGraphUnusedInput = "graph-unused-input"
	// CheckGraphDuplicateLabel fires when two nodes carry the same
	// non-empty label, making RefinementError localization ambiguous.
	CheckGraphDuplicateLabel = "graph-duplicate-label"
)

// Graph lints one computation graph. The graph must be structurally
// sound enough to index (tensor/node IDs in range); graphs from the
// JSON or HLO codecs always are.
func Graph(g *graph.Graph) []Diagnostic {
	var out []Diagnostic

	// Consumer counts in one pass (Consumers() per tensor is O(V·E)).
	consumed := make([]int, len(g.Tensors))
	for _, n := range g.Nodes {
		for _, in := range n.Inputs {
			if int(in) >= 0 && int(in) < len(consumed) {
				consumed[in]++
			}
		}
	}
	isOutput := map[graph.TensorID]bool{}
	for _, o := range g.Outputs {
		isOutput[o] = true
	}

	// Backward reachability from the outputs marks live nodes.
	live := make([]bool, len(g.Nodes))
	stack := append([]graph.TensorID(nil), g.Outputs...)
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if int(t) < 0 || int(t) >= len(g.Tensors) {
			continue
		}
		prod := g.Tensors[t].Producer
		if prod == graph.NoProducer || live[prod] {
			continue
		}
		live[prod] = true
		stack = append(stack, g.Nodes[prod].Inputs...)
	}

	labels := map[string]string{} // label → first node's description
	for _, n := range g.Nodes {
		if !live[n.ID] {
			out = append(out, Diagnostic{
				Check: CheckGraphDeadNode, Severity: SevWarning, Subject: nodeSubject(n),
				Message: "no path from this node to any graph output; its computation is dead weight for the checker",
			})
		}
		if n.Label != "" {
			if first, dup := labels[n.Label]; dup {
				out = append(out, Diagnostic{
					Check: CheckGraphDuplicateLabel, Severity: SevWarning, Subject: nodeSubject(n),
					Message: fmt.Sprintf("label also used by %s; bug localization cannot tell the two apart", first),
				})
			} else {
				labels[n.Label] = nodeSubject(n)
			}
		}
		if !live[n.ID] {
			continue // dead node: its unused outputs are implied
		}
		for _, o := range n.Outputs {
			if int(o) < 0 || int(o) >= len(consumed) {
				continue
			}
			if consumed[o] == 0 && !isOutput[o] {
				out = append(out, Diagnostic{
					Check: CheckGraphUnusedTensor, Severity: SevWarning, Subject: g.Tensors[o].Name,
					Message: fmt.Sprintf("produced by %s but never consumed and not a graph output", nodeSubject(n)),
				})
			}
		}
	}
	for _, in := range g.Inputs {
		if int(in) < 0 || int(in) >= len(consumed) {
			continue
		}
		if consumed[in] == 0 && !isOutput[in] {
			out = append(out, Diagnostic{
				Check: CheckGraphUnusedInput, Severity: SevWarning, Subject: g.Tensors[in].Name,
				Message: "graph input is never read by any node",
			})
		}
	}
	return out
}

func nodeSubject(n *graph.Node) string {
	if n.Label != "" {
		return fmt.Sprintf("node %q (%s)", n.Label, n.Op)
	}
	return fmt.Sprintf("node #%d (%s)", n.ID, n.Op)
}
