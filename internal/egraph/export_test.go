package egraph

// LateEffects exposes, to the external differential test, how many
// withheld matches the InvariantChecks replay found effective in their
// turn (EGraph.lateEffects).
func LateEffects(g *EGraph) int { return g.lateEffects }
