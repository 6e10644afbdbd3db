package bench

import (
	"fmt"

	"entangle/internal/graph"
	"entangle/internal/models"
	"entangle/internal/relation"
)

// ZooCase is one model pair the repository can build, as the
// whole-zoo suites check it: the golden zoo here, the recycled-graph
// differential in internal/egraph.
type ZooCase struct {
	Name  string
	Build func() (*models.Built, error)
	// ViaHLO routes both graphs through the HLO text format first.
	ViaHLO bool
	// Expectation marks a case checked with core.CheckExpectation
	// against the built pair's ExpectFs/ExpectFd.
	Expectation bool
}

// Graphs builds the case and returns what a check of it is given.
func (c ZooCase) Graphs() (b *models.Built, gs, gd *graph.Graph, ri *relation.Relation, err error) {
	if b, err = c.Build(); err != nil {
		return nil, nil, nil, nil, fmt.Errorf("%s: %v", c.Name, err)
	}
	gs, gd, ri = b.Gs, b.Gd, b.Ri
	if c.ViaHLO {
		if gs, gd, ri, err = roundTripHLO(b); err != nil {
			return nil, nil, nil, nil, fmt.Errorf("%s: %v", c.Name, err)
		}
	}
	return b, gs, gd, ri, nil
}

// Zoo is every model the repository can build: each Figure 3 workload
// at each parallelism it supports, the DP/PP/CP/grad-sync extensions,
// and the nine Table 3 bugs.
func Zoo() []ZooCase {
	var cases []ZooCase
	for _, w := range Fig3Workloads() {
		w := w
		degrees := w.Parallelisms
		if degrees == nil {
			degrees = []int{2}
		}
		for _, p := range degrees {
			p := p
			cases = append(cases, ZooCase{
				Name:   fmt.Sprintf("%s(%d)", w.Name, p),
				Build:  func() (*models.Built, error) { return w.Build(p, 1) },
				ViaHLO: w.ViaHLO,
			})
		}
	}
	for _, r := range []int{2, 4} {
		r := r
		cases = append(cases,
			ZooCase{Name: fmt.Sprintf("DataParallel(%d)", r), Build: func() (*models.Built, error) { return models.DataParallel(r, true) }},
			ZooCase{Name: fmt.Sprintf("DataParallel(%d)/expectation", r), Expectation: true,
				Build: func() (*models.Built, error) { return models.DataParallel(r, true) }},
			ZooCase{Name: fmt.Sprintf("Pipeline(%d)", r), Build: func() (*models.Built, error) { return models.Pipeline(r, false) }},
			ZooCase{Name: fmt.Sprintf("Pipeline(%d)/buggy-scaling", r), Build: func() (*models.Built, error) { return models.Pipeline(r, true) }},
			ZooCase{Name: fmt.Sprintf("ContextParallel(%d)", r), Build: func() (*models.Built, error) { return models.ContextParallel(r) }},
		)
	}
	cases = append(cases, ZooCase{Name: "DataParallel(2)/unsynced-expectation", Expectation: true,
		Build: func() (*models.Built, error) { return models.DataParallel(2, false) }})
	for _, m := range []models.GradSyncModule{models.ModuleLayerNorm, models.ModuleMoERouter, models.ModuleTELayerNorm} {
		m := m
		cases = append(cases,
			ZooCase{Name: fmt.Sprintf("GradSync(%s)", m), Build: func() (*models.Built, error) { return models.GradSync(m, 2, true) }},
			ZooCase{Name: fmt.Sprintf("GradSync(%s)/expectation", m), Expectation: true,
				Build: func() (*models.Built, error) { return models.GradSync(m, 2, true) }})
	}
	for _, c := range BugCases() {
		cases = append(cases, ZooCase{Name: fmt.Sprintf("bug%d", c.ID), Build: c.Build, Expectation: c.Expectation})
	}
	return cases
}
