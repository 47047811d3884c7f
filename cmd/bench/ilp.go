package main

// ilp.go is the ilp mode: the branch-and-bound engine on the paper's real
// models — the test-path generation ILP (eqs. (1)-(6)) and the test-cut
// set-cover ILP of both example chips. The search is serial and
// deterministic, so each case is one record whose node, lazy-cut and LP
// pivot counts are functions of the model; ns_node is the per-node cost.

import (
	"context"
	"fmt"

	"repro/internal/chip"
	"repro/internal/ilp"
	"repro/internal/lp"
	"repro/internal/testgen"
)

// ilpBenchCase builds a fresh model per solve (the lazy callback adds cuts,
// mutating the model, so iterations must not share one).
type ilpBenchCase struct {
	name     string // <chip>/<model>
	maxNodes int
	build    func() (*ilp.Model, func([]float64) []lp.Constraint)
}

func ilpCases() ([]ilpBenchCase, error) {
	var cases []ilpBenchCase
	for _, mk := range []func() *chip.Chip{chip.IVD, chip.MRNA} {
		c := mk()
		// Test-path generation at the paper's starting path count |P| = 2.
		// The node cap keeps the larger instance benchable: per-node cost
		// is scale-independent, so a truncated search measures the same
		// hot path as a full one.
		maxNodes := 200
		if c.Name == "mRNA_chip" {
			maxNodes = 40
		}
		cases = append(cases, ilpBenchCase{
			name:     c.Name + "/test-path",
			maxNodes: maxNodes,
			build: func() (*ilp.Model, func([]float64) []lp.Constraint) {
				return testgen.PathILPModel(c, 2)
			},
		})

		// Test-cut set cover on the heuristically augmented chip (the
		// production flow solves it there). No lazy cuts: the model is
		// immutable across solves, but we rebuild per iteration anyway so
		// both ILPs are measured the same way.
		aug, err := testgen.AugmentHeuristic(c, testgen.Options{})
		if err != nil {
			return nil, fmt.Errorf("augment %s: %w", c.Name, err)
		}
		cases = append(cases, ilpBenchCase{
			name:     c.Name + "/test-cut",
			maxNodes: ilp.DefaultMaxNodes,
			build: func() (*ilp.Model, func([]float64) []lp.Constraint) {
				m, err := testgen.CutCoverILPModel(aug.Chip, aug.Source, aug.Meter)
				if err != nil {
					panic(err) // succeeded during setup; cannot fail here
				}
				return m, nil
			},
		})
	}
	return cases, nil
}

func runILP() ([]Record, error) {
	cases, err := ilpCases()
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	var recs []Record
	for _, bc := range cases {
		probe, _ := bc.build()
		var res ilp.Result
		r, err := measure(bc.name, "warm", func() error {
			m, lazy := bc.build()
			var err error
			res, err = m.SolveCtx(ctx, ilp.Options{MaxNodes: bc.maxNodes, Lazy: lazy})
			return err
		})
		if err != nil {
			return nil, err
		}
		r.Counters = map[string]float64{
			"vars":          float64(probe.P.NumVars()),
			"constraints":   float64(probe.P.NumConstraints()),
			"max_nodes":     float64(bc.maxNodes),
			"nodes":         float64(res.Nodes),
			"lazy_cuts":     float64(res.LazyCuts),
			"lp_pivots":     float64(res.Stats.LPPivots),
			"lp_max_pivots": float64(res.Stats.LPMaxPivots),
		}
		if res.Nodes > 0 {
			r.Counters["ns_node"] = float64(r.NsOp) / float64(res.Nodes)
			r.Counters["allocs_node"] = float64(r.AllocsOp) / float64(res.Nodes)
		}
		recs = append(recs, r)
	}
	return recs, nil
}
