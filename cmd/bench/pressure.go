package main

// pressure.go is the pressure mode: the node-pressure solvers on every
// bundled design under a leakage-campaign-shaped workload — the all-open
// conductance state, then one single-valve leaky variant per valve, so
// consecutive solves differ in at most two entries. An op sweeps that
// sequence through the sparse engine refactorizing every state
// (sparse-cold, rank budget disabled, the reference) and with
// Sherman–Morrison–Woodbury warm updates (sparse-warm), the path
// Engine.EvaluateAll and the leakage campaign take.

import (
	"repro/internal/chip"
	"repro/internal/pressure"
)

// leakageSweep builds the campaign-shaped vector sequence: the fault-free
// all-open state, then one variant per valve with that valve leaky-closed.
func leakageSweep(c *chip.Chip) [][]float64 {
	open := make([]bool, c.NumValves())
	for i := range open {
		open[i] = true
	}
	base := pressure.Conductances(c, open, pressure.Params{}, nil)
	vectors := [][]float64{base}
	for v := 0; v < c.NumValves(); v++ {
		leaky := append([]float64(nil), base...)
		leaky[v] = 0.05
		vectors = append(vectors, leaky)
	}
	return vectors
}

func runPressure() ([]Record, error) {
	var recs []Record
	for _, c := range chip.Benchmarks() {
		src, mtr := c.Ports[0].Node, c.Ports[len(c.Ports)-1].Node
		vectors := leakageSweep(c)

		// Engines and solvers are built and warmed outside the timed ops,
		// so these see only solve work, as a campaign does.
		var engs [2]*pressure.Engine // sparse-cold (no rank budget), sparse-warm
		for i, budget := range []int{-1, 0} {
			var err error
			if engs[i], err = pressure.NewEngine(c, src, mtr, pressure.EngineOptions{RankBudget: budget}); err != nil {
				return nil, err
			}
		}
		coldEng, warmEng := engs[0], engs[1]
		warmSolver := warmEng.NewSolver()
		if _, err := warmSolver.Solve(vectors[0]); err != nil {
			return nil, err
		}
		sweep := func(s *pressure.Solver) func() error {
			return func() error {
				for _, v := range vectors {
					if _, err := s.Solve(v); err != nil {
						return err
					}
				}
				return nil
			}
		}
		legs := []struct {
			name string
			op   func() error
		}{
			{"sparse-cold", sweep(coldEng.NewSolver())},
			{"sparse-warm", sweep(warmSolver)},
		}
		n := float64(len(vectors))
		for _, leg := range legs {
			r, err := measure(c.Name, leg.name, leg.op)
			if err != nil {
				return nil, err
			}
			r.Counters = map[string]float64{
				"valves":       float64(c.NumValves()),
				"unknowns":     float64(warmEng.Unknowns()),
				"vectors":      n,
				"ns_solve":     float64(r.NsOp) / n,
				"allocs_solve": float64(r.AllocsOp) / n,
			}
			recs = append(recs, r)
		}
	}
	setSpeedups(recs, "sparse-cold", "")
	return recs, nil
}
