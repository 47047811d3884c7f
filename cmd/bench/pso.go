package main

// pso.go is the pso mode: the two-level PSO flow's batch-synchronous
// fitness engine on every bundled chip/assay combination at 1, 2, 4 and 8
// workers. An op is one whole flow, run once; ns_op is its outer stage,
// where the search (and so the engine) spends its time, and speedups are
// against batch-w1. The result — fitness, partner assignment, added
// edges — must be bit-identical at every worker count.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/pso"
)

// psoBenchOpts keeps one flow to a few seconds on the largest design
// while still exercising hundreds of inner-swarm generations.
func psoBenchOpts(workers int) core.Options {
	return core.Options{
		Outer:   pso.Config{Particles: 5, Iterations: 20},
		Inner:   pso.Config{Particles: 5, Iterations: 8},
		Seed:    2018,
		Workers: workers,
	}
}

// psoResultKey canonicalizes the fields that must match across worker
// counts: the optimized execution time, the partner assignment and the
// added DFT edges.
func psoResultKey(res *core.Result) string {
	return fmt.Sprintf("exec=%d partners=%v edges=%v source=%d meter=%d",
		res.ExecPSO, res.Partners, res.Aug.AddedEdges, res.Aug.Source, res.Aug.Meter)
}

func hitRate(c map[string]int64, cache string) float64 {
	h, m := c[cache+"_hits"], c[cache+"_misses"]
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

func runPSO() ([]Record, error) {
	var recs []Record
	for _, combo := range combos {
		c, g := combo.chip(), combo.assay()
		w1Key := ""
		for _, workers := range []int{1, 2, 4, 8} {
			res, err := core.RunDFTFlow(c, g, psoBenchOpts(workers))
			if err != nil {
				return nil, err
			}
			outer := res.Stats.Stage(core.StageOuter)
			if outer == nil {
				return nil, fmt.Errorf("%s: flow reported no outer stage", c.Name)
			}
			oc := outer.Counters
			r := Record{
				Case:       c.Name + "/" + g.Name,
				Variant:    fmt.Sprintf("batch-w%d", workers),
				Iterations: 1,
				NsOp:       outer.Duration.Nanoseconds(),
				Counters: map[string]float64{
					"runtime_ns":           float64(res.Runtime.Nanoseconds()),
					"exec_pso":             float64(res.ExecPSO),
					"outer_evals":          float64(oc["pso_outer_evals"]),
					"inner_evals":          float64(oc["pso_inner_evals"]),
					"aug_cache_hit_rate":   hitRate(oc, "aug_cache"),
					"inner_cache_hit_rate": hitRate(oc, "inner_cache"),
					"reval_fastpath":       float64(oc["reval_fastpath"]),
					"reval_recheck_pass":   float64(oc["reval_recheck_pass"]),
					"reval_slowpath":       float64(oc["reval_slowpath"]),
				},
			}
			if key := psoResultKey(res); workers == 1 {
				w1Key = key
			} else {
				r.Gates = map[string]bool{"matches_w1": key == w1Key}
			}
			recs = append(recs, r)
		}
	}
	setSpeedups(recs, "batch-w1", "")
	return recs, nil
}
