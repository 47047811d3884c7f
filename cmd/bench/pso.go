package main

// pso.go is the -pso mode: it measures the two-level PSO DFT flow's
// batch-synchronous fitness engine — memoization, the incremental
// revalidation screen and N-worker generation evaluation — on every
// bundled chip/assay combination at 1, 2, 4 and 8 workers (batch-w1 …
// batch-w8). The report asserts the result — fitness, partner assignment,
// added edges — is bit-identical at every worker count, and reports each
// leg's outer-stage speedup over batch-w1. On a single-core host the
// worker legs match batch-w1 wall-clock (the fitness is CPU-bound); the
// workers pay off on multicore hosts.
//
// The committed BENCH_pso.json is regenerated with:
//
//	go run ./cmd/bench -pso -out BENCH_pso.json

import (
	"fmt"
	"os"
	"runtime"

	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/pso"
)

// PSODoc is the serialized PSO-engine benchmark report.
type PSODoc struct {
	GoMaxProcs int         `json:"gomaxprocs"`
	Designs    []PSODesign `json:"designs"`
}

// PSODesign is one chip/assay combination's measurements.
type PSODesign struct {
	Chip  string `json:"chip"`
	Assay string `json:"assay"`
	// Deterministic records that the batch engine returned a bit-identical
	// result (ExecPSO, partners, added edges) at 1, 2, 4 and 8 workers.
	Deterministic bool `json:"deterministic_1_2_4_8_workers"`
	// OuterSpeedup4 is batch-w1 outer-stage wall-clock / batch-w4
	// outer-stage wall-clock — the worker pool's gain.
	OuterSpeedup4 float64     `json:"outer_speedup_w1_vs_w4"`
	Results       []PSOResult `json:"results"`
}

// PSOResult is one engine variant's single-flow measurement. An op is a
// whole DFT flow; the outer stage is where the two-level search (and so
// the engine under test) spends its time.
type PSOResult struct {
	Name      string `json:"name"`
	OuterNs   int64  `json:"outer_stage_ns"`
	RuntimeNs int64  `json:"runtime_ns"`
	ExecPSO   int    `json:"exec_pso"`
	// OuterEvals / InnerEvals count fitness evaluations at each PSO level.
	OuterEvals int64 `json:"outer_evals"`
	InnerEvals int64 `json:"inner_evals"`
	// Cache hit rates over the outer stage (0 when the cache was idle).
	AugHitRate   float64 `json:"aug_cache_hit_rate"`
	InnerHitRate float64 `json:"inner_cache_hit_rate"`
	// RevalFastpath counts evaluations the revalidation screen settled
	// with zero simulations (every witness structurally clean),
	// RevalRecheck those it settled by re-simulating only the dirty
	// witnesses, and RevalSlowpath those sent to the full repair pass.
	RevalFastpath int64 `json:"reval_fastpath"`
	RevalRecheck  int64 `json:"reval_recheck_pass"`
	RevalSlowpath int64 `json:"reval_slowpath"`
	// SpeedupVs compares outer-stage wall-clock against batch-w1.
	SpeedupVs float64 `json:"speedup_vs_w1,omitempty"`
}

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

func runPSO(outFile string) int {
	combos := []struct {
		chip  *chip.Chip
		assay *assay.Graph
	}{
		{chip.IVD(), assay.IVD()},
		{chip.RA30(), assay.PID()},
		{chip.MRNA(), assay.CPA()},
	}
	doc := PSODoc{GoMaxProcs: runtime.GOMAXPROCS(0)}
	for _, combo := range combos {
		d := PSODesign{Chip: combo.chip.Name, Assay: combo.assay.Name, Deterministic: true}
		var w1Outer int64
		w1Key := ""
		for _, workers := range []int{1, 2, 4, 8} {
			res, err := core.RunDFTFlow(combo.chip, combo.assay, psoBenchOpts(workers))
			if err != nil {
				return cliutil.Fail(tool, err)
			}
			outer := res.Stats.Stage(core.StageOuter)
			if outer == nil {
				return cliutil.Fail(tool, fmt.Errorf("flow reported no outer stage"))
			}
			r := PSOResult{
				Name:          fmt.Sprintf("batch-w%d", workers),
				OuterNs:       outer.Duration.Nanoseconds(),
				RuntimeNs:     res.Runtime.Nanoseconds(),
				ExecPSO:       res.ExecPSO,
				OuterEvals:    outer.Counters["pso_outer_evals"],
				InnerEvals:    outer.Counters["pso_inner_evals"],
				AugHitRate:    hitRate(outer.Counters, "aug_cache"),
				InnerHitRate:  hitRate(outer.Counters, "inner_cache"),
				RevalFastpath: outer.Counters["reval_fastpath"],
				RevalRecheck:  outer.Counters["reval_recheck_pass"],
				RevalSlowpath: outer.Counters["reval_slowpath"],
			}
			key := psoResultKey(res)
			if workers == 1 {
				w1Outer, w1Key = r.OuterNs, key
			} else {
				if w1Outer > 0 && r.OuterNs > 0 {
					r.SpeedupVs = float64(w1Outer) / float64(r.OuterNs)
				}
				if workers == 4 {
					d.OuterSpeedup4 = r.SpeedupVs
				}
				if key != w1Key {
					d.Deterministic = false
				}
			}
			d.Results = append(d.Results, r)
			fmt.Fprintf(os.Stderr, "%-6s %-12s outer %10.1fms  runtime %10.1fms  inner_evals %7d  inner_hit %4.2f  fast/recheck/slow %d/%d/%d\n",
				combo.chip.Name, r.Name, float64(r.OuterNs)/1e6, float64(r.RuntimeNs)/1e6,
				r.InnerEvals, r.InnerHitRate, r.RevalFastpath, r.RevalRecheck, r.RevalSlowpath)
		}
		if !d.Deterministic {
			return cliutil.Fail(tool, fmt.Errorf("%s: batch engine results differ across worker counts", combo.chip.Name))
		}
		doc.Designs = append(doc.Designs, d)
	}

	return writeBenchArtifact(outFile, doc)
}
