package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/flowstage"
	"repro/internal/pso"
)

// runOuterStage runs the outer PSO over free-edge bias weights — each
// fitness call augments the chip under the biased weights and runs the
// inner sharing sub-PSO — then picks the best configuration seen anywhere
// (the PSO's best position, the ban-loop seeds, or the reference). When no
// full sharing scheme validates, it retries a bounded set of
// configurations with partial sharing allowed before giving up. The
// winning evaluation is published as the bestEval artifact.
func (f *flow) runOuterStage(ctx context.Context, st *flowstage.StageStats) error {
	f.enterStage(st)
	defer f.leaveStage(st)

	c := f.orig
	freeEdges := f.freeEdges()
	outerCfg := f.opts.Outer
	outerCfg.Seed = f.opts.Seed
	outerCfg.OnIteration = f.solverTick
	outerCfg.Workers = f.workers()
	outer := pso.MinimizeCtx(ctx, len(freeEdges), func(x []float64) float64 {
		weights := make([]float64, c.Grid.NumEdges())
		for i, e := range freeEdges {
			weights[e] = x[i] * 4 // bias scale
		}
		aug, err := f.augment(weights)
		if err != nil {
			return math.Inf(1)
		}
		ev := f.evalAug(aug)
		return f.bestSharingFitness(ev)
	}, outerCfg)
	f.outer.Set(outer)
	st.Count("pso_outer_evals", int64(outer.Evaluations))
	st.Count("pso_workers", int64(f.workers()))

	// Decode the best configuration.
	bestWeights := make([]float64, c.Grid.NumEdges())
	for i, e := range freeEdges {
		bestWeights[e] = outer.BestX[i] * 4
	}
	bestAug, err := f.augment(bestWeights)
	if err != nil {
		bestAug = f.chainOut.Get().Value
	}
	_ = f.bestSharingFitness(f.evalAug(bestAug)) // ensure the PSO's pick is searched
	// Final choice: the best configuration seen anywhere — the PSO's best
	// position, the ban-loop seeds, or the reference.
	refEval := f.refEval.Get()
	bestEval := f.bestEvalSeen(refEval)
	if f.bestSharingFitness(bestEval) >= validThreshold {
		// No full sharing scheme validates anywhere. Fall back to partial
		// sharing: DFT valves that cannot share get their own control
		// lines (still penalized, so every shareable valve shares).
		f.allowPartial = true
		st.Count("partial_fallback", 1)
		keys := f.augCache.SortedKeys()
		for _, k := range keys {
			ev, _ := f.augCache.Get(k)
			ev.mu.Lock()
			ev.searched, ev.bestFit, ev.bestPartners = false, math.Inf(1), nil
			ev.mu.Unlock()
		}
		const retryConfigs = 8
		for _, k := range keys[:min(len(keys), retryConfigs)] {
			ev, _ := f.augCache.Get(k)
			f.bestSharingFitness(f.evalAug(ev.aug))
		}
		bestEval = f.bestEvalSeen(refEval)
		if f.bestSharingFitness(bestEval) >= validThreshold {
			return fmt.Errorf("core: no valid sharing scheme found for %s/%s", c.Name, f.graph.Name)
		}
	}
	st.Count("configs_evaluated", int64(f.augCache.Len()))
	f.bestEval.Set(bestEval)
	return nil
}
