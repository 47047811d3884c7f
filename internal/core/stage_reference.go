package core

import (
	"context"
	"fmt"

	"repro/internal/flowstage"
	"repro/internal/ilp"
	"repro/internal/solve"
	"repro/internal/testgen"
)

// runReferenceStage produces the unbiased reference configuration via the
// degradation chain: exact ILP if requested, then the greedy heuristic,
// then best-effort repair. This is also the "DFT without PSO"
// architecture. The chain outcome (with provenance) and the reference's
// evaluation are published as the chainOut and refEval artifacts.
func (f *flow) runReferenceStage(ctx context.Context, st *flowstage.StageStats) error {
	f.enterStage(st)
	defer f.leaveStage(st)
	obs := f.observer()

	chainOut, err := solve.AugmentChain(f.orig, solve.ChainConfig{
		Exact:       f.opts.UseILP,
		ExactBudget: f.opts.ExactBudget,
		Inject:      f.opts.Inject,
		Options: testgen.Options{
			Workers: f.opts.Workers,
			OnILPAttempt: func(paths, nodes, lazyCuts int) {
				st.Count("ilp_attempts", 1)
				st.Count("ilp_nodes", int64(nodes))
				st.Count("ilp_lazy_cuts", int64(lazyCuts))
				obs.ILPAttempt(st.Name, paths, nodes, lazyCuts)
			},
			OnILPStats: func(s ilp.SolveStats) {
				// The resolved worker count is a configuration fact, not an
				// accumulating quantity: record it once per stage.
				if st.Counter("ilp_workers") == 0 {
					st.Count("ilp_workers", int64(s.Workers))
				}
				st.Count("ilp_steals", int64(s.Steals))
				st.Count("ilp_idle_waits", int64(s.IdleWaits))
				st.Count("ilp_requeued", int64(s.Requeued))
				st.Count("ilp_lp_pivots", int64(s.LPPivots))
				// A maximum over the stage's solves, kept by counting up
				// to it.
				st.Count("ilp_lp_max_pivots", max(0, int64(s.LPMaxPivots)-st.Counter("ilp_lp_max_pivots")))
				st.Count("ilp_bland_trips", int64(s.BlandTrips))
				st.Count("ilp_iter_limits", int64(s.IterLimits))
			},
		},
		OnAttempt: func(att solve.Attempt) {
			st.Count("chain_attempts", 1)
			obs.ChainAttempt(st.Name, att.Tier, att.Name, string(att.Reason), att.Elapsed)
		},
	}).Run(ctx)
	if err != nil {
		return fmt.Errorf("core: no DFT configuration for %s: %w", f.orig.Name, err)
	}
	refEval := f.evalAug(chainOut.Value)
	if refEval.cutsErr != nil {
		return fmt.Errorf("core: cut generation failed on %s: %w", f.orig.Name, refEval.cutsErr)
	}
	st.Count("added_edges", int64(len(chainOut.Value.AddedEdges)))
	f.chainOut.Set(chainOut)
	f.refEval.Set(refEval)
	return nil
}
