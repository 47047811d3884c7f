package core

import (
	"context"
	"testing"

	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/solve"
)

func TestFlowDegradesOnInjectedTimeout(t *testing.T) {
	opts := smallOpts(11)
	opts.UseILP = true
	opts.Inject = []solve.Injection{{Tier: "exact", Kind: solve.FaultTimeout}}
	res, err := RunDFTFlowCtx(context.Background(), chip.IVD(), assay.IVD(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Solve.Degraded {
		t.Fatal("injected exact-tier timeout did not mark the result Degraded")
	}
	if res.Solve.Name != "heuristic" {
		t.Fatalf("configuration came from tier %q, want the heuristic fallback", res.Solve.Name)
	}
	if res.Interrupted {
		t.Fatal("uncancelled flow marked Interrupted")
	}
	if !res.CoverageFull {
		t.Fatal("heuristic fallback on IVD should still reach full coverage")
	}
	if len(res.Solve.Attempts) < 2 {
		t.Fatalf("Attempts = %+v, want the failed exact try recorded", res.Solve.Attempts)
	}
	first := res.Solve.Attempts[0]
	if first.Name != "exact" || first.Reason != solve.ReasonTimeout || first.Injected != solve.FaultTimeout {
		t.Fatalf("first attempt = %+v, want an injected exact-tier timeout", first)
	}
}

func TestFlowDegradesToRepairOnDoubleFault(t *testing.T) {
	opts := smallOpts(12)
	opts.UseILP = true
	opts.Inject = []solve.Injection{
		{Tier: "exact", Kind: solve.FaultPanic},
		{Tier: "heuristic", Kind: solve.FaultInfeasible},
	}
	res, err := RunDFTFlowCtx(context.Background(), chip.IVD(), assay.IVD(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solve.Name != "repair" {
		t.Fatalf("configuration came from tier %q, want repair after panic+infeasible", res.Solve.Name)
	}
	if res.Solve.Attempts[0].Reason != solve.ReasonPanic {
		t.Fatalf("exact attempt reason = %q, want panic", res.Solve.Attempts[0].Reason)
	}
	if res.Solve.Attempts[1].Reason != solve.ReasonInfeasible {
		t.Fatalf("heuristic attempt reason = %q, want infeasible", res.Solve.Attempts[1].Reason)
	}
	if res.NumTestVectors == 0 {
		t.Fatal("repair tier produced no test vectors on IVD")
	}
}

func TestFlowCleanRunNotDegraded(t *testing.T) {
	res, err := RunDFTFlowCtx(context.Background(), chip.IVD(), assay.IVD(), smallOpts(13))
	if err != nil {
		t.Fatal(err)
	}
	if res.Solve.Degraded || res.Interrupted || !res.CoverageFull {
		t.Fatalf("clean run reported degraded=%v interrupted=%v full=%v",
			res.Solve.Degraded, res.Interrupted, res.CoverageFull)
	}
	if res.Solve.Name != "heuristic" {
		t.Fatalf("default flow tier = %q, want heuristic (UseILP off skips the exact tier)", res.Solve.Name)
	}
}

// An exact-tier flow reports its LP effort as reference-stage counters.
func TestReferenceStageLPCounters(t *testing.T) {
	opts := smallOpts(14)
	opts.UseILP = true
	opts.Workers = 1
	res, err := RunDFTFlowCtx(context.Background(), chip.IVD(), assay.IVD(), opts)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats.Stage(StageReference)
	if st == nil {
		t.Fatal("no reference stage")
	}
	pivots, maxPivots := st.Counter("ilp_lp_pivots"), st.Counter("ilp_lp_max_pivots")
	if maxPivots <= 0 || pivots < maxPivots || pivots < st.Counter("ilp_nodes") {
		t.Fatalf("ilp_lp_pivots=%d ilp_lp_max_pivots=%d ilp_nodes=%d, want a positive maximum within a total of at least one pivot per node",
			pivots, maxPivots, st.Counter("ilp_nodes"))
	}
	if n := st.Counter("ilp_iter_limits") + st.Counter("ilp_bland_trips"); n != 0 {
		t.Fatalf("IVD relaxations hit the iteration limit or Bland's rule %d times, want 0", n)
	}
}
