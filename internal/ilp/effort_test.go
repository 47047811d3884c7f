package ilp

import (
	"context"
	"testing"

	"repro/internal/lp"
)

// A relaxation that hits the LP iteration limit leaves its subtree
// unexplored, so the search must report a budget result, never a proof.
func TestIterLimitIsNotAProof(t *testing.T) {
	iterLimit := func(context.Context, [][2]float64, *lp.Tableau) (lp.Solution, error) {
		return lp.Solution{Status: lp.IterLimit, Pivots: 7}, nil
	}
	// The root hits the limit: no incumbent, so Aborted rather than
	// Infeasible.
	m := NewModel(hardKnapsack(12))
	m.relax = iterLimit
	res, err := m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Aborted || res.Stats.IterLimits != 1 || res.Stats.LPPivots != 7 {
		t.Fatalf("root limit: status=%v stats=%+v, want aborted with 1 limit hit and 7 pivots", res.Status, res.Stats)
	}

	// The last relaxation of an exhausted search hits the limit: the
	// incumbent stands, but optimality is unproven.
	full, err := NewModel(hardKnapsack(12)).Solve(Options{})
	if err != nil || full.Status != Optimal {
		t.Fatalf("reference solve: %+v err=%v", full, err)
	}
	m = NewModel(hardKnapsack(12))
	calls := 0
	m.relax = func(ctx context.Context, ov [][2]float64, tab *lp.Tableau) (lp.Solution, error) {
		calls++
		if calls == full.Nodes {
			return iterLimit(ctx, ov, tab)
		}
		return m.P.SolveWarm(ctx, ov, tab)
	}
	res, err = m.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Feasible || res.Stats.IterLimits != 1 || res.X == nil {
		t.Fatalf("last-node limit: status=%v stats=%+v, want feasible with an incumbent and 1 limit hit", res.Status, res.Stats)
	}
}

// SolveStats sums the LP effort of every relaxation.
func TestSolveStatsLPEffort(t *testing.T) {
	m := NewModel(hardKnapsack(16))
	var pivots, maxPivots, solves int
	m.relax = func(ctx context.Context, ov [][2]float64, tab *lp.Tableau) (lp.Solution, error) {
		sol, err := m.P.SolveWarm(ctx, ov, tab)
		solves++
		pivots += sol.Pivots
		maxPivots = max(maxPivots, sol.Pivots)
		return sol, err
	}
	res, err := m.Solve(Options{})
	if err != nil || res.Status != Optimal {
		t.Fatalf("%+v err=%v", res, err)
	}
	st := res.Stats
	if res.Nodes != solves || st.LPPivots != pivots || st.LPMaxPivots != maxPivots {
		t.Fatalf("nodes=%d stats=%+v, want %d relaxations, %d pivots, max %d", res.Nodes, st, solves, pivots, maxPivots)
	}
	if st.LPPivots == 0 || st.BlandTrips != 0 || st.IterLimits != 0 {
		t.Fatalf("stats=%+v, want pivots and no Bland trips or limit hits", st)
	}
}
