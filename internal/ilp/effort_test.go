package ilp

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/lp"
)

// A relaxation that hits the LP iteration limit leaves its subtree
// unexplored, so the search must report a budget result, never a proof.
func TestIterLimitIsNotAProof(t *testing.T) {
	iterLimit := func(context.Context, [][2]float64, *lp.Tableau) (lp.Solution, error) {
		return lp.Solution{Status: lp.IterLimit, Pivots: 7}, nil
	}
	for _, workers := range []int{1, 3} {
		// The root hits the limit: no incumbent, so Aborted rather than
		// Infeasible.
		m := NewModel(hardKnapsack(12))
		m.relax = iterLimit
		res, err := m.Solve(Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Aborted || res.Stats.IterLimits != 1 || res.Stats.LPPivots != 7 {
			t.Fatalf("workers=%d root limit: status=%v stats=%+v, want aborted with 1 limit hit and 7 pivots",
				workers, res.Status, res.Stats)
		}
	}

	// The last relaxation of an exhausted serial search hits the limit:
	// the incumbent stands, but optimality is unproven.
	full, err := NewModel(hardKnapsack(12)).Solve(Options{Workers: 1})
	if err != nil || full.Status != Optimal {
		t.Fatalf("reference solve: %+v err=%v", full, err)
	}
	m := NewModel(hardKnapsack(12))
	calls := 0
	m.relax = func(ctx context.Context, ov [][2]float64, tab *lp.Tableau) (lp.Solution, error) {
		calls++
		if calls == full.Nodes {
			return iterLimit(ctx, ov, tab)
		}
		return m.P.SolveTab(ctx, ov, tab)
	}
	res, err := m.Solve(Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Feasible || res.Stats.IterLimits != 1 || res.X == nil {
		t.Fatalf("last-node limit: status=%v stats=%+v, want feasible with an incumbent and 1 limit hit", res.Status, res.Stats)
	}
}

// SolveStats sums the LP effort of every relaxation, for any worker count.
func TestSolveStatsLPEffort(t *testing.T) {
	for _, workers := range []int{1, 4} {
		m := NewModel(hardKnapsack(16))
		var pivots, maxPivots, solves atomic.Int64
		m.relax = func(ctx context.Context, ov [][2]float64, tab *lp.Tableau) (lp.Solution, error) {
			sol, err := m.P.SolveTab(ctx, ov, tab)
			solves.Add(1)
			pivots.Add(int64(sol.Pivots))
			for {
				cur := maxPivots.Load()
				if int64(sol.Pivots) <= cur || maxPivots.CompareAndSwap(cur, int64(sol.Pivots)) {
					break
				}
			}
			return sol, err
		}
		res, err := m.Solve(Options{Workers: workers})
		if err != nil || res.Status != Optimal {
			t.Fatalf("workers=%d: %+v err=%v", workers, res, err)
		}
		st := res.Stats
		if int64(res.Nodes) != solves.Load() || int64(st.LPPivots) != pivots.Load() || int64(st.LPMaxPivots) != maxPivots.Load() {
			t.Fatalf("workers=%d: nodes=%d stats=%+v, want %d relaxations, %d pivots, max %d",
				workers, res.Nodes, st, solves.Load(), pivots.Load(), maxPivots.Load())
		}
		if st.LPPivots == 0 || st.BlandTrips != 0 || st.IterLimits != 0 {
			t.Fatalf("workers=%d: stats=%+v, want pivots and no Bland trips or limit hits", workers, st)
		}
	}
}
