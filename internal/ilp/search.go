package ilp

// search.go is the production branch-and-bound engine: one depth-first
// loop over a slice stack. A stack entry is one branch decision; the
// current node's fixings are a trail of variables, unwound to the popped
// entry's depth in one overrides buffer, so a node allocates only its
// share of stack growth. One lp.Tableau carries the search: the root and
// every node after lazy cuts added rows are solved cold (lp.SolveTab),
// every other node warm from the previous basis (lp.SolveWarm).
//
// Determinism: the relaxations, the branching rule and the stack order
// are functions of the model, so the tree, its counts and the result are
// too. A node is pruned only when its relaxation is strictly worse than
// the incumbent, and among equal-objective incumbents the
// lexicographically smallest rounded solution wins, so an exhausted
// search returns the same (Status, X, Obj) whatever order it visits the
// optimal leaves in: warm starts change the tree, not the answer.

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/lp"
)

// branch is one stack entry: variable v fixed to val on top of the first
// depth fixings of the trail. The root has v = -1, depth 0.
type branch struct {
	v, depth int32
	val      int8
}

// SolveCtx is Solve with cooperative cancellation. The context is checked
// at every branch-and-bound node (and inside each LP relaxation); when it
// expires the search stops within one node and returns the incumbent with
// Status Feasible, or Aborted when no incumbent exists yet. Cancellation is
// treated exactly like an expired node/time budget — the error is nil and
// the Result reports how far the search got.
func (m *Model) SolveCtx(ctx context.Context, opts Options) (Result, error) {
	n := m.P.NumVars()
	for i := 0; i < n; i++ {
		lb, ub := m.P.Bounds(i)
		if lb < -intTol || ub > 1+intTol {
			return Result{}, fmt.Errorf("ilp: variable %d has non-binary bounds [%g,%g]", i, lb, ub)
		}
	}
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	sign := 1.0
	if m.P.Sense() == lp.Maximize {
		sign = -1 // compare in minimize space
	}
	relax := m.relax
	if relax == nil {
		relax = m.P.SolveWarm
	}
	tab := lp.NewTableau()
	base := m.P.DefaultOverrides()
	ov := m.P.DefaultOverrides()
	var trail []int32 // fixed variables of the current node, root first
	stack := []branch{{v: -1}}
	bestObj := math.Inf(1)
	var bestX []float64
	var res Result
	st := &res.Stats
	aborted := false

	for len(stack) > 0 {
		if ctx.Err() != nil || res.Nodes >= maxNodes {
			aborted = true
			break
		}
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		res.Nodes++

		for int32(len(trail)) > b.depth {
			v := trail[len(trail)-1]
			ov[v] = base[v]
			trail = trail[:len(trail)-1]
		}
		if b.v >= 0 {
			ov[b.v] = [2]float64{float64(b.val), float64(b.val)}
			trail = append(trail, b.v)
		}

		sol, err := relax(ctx, ov, tab)
		st.LPPivots += sol.Pivots
		st.LPMaxPivots = max(st.LPMaxPivots, sol.Pivots)
		if sol.Bland {
			st.BlandTrips++
		}
		if err != nil {
			if sol.Status == lp.Canceled {
				// Context expired mid-relaxation: stop the search and keep
				// the incumbent, like any other expired budget.
				aborted = true
				break
			}
			return res, err
		}
		switch sol.Status {
		case lp.Infeasible:
			continue
		case lp.Unbounded:
			return res, errors.New("ilp: LP relaxation unbounded (binary model should be bounded)")
		case lp.IterLimit:
			st.IterLimits++
			continue // subtree skipped: counted, and reported as a budget result
		}
		obj := sign * sol.Obj
		if obj > bestObj+1e-9 {
			continue // bound prune (strict: equal-bound subtrees stay open)
		}
		frac := mostFractional(sol.X)
		if frac < 0 {
			// Integer feasible. Round to exact binaries (sol.X aliases the
			// tableau, so the candidate is copied out here).
			x := roundBinary(sol.X)
			if opts.Lazy != nil {
				if cuts := opts.Lazy(x); len(cuts) > 0 {
					for _, c := range cuts {
						m.P.AddConstraint(c)
					}
					res.LazyCuts += len(cuts)
					st.Requeued++
					// Re-explore this node under the new constraints; the
					// row count changed, so its relaxation is solved cold.
					stack = append(stack, b)
					continue
				}
			}
			if obj < bestObj-1e-9 || lexLess(x, bestX) {
				bestObj = min(bestObj, obj)
				bestX = x
			}
			continue
		}
		// Branch: push the rounding-nearest child last so the stack
		// explores it first (the seed's DFS order).
		v, d := int32(frac), int32(len(trail))
		if sol.X[frac] >= 0.5 {
			stack = append(stack, branch{v, d, 0}, branch{v, d, 1})
		} else {
			stack = append(stack, branch{v, d, 1}, branch{v, d, 0})
		}
	}

	// A relaxation that hit its iteration limit left a subtree unexplored:
	// the search is then budget-truncated, not a proof.
	exhausted := !aborted && st.IterLimits == 0
	switch {
	case bestX == nil && exhausted:
		res.Status = Infeasible
	case bestX == nil:
		res.Status = Aborted
	case exhausted:
		res.Status = Optimal
	default:
		res.Status = Feasible
	}
	if bestX != nil {
		res.X = bestX
		res.Obj = sign * bestObj
	}
	return res, nil
}

// lexLess reports whether rounded solution a precedes b lexicographically.
func lexLess(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
