package ilp

// baseline.go preserves the seed branch-and-bound exactly as shipped: a
// serial DFS whose nodes copy their fixed-variable lists, rebuild the
// override slice and solve the relaxation with the seed row-based simplex
// (lp.SolveBaselineCtx). BenchmarkSolveBaselinePerNode measures the
// production engine's per-node speedup and allocation reduction against
// this implementation, and equivalence tests cross-check the two searches
// on models with unique optima.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/lp"
)

// SolveBaseline runs the seed serial branch-and-bound. Semantics match
// the seed Solve; it exists for benchmarks and cross-checking.
func (m *Model) SolveBaseline(opts Options) (Result, error) {
	return m.SolveBaselineCtx(context.Background(), opts)
}

// SolveBaselineCtx is SolveBaseline with cooperative cancellation,
// matching the seed SolveCtx contract (cancellation is a budget: nil
// error, incumbent kept). Options.Workers and Options.HasIncumbent are
// ignored — the seed solver is serial and carries the seed's
// IncumbentObj zero-value ambiguity on purpose.
func (m *Model) SolveBaselineCtx(ctx context.Context, opts Options) (Result, error) {
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
	deadline := time.Time{}
	if opts.TimeLimit > 0 {
		deadline = time.Now().Add(opts.TimeLimit)
	}

	sign := 1.0
	if m.P.Sense() == lp.Maximize {
		sign = -1 // compare in minimize space
	}
	bestObj := math.Inf(1)
	var bestX []float64
	if opts.IncumbentX != nil {
		bestObj = sign * opts.IncumbentObj
		bestX = append([]float64(nil), opts.IncumbentX...)
	} else if opts.IncumbentObj != 0 && !math.IsInf(opts.IncumbentObj, 0) {
		bestObj = sign * opts.IncumbentObj
	}

	type node struct {
		fixedVar []int
		fixedVal []float64
	}
	stack := []node{{}}
	res := Result{}

	baseOv := m.P.DefaultOverrides()
	aborted := false
	for len(stack) > 0 {
		if res.Nodes >= maxNodes {
			aborted = true
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			aborted = true
			break
		}
		if ctx.Err() != nil {
			aborted = true
			break
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		res.Nodes++

		ov := make([][2]float64, n)
		copy(ov, baseOv)
		for i, v := range nd.fixedVar {
			ov[v] = [2]float64{nd.fixedVal[i], nd.fixedVal[i]}
		}
		sol, err := m.P.SolveBaselineCtx(ctx, ov)
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
			continue // treat as prune; rare
		}
		relax := sign * sol.Obj
		if relax >= bestObj-1e-9 {
			continue // bound prune
		}
		frac := mostFractional(sol.X)
		if frac < 0 {
			// Integer feasible. Round to exact binaries.
			x := roundBinary(sol.X)
			if opts.Lazy != nil {
				cuts := opts.Lazy(x)
				if len(cuts) > 0 {
					for _, c := range cuts {
						m.P.AddConstraint(c)
					}
					res.LazyCuts += len(cuts)
					// Re-explore this node under the new constraints.
					stack = append(stack, nd)
					continue
				}
			}
			bestObj = relax
			bestX = x
			continue
		}
		// Branch: explore the rounding-nearest child last so DFS visits it
		// first (stack order).
		v := frac
		if sol.X[v] >= 0.5 {
			stack = append(stack, node{append(append([]int(nil), nd.fixedVar...), v), append(append([]float64(nil), nd.fixedVal...), 0)})
			stack = append(stack, node{append(append([]int(nil), nd.fixedVar...), v), append(append([]float64(nil), nd.fixedVal...), 1)})
		} else {
			stack = append(stack, node{append(append([]int(nil), nd.fixedVar...), v), append(append([]float64(nil), nd.fixedVal...), 1)})
			stack = append(stack, node{append(append([]int(nil), nd.fixedVar...), v), append(append([]float64(nil), nd.fixedVal...), 0)})
		}
	}

	exhausted := len(stack) == 0 && !aborted
	if bestX == nil {
		if exhausted {
			res.Status = Infeasible
		} else {
			res.Status = Aborted
		}
		return res, nil
	}
	res.X = bestX
	res.Obj = sign * bestObj
	if exhausted {
		res.Status = Optimal
	} else {
		res.Status = Feasible
	}
	return res, nil
}
