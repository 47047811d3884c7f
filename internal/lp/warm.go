package lp

// warm.go re-solves a problem from the basis its Tableau kept, with a
// bounded dual simplex (A. Koberstein, "The dual simplex method,
// techniques for a fast and stable implementation", PhD thesis,
// Paderborn, 2005). Branch-and-bound nodes differ only in variable
// bounds, and bound changes leave the reduced costs alone, so the last
// optimal basis stays dual feasible once every nonbasic boxed column sits
// at the bound its reduced-cost sign asks for. The dual simplex then
// restores primal feasibility; no phase 1 runs.
//
// The tableau stays in the shifted space of the cold solve that loaded it
// (t.lb is the shift), so a column's bounds there are [lo, u] with lo not
// always zero: a column loaded at 0 and now fixed to 1 has lo = u = 1.

import (
	"context"
	"math"
	"math/bits"
)

const (
	// feasTol is the bound violation the dual simplex leaves alone.
	feasTol = 1e-9
	// dropTol is the magnitude below which a warm pivot zeroes an updated
	// matrix entry: round-off that should cancel to zero would otherwise
	// fill a long-lived tableau and make every later pivot dense.
	dropTol = 1e-10
	// refreshPivots is how many warm pivots a tableau takes before
	// SolveWarm reloads it with a cold solve, which clears the round-off
	// every pivot on the same matrix adds.
	refreshPivots = 1000
)

// SolveWarm is SolveTab re-solving p from the basis t kept from its last
// solve of p. Overrides replace the variable bounds exactly as in
// SolveTab. It falls back to a cold SolveTab when t holds no warm basis
// of p (no solve yet, another problem, a solve that did not end Optimal
// or Infeasible), when rows were added since, when the overrides are
// malformed or a nonbasic column needs an infinite bound, and every
// refreshPivots warm pivots. A dual simplex that takes more pivots than p
// has rows and columns is stalling; it is abandoned for a cold solve,
// whose Solution counts both. A warm re-solve performs no allocations and
// may end at another optimal vertex than a cold solve on degenerate
// optima; status and objective agree.
func (p *Problem) SolveWarm(ctx context.Context, overrides [][2]float64, t *Tableau) (Solution, error) {
	if t == nil || !t.warm || t.prob != p || t.m != len(p.cons) || t.nOrig != len(p.obj) ||
		t.aged > refreshPivots || !t.setBounds(p, overrides) {
		return p.SolveTab(ctx, overrides, t)
	}
	t.ctx = ctx
	t.drop = dropTol
	t.pivots, t.flips, t.bland = 0, 0, false
	status := t.dual(min(iterCap, t.m+t.nOrig))
	t.aged += t.pivots
	if status == IterLimit {
		pivots := t.pivots
		sol, err := p.SolveTab(ctx, overrides, t)
		sol.Pivots += pivots
		return sol, err
	}
	t.warm = status == Optimal || status == Infeasible
	sol := Solution{Status: status}
	if status == Optimal {
		sol = t.decode(p)
	}
	sol.Pivots = t.pivots
	if status == Canceled {
		return sol, ctx.Err()
	}
	return sol, nil
}

// setBounds installs the node's bounds in the warm tableau's shifted
// space. A basic column only takes its new bounds. A nonbasic column goes
// to its lower bound if its reduced cost is positive or it is fixed, to
// its upper bound if the reduced cost is negative, and otherwise stays on
// its side; the basic values follow its move. It reports false, for a
// cold solve to handle, on malformed overrides or a column that needs an
// infinite upper bound.
func (t *Tableau) setBounds(p *Problem, overrides [][2]float64) bool {
	if overrides != nil && len(overrides) != t.nOrig {
		return false
	}
	for j := 0; j < t.nOrig; j++ {
		lb, ub := p.lb[j], p.ub[j]
		if overrides != nil {
			lb, ub = overrides[j][0], overrides[j][1]
			if lb > ub+eps {
				return false
			}
			lb = min(lb, ub)
		}
		lo, u := lb-t.lb[j], ub-t.lb[j]
		if t.basic[j] {
			t.lo[j], t.u[j] = lo, u
			continue
		}
		old := t.lo[j]
		if t.atUpper[j] {
			old = t.u[j]
		}
		upper := t.atUpper[j]
		switch z := t.z[j]; {
		case u <= lo, z > eps:
			upper = false
		case z < -eps:
			if math.IsInf(u, 1) {
				return false
			}
			upper = true
		case math.IsInf(u, 1):
			upper = false
		}
		t.lo[j], t.u[j], t.atUpper[j] = lo, u, upper
		v := lo
		if upper {
			v = u
		}
		if delta := v - old; delta != 0 {
			t.gatherColumn(j)
			for k, a := range t.colVals {
				t.b[t.colRows[k]] -= a * delta
			}
		}
	}
	return true
}

// dual runs the bounded dual simplex from a dual-feasible basis until the
// basic values are inside their boxes (Optimal), a violated row has no
// column that can repair it (Infeasible), limit iterations have passed
// (IterLimit) or the context expires.
func (t *Tableau) dual(limit int) Status {
	n := t.nTot
	for iter := 0; iter < limit; iter++ {
		if iter&ctxCheckMask == 0 && t.ctx != nil && t.ctx.Err() != nil {
			return Canceled
		}
		// Leaving row: the largest bound violation, lowest row on ties.
		leave := -1
		worst := feasTol
		toUpper := false
		for i, k := range t.basis {
			if v := t.lo[k] - t.b[i]; v > worst {
				leave, worst, toUpper = i, v, false
			} else if v := t.b[i] - t.u[k]; v > worst {
				leave, worst, toUpper = i, v, true
			}
		}
		if leave < 0 {
			return Optimal
		}
		// Entering column: the row's value must rise to lo (toUpper
		// false) or fall to u, and moves by -a_j per unit of column j; a
		// column at its lower bound can only increase, one at its upper
		// bound only decrease. Among the columns that move it the right
		// way, the minimum |z_j / a_j| keeps every reduced cost dual
		// feasible; ties go to the larger |a_j|, then the lower index.
		row := t.a[leave*n : (leave+1)*n]
		enter := -1
		bestRatio, bestAbs := math.Inf(1), 0.0
	price:
		for w, word := range t.rowBits[leave*t.rw : (leave+1)*t.rw] {
			for ; word != 0; word &= word - 1 {
				j := w<<6 + bits.TrailingZeros64(word)
				if j >= t.artStart {
					break price
				}
				a := row[j]
				if t.basic[j] || t.u[j] <= t.lo[j] || (a < pivotEps && a > -pivotEps) {
					continue
				}
				dz := t.z[j] // dual slack: z at lower, -z at upper
				if t.atUpper[j] {
					a, dz = -a, -dz
				}
				if (a < 0) == toUpper {
					continue
				}
				abs := math.Abs(a)
				ratio := max(dz, 0) / abs
				if ratio < bestRatio || (ratio == bestRatio && abs > bestAbs) {
					enter, bestRatio, bestAbs = j, ratio, abs
				}
			}
		}
		if enter < 0 {
			return Infeasible
		}
		target := t.lo[t.basis[leave]]
		if toUpper {
			target = t.u[t.basis[leave]]
		}
		d := 1.0
		if t.atUpper[enter] {
			d = -1
		}
		t.gatherColumn(enter)
		t.pivotStep(leave, enter, d, d*(t.b[leave]-target)/row[enter], toUpper)
	}
	return IterLimit
}
