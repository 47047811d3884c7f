package lp

// baseline.go preserves the seed row-based simplex as a reference
// implementation: a classic two-phase dense simplex where every finite
// upper bound becomes an explicit `y_i <= ub-lb` row and every solve
// allocates a fresh tableau. It is kept (like
// fault.EvaluateCoverageBaseline) so equivalence tests can cross-check the
// bounded-variable engine in bounded.go against the exact seed behaviour,
// and so the seed branch-and-bound (ilp/baseline.go) it backs stays
// measurable with go test -bench.

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// SolveBaseline optimizes the problem with the seed row-based simplex.
// Semantics match Solve; it exists for benchmarks and cross-checking.
func (p *Problem) SolveBaseline(overrides [][2]float64) (Solution, error) {
	return p.SolveBaselineCtx(context.Background(), overrides)
}

// SolveBaselineCtx is SolveBaseline with cooperative cancellation,
// matching SolveCtx's contract. Every call builds a fresh tableau with
// one explicit row per finite upper bound — the allocation and pivot
// cost the production engine avoids.
func (p *Problem) SolveBaselineCtx(ctx context.Context, overrides [][2]float64) (Solution, error) {
	n := len(p.obj)
	if overrides != nil && len(overrides) != n {
		return Solution{}, errors.New("lp: overrides length mismatch")
	}
	lb := make([]float64, n)
	ub := make([]float64, n)
	copy(lb, p.lb)
	copy(ub, p.ub)
	if overrides != nil {
		// Overrides replace bounds wholesale: callers start from
		// DefaultOverrides() and tighten selected variables, so a [0,0]
		// entry means "fix to zero", not "unset".
		for i, b := range overrides {
			lb[i] = b[0]
			ub[i] = b[1]
			if lb[i] > ub[i]+eps {
				return Solution{Status: Infeasible}, nil
			}
			if lb[i] > ub[i] {
				lb[i] = ub[i]
			}
		}
	}
	for _, c := range p.cons {
		for _, t := range c.Terms {
			if t.Var < 0 || t.Var >= n {
				return Solution{}, fmt.Errorf("lp: constraint references variable %d of %d", t.Var, n)
			}
		}
	}
	t := newTableau(p, lb, ub)
	t.ctx = ctx
	sol := t.solve()
	if sol.Status == Canceled {
		return sol, ctx.Err()
	}
	return sol, nil
}

// --- seed simplex tableau ---------------------------------------------------

// tableau implements the classic two-phase dense simplex. Variables are
// shifted by their lower bound; finite upper bounds become explicit rows.
// All constraint rows are normalized to nonnegative RHS; artificials are
// added for >= and = rows.
type tableau struct {
	p        *Problem
	ctx      context.Context
	nOrig    int       // original variable count
	lbShift  []float64 // lb used for shifting
	m        int       // rows
	nTot     int       // total columns (orig + slack/surplus + artificial)
	a        [][]float64
	b        []float64
	basis    []int
	artStart int // first artificial column
	objConst float64
}

func newTableau(p *Problem, lb, ub []float64) *tableau {
	n := len(p.obj)
	t := &tableau{p: p, nOrig: n, lbShift: lb}

	type rowSpec struct {
		coefs []float64
		rel   Rel
		rhs   float64
	}
	var rows []rowSpec

	// Original constraints with variables shifted: x = y + lb.
	for _, c := range p.cons {
		coefs := make([]float64, n)
		rhs := c.RHS
		for _, term := range c.Terms {
			coefs[term.Var] += term.Coef
			rhs -= term.Coef * lb[term.Var]
		}
		rows = append(rows, rowSpec{coefs: coefs, rel: c.Rel, rhs: rhs})
	}
	// Finite upper bounds become y_i <= ub - lb.
	for i := 0; i < n; i++ {
		if math.IsInf(ub[i], 1) {
			continue
		}
		coefs := make([]float64, n)
		coefs[i] = 1
		rows = append(rows, rowSpec{coefs: coefs, rel: LE, rhs: ub[i] - lb[i]})
	}
	// Normalize RHS >= 0.
	for i := range rows {
		if rows[i].rhs < 0 {
			for j := range rows[i].coefs {
				rows[i].coefs[j] = -rows[i].coefs[j]
			}
			rows[i].rhs = -rows[i].rhs
			switch rows[i].rel {
			case LE:
				rows[i].rel = GE
			case GE:
				rows[i].rel = LE
			}
		}
	}
	m := len(rows)
	// Count slack/surplus and artificial columns.
	nSlack := 0
	nArt := 0
	for _, r := range rows {
		switch r.rel {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	t.m = m
	t.artStart = n + nSlack
	t.nTot = n + nSlack + nArt
	t.a = make([][]float64, m)
	t.b = make([]float64, m)
	t.basis = make([]int, m)
	slackCol := n
	artCol := t.artStart
	for i, r := range rows {
		row := make([]float64, t.nTot)
		copy(row, r.coefs)
		t.b[i] = r.rhs
		switch r.rel {
		case LE:
			row[slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		}
		t.a[i] = row
	}
	// Objective constant from shifting.
	for i := 0; i < n; i++ {
		t.objConst += p.obj[i] * lb[i]
	}
	return t
}

// solve runs phase 1 (if artificials exist) then phase 2.
func (t *tableau) solve() Solution {
	nArt := t.nTot - t.artStart
	if nArt > 0 {
		// Phase-1 objective: minimize sum of artificials.
		c := make([]float64, t.nTot)
		for j := t.artStart; j < t.nTot; j++ {
			c[j] = 1
		}
		obj, status := t.optimize(c, true)
		if status == IterLimit || status == Canceled {
			return Solution{Status: status}
		}
		if obj > 1e-6 {
			return Solution{Status: Infeasible}
		}
		t.driveOutArtificials()
	}
	// Phase-2 objective over original variables (in minimize form).
	c := make([]float64, t.nTot)
	sign := 1.0
	if t.p.sense == Maximize {
		sign = -1
	}
	for j := 0; j < t.nOrig; j++ {
		c[j] = sign * t.p.obj[j]
	}
	obj, status := t.optimize(c, false)
	switch status {
	case Unbounded:
		return Solution{Status: Unbounded}
	case IterLimit:
		return Solution{Status: IterLimit}
	case Canceled:
		return Solution{Status: Canceled}
	}
	x := make([]float64, t.nOrig)
	for i, bi := range t.basis {
		if bi < t.nOrig {
			x[bi] = t.b[i]
		}
	}
	for i := range x {
		x[i] += t.lbShift[i]
	}
	objVal := sign*obj + t.objConst
	_ = objVal
	// Recompute objective from x for numerical cleanliness.
	val := 0.0
	for i := 0; i < t.nOrig; i++ {
		val += t.p.obj[i] * x[i]
	}
	return Solution{Status: Optimal, X: x, Obj: val}
}

// optimize minimizes c·x over the current tableau. phase1 forbids original
// artificial columns from re-entering during phase 2 (enforced by caller
// zeroing them). It returns the objective value and status.
//
// The reduced-cost row z is maintained incrementally across pivots (priced
// out once at entry), which keeps each iteration at one O(m·n) pivot
// instead of an additional O(m·n) pricing pass.
func (t *tableau) optimize(c []float64, phase1 bool) (float64, Status) {
	limit := t.nTot
	if !phase1 {
		limit = t.artStart // artificials may not re-enter in phase 2
	}
	// Price out the initial basis: z = c - sum_i c_{B(i)} * row_i.
	z := make([]float64, t.nTot)
	copy(z, c)
	for i, bi := range t.basis {
		cb := c[bi]
		if cb == 0 {
			continue
		}
		row := t.a[i]
		for j := 0; j < t.nTot; j++ {
			if row[j] != 0 {
				z[j] -= cb * row[j]
			}
		}
	}
	basic := make([]bool, t.nTot)
	for _, bi := range t.basis {
		basic[bi] = true
	}
	for iter := 0; iter < iterCap; iter++ {
		if iter&ctxCheckMask == 0 && t.ctx != nil && t.ctx.Err() != nil {
			return 0, Canceled
		}
		useBland := iter > blandTrip
		enter := -1
		best := -eps
		for j := 0; j < limit; j++ {
			if basic[j] {
				continue
			}
			rc := z[j]
			if rc < -eps {
				if useBland {
					enter = j
					break
				}
				if rc < best {
					best = rc
					enter = j
				}
			}
		}
		if enter < 0 {
			obj := 0.0
			for i, bi := range t.basis {
				obj += c[bi] * t.b[i]
			}
			return obj, Optimal
		}
		// Ratio test.
		leave := -1
		var bestRatio float64
		for i := 0; i < t.m; i++ {
			aij := t.a[i][enter]
			if aij > pivotEps {
				ratio := t.b[i] / aij
				if leave < 0 || ratio < bestRatio-eps ||
					(useBland && math.Abs(ratio-bestRatio) <= eps && t.basis[i] < t.basis[leave]) {
					leave = i
					bestRatio = ratio
				}
			}
		}
		if leave < 0 {
			return 0, Unbounded
		}
		basic[t.basis[leave]] = false
		basic[enter] = true
		t.pivot(leave, enter)
		// Eliminate the entering column from the z row using the (now
		// normalized) pivot row.
		factor := z[enter]
		if factor != 0 {
			row := t.a[leave]
			for j := 0; j < t.nTot; j++ {
				if row[j] != 0 {
					z[j] -= factor * row[j]
				}
			}
			z[enter] = 0
		}
	}
	return 0, IterLimit
}

func (t *tableau) isBasic(j int) bool {
	for _, bi := range t.basis {
		if bi == j {
			return true
		}
	}
	return false
}

// pivot performs a Gauss-Jordan pivot on (row, col).
func (t *tableau) pivot(row, col int) {
	piv := t.a[row][col]
	inv := 1 / piv
	for j := 0; j < t.nTot; j++ {
		t.a[row][j] *= inv
	}
	t.b[row] *= inv
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		factor := t.a[i][col]
		if factor == 0 {
			continue
		}
		for j := 0; j < t.nTot; j++ {
			t.a[i][j] -= factor * t.a[row][j]
		}
		t.b[i] -= factor * t.b[row]
		if math.Abs(t.b[i]) < eps {
			t.b[i] = 0
		}
	}
	t.basis[row] = col
}

// driveOutArtificials pivots any artificial variables that remain basic at
// zero level out of the basis after phase 1 (or zeroes their rows when the
// row is redundant).
func (t *tableau) driveOutArtificials() {
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artStart {
			continue
		}
		// Find any non-artificial column with a nonzero coefficient.
		swapped := false
		for j := 0; j < t.artStart; j++ {
			if math.Abs(t.a[i][j]) > pivotEps && !t.isBasic(j) {
				t.pivot(i, j)
				swapped = true
				break
			}
		}
		if !swapped {
			// Redundant row: keep artificial basic at zero; it will not
			// affect phase 2 because its column is excluded from entering
			// and its value is 0.
			t.b[i] = 0
		}
	}
	// Erase artificial columns so they can never carry value again.
	for i := 0; i < t.m; i++ {
		for j := t.artStart; j < t.nTot; j++ {
			if t.basis[i] != j {
				t.a[i][j] = 0
			}
		}
	}
}
