package lp

// bounded.go is the production simplex: a two-phase primal simplex with
// implicit (bounded-variable) upper bounds over a flat, reusable Tableau
// whose iterations touch only nonzeros.
//
// The baseline engine (baseline.go) materializes one `y_i <= ub-lb` row
// per finite upper bound, so on the all-binary DFT models every variable
// adds a row and pivots cost O((m+n)·nTot). Here finite bounds are
// handled by the standard nonbasic-at-lower/nonbasic-at-upper technique
// with a bound-flip ratio test, which keeps only the true constraint
// rows. The scratch is re-populated in place on every solve, so a warm
// Tableau performs no allocations; package ilp keeps one per search and
// re-solves each node from the previous node's basis (warm.go).
//
// Sparse-aware pivots. The matrix stays dense, but per-row and per-column
// bitmaps hold a superset of its nonzeros, so an iteration visits only
// the entering column's nonzero rows and the pivot row's nonzero columns:
// the ratio test, the basic-value updates, the row elimination, the
// reduced-cost update and the value clamp all run over those two lists.
// Every visited entry is still tested != 0 before use, and each entry
// receives the same floating-point operations in the same order as in a
// full sweep of the matrix. Skipping zeros therefore cannot change a
// rounding or a pivot choice; testdata/lp_fixture.txt pins the pivot
// sequence and the solutions bit for bit.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// Tableau is reusable scratch storage for SolveTab and SolveWarm. The
// zero value is ready to use (NewTableau is provided for clarity); a
// Tableau grows to the largest problem it has seen and is then
// allocation-free. After a solve that ends Optimal it keeps its basis,
// which SolveWarm re-solves from. It is not safe for concurrent use.
type Tableau struct {
	m        int // constraint rows
	nOrig    int // original variable count
	nTot     int // total columns (orig + slack/surplus + artificial)
	artStart int // first artificial column

	a []float64 // m×nTot tableau matrix, row-major
	// rowBits (rw words per row) and colBits (cw words per column) have
	// bit (i, j) set whenever a[i][j] != 0. A bit may outlive its entry.
	// Every entry outside them is zero, which lets load clear the matrix
	// through them.
	rowBits, colBits []uint64
	rw, cw           int

	b       []float64 // current value of each row's basic variable
	lo      []float64 // working lower bound per column (shifted space); zero after load
	u       []float64 // working upper bound per column (shifted space)
	z       []float64 // reduced costs
	score   []float64 // pricing score: 0 if basic or fixed, else -z at lower, z at upper
	pricing []uint64  // bit j set unless score[j] <= eps: the columns pricing visits
	cobj    []float64 // current phase objective
	basis   []int     // basic column per row
	basic   []bool    // column-is-basic flags
	atUpper []bool    // nonbasic-at-upper flags
	lb, ub  []float64 // working bounds of the original variables; lb is the loaded shift
	x       []float64 // decoded solution (aliased by Solution.X)
	flip    []bool    // row-negated flags from RHS normalization
	rel     []Rel     // normalized row relations
	rhs     []float64 // normalized row RHS

	// Per-iteration lists: the entering column's nonzero rows and values,
	// in ascending row order, and the pivot row's nonzero columns after
	// normalization, in ascending column order; elim marks the rows a
	// pivot eliminated.
	colRows []int32
	colVals []float64
	rowCols []int32
	elim    []uint64

	pivots, flips int  // effort counters of the current solve
	bland         bool // a phase switched to Bland's rule

	// prob is the problem load built the tableau for; warm reports that
	// the basis, b and z are a dual-feasible state of it (see warm.go).
	prob *Problem
	warm bool
	aged int // warm pivots since the last load
	// drop is the magnitude below which eliminate zeroes an updated
	// entry: 0 on a cold solve, which stays bit for bit, and dropTol on
	// a warm one.
	drop float64

	ctx context.Context
}

// NewTableau returns an empty scratch tableau for SolveTab.
func NewTableau() *Tableau { return &Tableau{} }

// SolveTab is SolveCtx solving into the given scratch tableau instead of
// allocating a fresh one. The returned Solution's X slice aliases the
// scratch and is valid only until the next SolveTab call on the same
// Tableau; callers that keep a solution copy it first. Passing a nil
// tableau allocates one.
func (p *Problem) SolveTab(ctx context.Context, overrides [][2]float64, t *Tableau) (Solution, error) {
	if t == nil {
		t = NewTableau()
	}
	t.warm, t.aged, t.drop = false, 0, 0
	n := len(p.obj)
	if overrides != nil && len(overrides) != n {
		return Solution{}, errors.New("lp: overrides length mismatch")
	}
	t.lb = grow(t.lb, n)
	t.ub = grow(t.ub, n)
	copy(t.lb, p.lb)
	copy(t.ub, p.ub)
	if overrides != nil {
		// Overrides replace bounds wholesale: callers start from
		// DefaultOverrides() and tighten selected variables, so a [0,0]
		// entry means "fix to zero", not "unset".
		for i, b := range overrides {
			t.lb[i] = b[0]
			t.ub[i] = b[1]
			if t.lb[i] > t.ub[i]+eps {
				return Solution{Status: Infeasible}, nil
			}
			if t.lb[i] > t.ub[i] {
				t.lb[i] = t.ub[i]
			}
		}
	}
	for _, c := range p.cons {
		for _, term := range c.Terms {
			if term.Var < 0 || term.Var >= n {
				return Solution{}, fmt.Errorf("lp: constraint references variable %d of %d", term.Var, n)
			}
		}
	}
	t.ctx = ctx
	sol := t.run(p)
	t.warm = sol.Status == Optimal
	if sol.Status == Canceled {
		return sol, ctx.Err()
	}
	return sol, nil
}

// grow returns s resized to n, reallocating only when its capacity is
// short. Reused entries keep their old values.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// setBit marks a[i][j] as possibly nonzero.
func (t *Tableau) setBit(i, j int) {
	t.rowBits[i*t.rw+j>>6] |= 1 << (j & 63)
	t.colBits[j*t.cw+i>>6] |= 1 << (i & 63)
}

// load rebuilds the tableau in place for problem p under the working
// bounds t.lb/t.ub. Variables are shifted by their lower bound (y = x-lb)
// so every column lives in [0, u]; rows are normalized to nonnegative RHS
// with relation flips; slack/surplus columns are added per row and
// artificial columns for >=/= rows. t.lb stays the shift of the loaded
// tableau until the next load.
func (t *Tableau) load(p *Problem) {
	// Zero the previous solve's entries through its own layout, which
	// leaves the whole backing array zero.
	for i := 0; i < t.m; i++ {
		row := t.a[i*t.nTot : (i+1)*t.nTot]
		for w, word := range t.rowBits[i*t.rw : (i+1)*t.rw] {
			for ; word != 0; word &= word - 1 {
				row[w<<6+bits.TrailingZeros64(word)] = 0
			}
		}
	}

	n := len(p.obj)
	m := len(p.cons)
	t.prob = p
	t.nOrig = n
	t.m = m
	t.rhs = grow(t.rhs, m)
	t.rel = grow(t.rel, m)
	t.flip = grow(t.flip, m)
	nSlack, nArt := 0, 0
	for i := range p.cons {
		c := &p.cons[i]
		rhs := c.RHS
		for _, term := range c.Terms {
			rhs -= term.Coef * t.lb[term.Var]
		}
		rel := c.Rel
		flip := rhs < 0
		if flip {
			rhs = -rhs
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		t.rhs[i] = rhs
		t.rel[i] = rel
		t.flip[i] = flip
		switch rel {
		case LE:
			nSlack++
		case GE:
			nSlack++
			nArt++
		case EQ:
			nArt++
		}
	}
	t.artStart = n + nSlack
	t.nTot = t.artStart + nArt

	t.a = grow(t.a, m*t.nTot)
	t.rw = (t.nTot + 63) >> 6
	t.cw = (m + 63) >> 6
	t.rowBits = grow(t.rowBits, m*t.rw)
	t.colBits = grow(t.colBits, t.nTot*t.cw)
	clear(t.rowBits)
	clear(t.colBits)
	t.elim = grow(t.elim, t.cw)
	t.colRows = grow(t.colRows, m)[:0]
	t.colVals = grow(t.colVals, m)[:0]
	t.rowCols = grow(t.rowCols, t.nTot)[:0]
	t.b = grow(t.b, m)
	t.lo = grow(t.lo, t.nTot)
	clear(t.lo)
	t.u = grow(t.u, t.nTot)
	t.basis = grow(t.basis, m)
	t.basic = grow(t.basic, t.nTot)
	t.atUpper = grow(t.atUpper, t.nTot)
	for j := 0; j < n; j++ {
		t.u[j] = t.ub[j] - t.lb[j] // may be +Inf
	}
	for j := n; j < t.nTot; j++ {
		t.u[j] = math.Inf(1)
	}
	clear(t.basic)
	clear(t.atUpper)

	slackCol := n
	artCol := t.artStart
	for i := range p.cons {
		c := &p.cons[i]
		row := t.a[i*t.nTot : (i+1)*t.nTot]
		sign := 1.0
		if t.flip[i] {
			sign = -1
		}
		for _, term := range c.Terms {
			row[term.Var] += sign * term.Coef
			t.setBit(i, term.Var)
		}
		t.b[i] = t.rhs[i]
		switch t.rel[i] {
		case LE:
			row[slackCol] = 1
			t.setBit(i, slackCol)
			t.basis[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			t.setBit(i, slackCol)
			slackCol++
			row[artCol] = 1
			t.setBit(i, artCol)
			t.basis[i] = artCol
			artCol++
		case EQ:
			row[artCol] = 1
			t.setBit(i, artCol)
			t.basis[i] = artCol
			artCol++
		}
		t.basic[t.basis[i]] = true
	}
}

// run solves p and attaches the effort counters to the solution.
func (t *Tableau) run(p *Problem) Solution {
	t.pivots, t.flips, t.bland = 0, 0, false
	sol := t.solve(p)
	sol.Pivots, sol.Flips, sol.Bland = t.pivots, t.flips, t.bland
	return sol
}

// solve executes phase 1 (when artificials exist) then phase 2 and
// decodes the solution.
func (t *Tableau) solve(p *Problem) Solution {
	t.load(p)
	if t.nTot > t.artStart {
		t.cobj = grow(t.cobj, t.nTot)
		for j := 0; j < t.artStart; j++ {
			t.cobj[j] = 0
		}
		for j := t.artStart; j < t.nTot; j++ {
			t.cobj[j] = 1
		}
		obj, status := t.optimize(t.nTot)
		if status == IterLimit || status == Canceled {
			return Solution{Status: status}
		}
		if obj > 1e-6 {
			return Solution{Status: Infeasible}
		}
		t.driveOutArtificials()
	}
	sign := 1.0
	if p.sense == Maximize {
		sign = -1
	}
	t.cobj = grow(t.cobj, t.nTot)
	clear(t.cobj)
	for j := 0; j < t.nOrig; j++ {
		t.cobj[j] = sign * p.obj[j]
	}
	_, status := t.optimize(t.artStart) // artificials may not re-enter
	switch status {
	case Unbounded:
		return Solution{Status: Unbounded}
	case IterLimit:
		return Solution{Status: IterLimit}
	case Canceled:
		return Solution{Status: Canceled}
	}
	return t.decode(p)
}

// decode reads the solution off an optimal tableau: nonbasic columns sit
// at a bound, basic ones carry b, and the shift is added back.
func (t *Tableau) decode(p *Problem) Solution {
	t.x = grow(t.x, t.nOrig)
	for j := 0; j < t.nOrig; j++ {
		v := t.lo[j]
		if !t.basic[j] && t.atUpper[j] {
			v = t.u[j]
		}
		t.x[j] = v
	}
	for i, bi := range t.basis {
		if bi < t.nOrig {
			t.x[bi] = t.b[i]
		}
	}
	val := 0.0
	for j := 0; j < t.nOrig; j++ {
		t.x[j] += t.lb[j]
		val += p.obj[j] * t.x[j]
	}
	return Solution{Status: Optimal, X: t.x, Obj: val}
}

// objValue evaluates the current phase objective: basic columns carry b,
// nonbasic-at-upper columns carry their bound.
func (t *Tableau) objValue() float64 {
	obj := 0.0
	for i, bi := range t.basis {
		obj += t.cobj[bi] * t.b[i]
	}
	for j := 0; j < t.nTot; j++ {
		if !t.basic[j] && t.atUpper[j] && t.cobj[j] != 0 {
			obj += t.cobj[j] * t.u[j]
		}
	}
	return obj
}

// rescore refreshes column j's pricing score from its reduced cost and
// state. A column at its lower bound improves when z < 0, one at its
// upper bound when z > 0; basic and fixed (u <= 0) columns never enter.
func (t *Tableau) rescore(j int) {
	var score float64
	switch {
	case t.basic[j] || t.u[j] <= 0:
	case t.atUpper[j]:
		score = t.z[j]
	default:
		score = -t.z[j]
	}
	t.score[j] = score
	if score <= eps {
		t.pricing[j>>6] &^= 1 << (j & 63)
	} else {
		t.pricing[j>>6] |= 1 << (j & 63)
	}
}

// optimize minimizes t.cobj over the current tableau, with entering
// columns restricted to [0, limit). The reduced-cost row z and the
// pricing scores are maintained incrementally across pivots (priced out
// once at entry); basic-variable values in b are updated directly by each
// step. Bound-flip iterations (an entering column crossing from one
// finite bound to the other without a basis change) are what make
// implicit upper bounds work.
func (t *Tableau) optimize(limit int) (float64, Status) {
	n := t.nTot
	t.z = grow(t.z, n)
	copy(t.z, t.cobj[:n])
	for i, bi := range t.basis {
		cb := t.cobj[bi]
		if cb == 0 {
			continue
		}
		row := t.a[i*n : (i+1)*n]
		for w, word := range t.rowBits[i*t.rw : (i+1)*t.rw] {
			for ; word != 0; word &= word - 1 {
				j := w<<6 + bits.TrailingZeros64(word)
				if aj := row[j]; aj != 0 {
					t.z[j] -= cb * aj
				}
			}
		}
	}
	t.score = grow(t.score, n)
	t.pricing = grow(t.pricing, t.rw)
	clear(t.pricing)
	for j := range t.score {
		t.rescore(j)
	}
	for iter := 0; iter < iterCap; iter++ {
		if iter&ctxCheckMask == 0 && t.ctx != nil && t.ctx.Err() != nil {
			return 0, Canceled
		}
		useBland := iter > blandTrip
		if useBland {
			t.bland = true
		}
		// Entering column: most attractive score (Dantzig), lowest index
		// on ties; Bland's rule (first improving index) after blandTrip
		// iterations to break degenerate cycles.
		enter := -1
		best := eps
	price:
		for w, word := range t.pricing[:(limit+63)>>6] {
			for ; word != 0; word &= word - 1 {
				j := w<<6 + bits.TrailingZeros64(word)
				if j >= limit {
					break price
				}
				if useBland {
					enter = j
					break price
				}
				if score := t.score[j]; score > best {
					best = score
					enter = j
				}
			}
		}
		if enter < 0 {
			return t.objValue(), Optimal
		}
		d := 1.0 // direction of travel for the entering variable
		if t.atUpper[enter] {
			d = -1
		}
		t.gatherColumn(enter)
		// Ratio test: the entering variable moves by step tt, changing row
		// i's basic value at rate -d·a[i][enter]. It is blocked by the
		// first basic variable to hit one of its bounds, or by its own
		// opposite bound (a bound flip).
		rowT := 0.0
		leave := -1
		leaveAtUpper := false
		for k, ae := range t.colVals {
			if ae < pivotEps && ae > -pivotEps {
				continue
			}
			i := int(t.colRows[k])
			rate := -d * ae
			var r float64
			var toUpper bool
			if rate < 0 { // basic value decreases toward 0
				r = t.b[i] / -rate
			} else { // basic value increases toward its upper bound
				ubB := t.u[t.basis[i]]
				if math.IsInf(ubB, 1) {
					continue
				}
				r = (ubB - t.b[i]) / rate
				toUpper = true
			}
			if r < 0 {
				r = 0
			}
			switch {
			case leave < 0:
			case r < rowT-eps:
			case useBland && math.Abs(r-rowT) <= eps && t.basis[i] < t.basis[leave]:
			default:
				continue
			}
			rowT = r
			leave = i
			leaveAtUpper = toUpper
		}
		flipT := t.u[enter]
		if leave < 0 {
			if math.IsInf(flipT, 1) {
				return 0, Unbounded
			}
			t.boundFlip(enter, d, flipT)
			continue
		}
		if flipT < rowT-eps {
			t.boundFlip(enter, d, flipT)
			continue
		}
		t.pivotStep(leave, enter, d, rowT, leaveAtUpper)
	}
	return 0, IterLimit
}

// gatherColumn collects column j's nonzero entries, in ascending row
// order, into colRows/colVals, and drops the bits of entries that are
// zero from the column bitmap.
func (t *Tableau) gatherColumn(j int) {
	n := t.nTot
	t.colRows = t.colRows[:0]
	t.colVals = t.colVals[:0]
	col := t.colBits[j*t.cw : (j+1)*t.cw]
	for w, word := range col {
		for ; word != 0; word &= word - 1 {
			bit := bits.TrailingZeros64(word)
			i := w<<6 + bit
			if v := t.a[i*n+j]; v != 0 {
				t.colRows = append(t.colRows, int32(i))
				t.colVals = append(t.colVals, v)
			} else {
				col[w] &^= 1 << bit
			}
		}
	}
}

// clampRow snaps a basic value in row i that lies just outside its box
// (numerical drift from the manual value updates) back onto it. Only rows
// whose value or basic column changed can need it, so each iteration
// clamps just the rows of its entering column.
func (t *Tableau) clampRow(i int) {
	v := t.b[i]
	if lo := t.lo[t.basis[i]]; v < lo && v > lo-eps {
		t.b[i] = lo
		return
	}
	if ub := t.u[t.basis[i]]; !math.IsInf(ub, 1) && v > ub && v < ub+eps {
		t.b[i] = ub
	}
}

// boundFlip moves the entering column across its full range to the
// opposite bound: basic values shift, but the basis (and hence the matrix
// and reduced costs) is unchanged.
func (t *Tableau) boundFlip(enter int, d, step float64) {
	t.flips++
	for k, ae := range t.colVals {
		i := int(t.colRows[k])
		t.b[i] -= step * d * ae
		t.clampRow(i)
	}
	t.atUpper[enter] = !t.atUpper[enter]
	t.rescore(enter)
}

// pivotStep advances the entering variable by step, retires the blocking
// basic variable to the bound it hit, and performs the Gauss-Jordan pivot
// on the matrix and reduced costs. Basic values are maintained directly,
// so b is not part of the elimination.
func (t *Tableau) pivotStep(leave, enter int, d, step float64, leaveAtUpper bool) {
	t.pivots++
	if step != 0 {
		for k, ae := range t.colVals {
			t.b[t.colRows[k]] -= step * d * ae
		}
	}
	vE := d * step
	if t.atUpper[enter] {
		vE = t.u[enter] + d*step
	} else if lo := t.lo[enter]; lo != 0 {
		vE = lo + d*step
	}
	r := t.basis[leave]
	t.basic[r] = false
	t.atUpper[r] = leaveAtUpper
	t.basic[enter] = true
	t.atUpper[enter] = false
	t.basis[leave] = enter
	t.b[leave] = vE

	t.eliminate(leave, enter)
	row := t.a[leave*t.nTot : (leave+1)*t.nTot]
	if zf := t.z[enter]; zf != 0 {
		for _, j := range t.rowCols {
			t.z[j] -= zf * row[j]
		}
		t.z[enter] = 0
	}
	for _, j := range t.rowCols {
		t.rescore(int(j))
	}
	t.rescore(r)
	for _, i := range t.colRows {
		t.clampRow(int(i))
	}
}

// eliminate performs the Gauss-Jordan update of the matrix for pivot
// (leave, enter), given the entering column's nonzeros in colRows/colVals:
// it scales the pivot row, leaving its nonzero columns in rowCols, and
// subtracts it from every other row with a nonzero in the entering
// column. The bitmaps follow: the pivot row's bitmap is rebuilt exactly,
// every eliminated row gains the pivot row's columns, those columns gain
// the eliminated rows, and the entering column becomes the unit column of
// row leave.
func (t *Tableau) eliminate(leave, enter int) {
	n := t.nTot
	row := t.a[leave*n : (leave+1)*n]
	rowBits := t.rowBits[leave*t.rw : (leave+1)*t.rw]
	inv := 1 / row[enter]
	t.rowCols = t.rowCols[:0]
	for w, word := range rowBits {
		for ; word != 0; word &= word - 1 {
			bit := bits.TrailingZeros64(word)
			j := w<<6 + bit
			rj := row[j]
			if rj != 0 {
				rj *= inv
			}
			if rj != 0 {
				row[j] = rj
				t.rowCols = append(t.rowCols, int32(j))
			} else {
				row[j] = 0
				rowBits[w] &^= 1 << bit
			}
		}
	}
	row[enter] = 1

	clear(t.elim)
	for k, f := range t.colVals {
		i := int(t.colRows[k])
		if i == leave {
			continue
		}
		ri := t.a[i*n : (i+1)*n]
		if drop := t.drop; drop == 0 {
			for _, j := range t.rowCols {
				ri[j] -= f * row[j]
			}
		} else {
			for _, j := range t.rowCols {
				v := ri[j] - f*row[j]
				if v < drop && v > -drop {
					v = 0
				}
				ri[j] = v
			}
		}
		ri[enter] = 0
		dst := t.rowBits[i*t.rw : (i+1)*t.rw]
		for w, word := range rowBits {
			dst[w] |= word
		}
		dst[enter>>6] &^= 1 << (enter & 63)
		t.elim[i>>6] |= 1 << (i & 63)
	}
	for _, j := range t.rowCols {
		dst := t.colBits[int(j)*t.cw : (int(j)+1)*t.cw]
		for w, word := range t.elim {
			dst[w] |= word
		}
	}
	col := t.colBits[enter*t.cw : (enter+1)*t.cw]
	clear(col)
	col[leave>>6] = 1 << (leave & 63)
}

// driveOutArtificials exchanges any artificial variable still basic at
// zero level after phase 1 for a structural column (a degenerate t=0
// pivot: no variable changes value), then erases the artificial columns
// so they can never carry value again. Redundant rows keep their
// artificial basic at zero.
func (t *Tableau) driveOutArtificials() {
	n := t.nTot
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.artStart {
			continue
		}
		if j := t.firstExchangeable(i); j >= 0 {
			t.exchangeAtBound(i, j)
		} else {
			t.b[i] = 0
		}
	}
	for j := t.artStart; j < n; j++ {
		col := t.colBits[j*t.cw : (j+1)*t.cw]
		for w, word := range col {
			for ; word != 0; word &= word - 1 {
				bit := bits.TrailingZeros64(word)
				i := w<<6 + bit
				if t.basis[i] != j {
					t.a[i*n+j] = 0
					col[w] &^= 1 << bit
					t.rowBits[i*t.rw+j>>6] &^= 1 << (j & 63)
				}
			}
		}
	}
}

// firstExchangeable returns the lowest nonbasic non-artificial column
// with a usable pivot in row i, or -1.
func (t *Tableau) firstExchangeable(i int) int {
	row := t.a[i*t.nTot : (i+1)*t.nTot]
	for w, word := range t.rowBits[i*t.rw : (i+1)*t.rw] {
		for ; word != 0; word &= word - 1 {
			j := w<<6 + bits.TrailingZeros64(word)
			if j >= t.artStart {
				return -1
			}
			if v := row[j]; !t.basic[j] && (v > pivotEps || v < -pivotEps) {
				return j
			}
		}
	}
	return -1
}

// exchangeAtBound makes nonbasic column j basic in row i without moving
// any variable: the leaving artificial sits at 0 and j enters at its
// current bound value. Only the matrix needs the Gauss-Jordan update.
func (t *Tableau) exchangeAtBound(i, j int) {
	r := t.basis[i]
	t.basic[r] = false
	t.atUpper[r] = false
	vE := 0.0
	if t.atUpper[j] {
		vE = t.u[j]
	}
	t.basic[j] = true
	t.atUpper[j] = false
	t.basis[i] = j
	t.b[i] = vE
	t.gatherColumn(j)
	t.eliminate(i, j)
}
