package pressure

// engine.go is the production pressure solver: a per-rig Engine that
// caches the sparse LDLᵀ factorization of the grounded Laplacian and
// serves repeated solves from reusable Solvers.
//
// The campaign-defining observation is that consecutive test vectors
// differ in only a few valve states (a leakage sweep flips one valve per
// solve; neighbouring cut vectors share most of their closed set). A
// valve flip is a symmetric rank-1 change of the Laplacian —
// Δg·(e_x−e_y)(e_x−e_y)ᵀ with terminal coordinates folded away — so a
// Solver keeps the factorization of the last refactored state and
// answers nearby states with a Sherman–Morrison–Woodbury correction:
//
//	(A + U C Uᵀ)⁻¹ b = z − W (C⁻¹ + Uᵀ W)⁻¹ (Uᵀ z),
//	z = A⁻¹ b,  W = A⁻¹ U,
//
// at the cost of k+1 triangular-solve pairs plus a k×k dense solve,
// where k (the number of flipped valves vs the factored state) is capped
// by the rank budget. Past the budget — or when a flip changes which
// nodes are reachable from a terminal, which changes the identity-row
// mask and would invalidate the update — the Solver falls back to a full
// refactorization. Both paths reuse preallocated scratch, so steady-state
// solves allocate nothing.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/chip"
)

// DefaultRankBudget caps how many valve-state flips (relative to the
// cached factorization) a warm update absorbs before the solver
// refactorizes.
const DefaultRankBudget = 8

// EngineOptions tunes an Engine.
type EngineOptions struct {
	// RankBudget is the maximum SMW update rank (0 = DefaultRankBudget;
	// negative disables warm updates entirely, forcing a refactorization
	// per state change — the "sparse-cold" reference of
	// cmd/bench -mode pressure).
	RankBudget int
}

// EngineStats is a snapshot of an Engine's solve counters.
type EngineStats struct {
	// Solves is the total number of Solver.Solve calls.
	Solves int64
	// Cold counts full numeric refactorizations (including every solver's
	// first solve).
	Cold int64
	// Warm counts solves answered from the cached factorization via a
	// low-rank update (rank 0 = right-hand-side-only re-solve).
	Warm int64
	// RankUpdates is the total rank across all warm solves.
	RankUpdates int64
	// FallbackRank counts cold solves forced by the rank budget,
	// FallbackReach those forced by a terminal-reachability change, and
	// FallbackNumeric those forced by an ill-conditioned update system.
	FallbackRank    int64
	FallbackReach   int64
	FallbackNumeric int64
}

// Add returns the per-field sum of two snapshots.
func (s EngineStats) Add(o EngineStats) EngineStats {
	s.Solves += o.Solves
	s.Cold += o.Cold
	s.Warm += o.Warm
	s.RankUpdates += o.RankUpdates
	s.FallbackRank += o.FallbackRank
	s.FallbackReach += o.FallbackReach
	s.FallbackNumeric += o.FallbackNumeric
	return s
}

type engineCounters struct {
	solves, cold, warm, rankUpdates              atomic.Int64
	fallbackRank, fallbackReach, fallbackNumeric atomic.Int64
}

// Engine solves the node-pressure system of one test rig — a (chip,
// source node, meter node) triple — with a cached sparse factorization.
// An Engine is safe for concurrent use; Solvers drawn from it are not.
type Engine struct {
	sys        *system
	rankBudget int
	counters   engineCounters

	// idle holds the solvers not in use, the most recently returned last.
	// Unlike a sync.Pool it never drops a solver or hides it on another
	// P, so whether a solve starts warm, and with it every counter, is a
	// function of the call sequence alone.
	mu   sync.Mutex
	idle []*Solver
}

// NewEngine analyzes the rig (unknown indexing, fill-reducing elimination
// order, symbolic factorization) once; every Solver shares the analysis.
func NewEngine(c *chip.Chip, sourceNode, meterNode int, opts EngineOptions) (*Engine, error) {
	sys, err := newSystem(c, sourceNode, meterNode)
	if err != nil {
		return nil, err
	}
	budget := opts.RankBudget
	switch {
	case budget == 0:
		budget = DefaultRankBudget
	case budget < 0:
		budget = 0 // warm updates disabled
	}
	return &Engine{sys: sys, rankBudget: budget}, nil
}

// Unknowns returns the size of the solved system (channel nodes minus the
// two terminals).
func (e *Engine) Unknowns() int { return e.sys.m }

// Stats returns a snapshot of the engine's solve counters, aggregated
// over all its solvers.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Solves:          e.counters.solves.Load(),
		Cold:            e.counters.cold.Load(),
		Warm:            e.counters.warm.Load(),
		RankUpdates:     e.counters.rankUpdates.Load(),
		FallbackRank:    e.counters.fallbackRank.Load(),
		FallbackReach:   e.counters.fallbackReach.Load(),
		FallbackNumeric: e.counters.fallbackNumeric.Load(),
	}
}

// Solve answers one conductance state. It draws an idle Solver (reusing
// whatever factorization it cached) and copies the pressures out, so the
// Result remains valid indefinitely; hot loops that can tolerate the
// aliasing contract should use a dedicated Solver instead.
func (e *Engine) Solve(conductance []float64) (Result, error) {
	s := e.getSolver()
	res, err := s.Solve(conductance)
	if err == nil {
		res.NodePressure = append([]float64(nil), res.NodePressure...)
	}
	e.putSolver(s)
	return res, err
}

// EvaluateAll solves every conductance vector in order on one solver, so
// each state warm-updates from the one before it, and returns the meter
// flow of each. Flow decisions against any Params threshold match the
// dense baseline.
func (e *Engine) EvaluateAll(ctx context.Context, vectors [][]float64) ([]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s := e.getSolver()
	defer e.putSolver(s)
	flows := make([]float64, len(vectors))
	for i, cond := range vectors {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := s.Solve(cond)
		if err != nil {
			return nil, fmt.Errorf("pressure: vector %d: %w", i, err)
		}
		flows[i] = res.MeterFlow
	}
	return flows, nil
}

// NewSolver returns a fresh dedicated solver for hot loops. Most callers
// should let Engine.Solve / EvaluateAll manage the engine's solvers
// instead.
func (e *Engine) NewSolver() *Solver { return newSolver(e) }

func (e *Engine) getSolver() *Solver {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.idle); n > 0 {
		s := e.idle[n-1]
		e.idle = e.idle[:n-1]
		return s
	}
	return newSolver(e)
}

func (e *Engine) putSolver(s *Solver) {
	e.mu.Lock()
	e.idle = append(e.idle, s)
	e.mu.Unlock()
}

// Solver answers pressure solves for one rig, caching the numeric
// factorization of the last refactored conductance state and applying
// Sherman–Morrison–Woodbury updates for nearby states. A Solver must not
// be shared between goroutines; steady-state Solve calls allocate
// nothing.
type Solver struct {
	eng *Engine
	sys *system

	factored      bool
	factoredCond  []float64 // conductance state of the cached factorization
	factoredReach []bool    // terminal reachability of that state

	// Numeric factorization (permuted space).
	Ax []float64
	Li []int32
	Lx []float64
	D  []float64

	// Factorization workspaces.
	y       []float64
	pattern []int32
	flag    []int32
	lnzWork []int32

	// Reachability scratch (epoch-marked BFS over unknowns).
	seen  []int32
	epoch int32
	queue []int32

	// Per-solve scratch.
	x       []float64 // permuted solution
	b       []float64
	changed []int32   // valves flipped vs the factored state
	upA     []int32   // update endpoint A (permuted index, -1 = dropped)
	upB     []int32   // update endpoint B
	delta   []float64 // conductance deltas
	w       []float64 // m x rank update solves, column-major
	small   []float64 // rank x rank capacitance system
	rhs2    []float64
	press   []float64 // node pressures (aliased into Results)
}

func newSolver(e *Engine) *Solver {
	sys := e.sys
	m := sys.m
	budget := e.rankBudget
	return &Solver{
		eng:           e,
		sys:           sys,
		factoredCond:  make([]float64, sys.c.NumValves()),
		factoredReach: make([]bool, m),
		Ax:            make([]float64, len(sys.Ai)),
		Li:            make([]int32, sys.lnz),
		Lx:            make([]float64, sys.lnz),
		D:             make([]float64, m),
		y:             make([]float64, m),
		pattern:       make([]int32, m),
		flag:          make([]int32, m),
		lnzWork:       make([]int32, m),
		seen:          make([]int32, m),
		queue:         make([]int32, 0, m),
		x:             make([]float64, m),
		b:             make([]float64, m),
		changed:       make([]int32, 0, budget+1),
		upA:           make([]int32, 0, budget),
		upB:           make([]int32, 0, budget),
		delta:         make([]float64, 0, budget),
		w:             make([]float64, m*budget),
		small:         make([]float64, budget*budget),
		rhs2:          make([]float64, budget),
		press:         make([]float64, sys.c.Grid.NumNodes()),
	}
}

// Solve computes the steady-state pressures and meter flow for one
// conductance state (indexed by valve ID; 0 = fully closed).
//
// The returned Result's NodePressure aliases solver-owned scratch: it is
// valid until the next Solve call on this solver. Copy it for retention;
// Engine.Solve does so automatically.
func (s *Solver) Solve(conductance []float64) (Result, error) {
	sys := s.sys
	if len(conductance) != sys.c.NumValves() {
		return Result{}, fmt.Errorf("pressure: %d conductances for %d valves", len(conductance), sys.c.NumValves())
	}
	s.eng.counters.solves.Add(1)
	s.computeReach(conductance)

	warm := false
	rank := 0
	if s.factored && s.eng.rankBudget > 0 {
		if k, ok := s.diffWithinBudget(conductance); !ok {
			s.eng.counters.fallbackRank.Add(1)
		} else if !s.reachMatchesFactored() {
			s.eng.counters.fallbackReach.Add(1)
		} else {
			warm, rank = true, k
		}
	}
	if warm {
		if err := s.solveWarm(conductance, rank); err == nil {
			s.eng.counters.warm.Add(1)
			s.eng.counters.rankUpdates.Add(int64(rank))
			return s.result(conductance), nil
		} else if err != errIllConditionedUpdate {
			return Result{}, err
		}
		// Ill-conditioned capacitance system: refactorize instead.
		s.eng.counters.fallbackNumeric.Add(1)
	}
	if err := s.solveCold(conductance); err != nil {
		return Result{}, err
	}
	s.eng.counters.cold.Add(1)
	return s.result(conductance), nil
}

// computeReach BFS-marks (epoch) every unknown reachable from a terminal
// over conducting edges.
func (s *Solver) computeReach(cond []float64) {
	sys := s.sys
	s.epoch++
	epoch := s.epoch
	q := s.queue[:0]
	for _, roots := range [2][]adjEntry{sys.srcAdj, sys.mtrAdj} {
		for _, e := range roots {
			if cond[e.valve] > 0 && s.seen[e.to] != epoch {
				s.seen[e.to] = epoch
				q = append(q, e.to)
			}
		}
	}
	for head := 0; head < len(q); head++ {
		u := q[head]
		for _, e := range sys.adj[u] {
			if cond[e.valve] > 0 && s.seen[e.to] != epoch {
				s.seen[e.to] = epoch
				q = append(q, e.to)
			}
		}
	}
	s.queue = q
}

func (s *Solver) reachable(u int32) bool { return s.seen[u] == s.epoch }

func (s *Solver) reachMatchesFactored() bool {
	for u := range s.factoredReach {
		if s.factoredReach[u] != (s.seen[u] == s.epoch) {
			return false
		}
	}
	return true
}

// diffWithinBudget collects the valves whose conductance differs from the
// factored state into s.changed, reporting (rank, false) the moment the
// budget is exceeded.
func (s *Solver) diffWithinBudget(cond []float64) (int, bool) {
	budget := s.eng.rankBudget
	s.changed = s.changed[:0]
	for v := range cond {
		if cond[v] != s.factoredCond[v] {
			if len(s.changed) == budget {
				return budget + 1, false
			}
			s.changed = append(s.changed, int32(v))
		}
	}
	return len(s.changed), true
}

// assemble fills Ax with the grounded-Laplacian values of the state:
// identity rows for unknowns unreachable from both terminals, conductance
// sums and negated couplings elsewhere. Returns the largest magnitude for
// the pivot tolerance.
func (s *Solver) assemble(cond []float64) (maxAbs float64) {
	sys := s.sys
	for j := 0; j < sys.m; j++ {
		u := sys.perm[j]
		uReach := s.reachable(u)
		for p := sys.Ap[j]; p < sys.Ap[j+1]; p++ {
			v := sys.slotValve[p]
			var val float64
			if v < 0 { // diagonal
				if !uReach {
					val = 1
				} else {
					for _, iv := range sys.incident[u] {
						val += cond[iv]
					}
				}
			} else if uReach { // coupling: both ends reachable or value 0
				val = -cond[v]
			}
			s.Ax[p] = val
			if val < 0 {
				val = -val
			}
			if val > maxAbs {
				maxAbs = val
			}
		}
	}
	return maxAbs
}

// buildRHS fills the permuted right-hand side from the source-incident
// conductances of the state.
func (s *Solver) buildRHS(cond []float64) {
	sys := s.sys
	for i := range s.b {
		s.b[i] = 0
	}
	for _, e := range sys.srcAdj {
		s.b[sys.iperm[e.to]] += cond[e.valve]
	}
}

func (s *Solver) solveCold(cond []float64) error {
	sys := s.sys
	maxAbs := s.assemble(cond)
	tol := 1e-12 * maxAbs
	if maxAbs == 0 {
		tol = 1e-12
	}
	if k := ldlNumeric(sys.m, sys.Ap, sys.Ai, s.Ax, sys.parent, sys.Lp,
		s.Li, s.Lx, s.D, s.y, s.pattern, s.flag, s.lnzWork, tol); k >= 0 {
		s.factored = false
		return fmt.Errorf("%w (LDL pivot, column %d)", ErrSingular, k)
	}
	s.buildRHS(cond)
	copy(s.x, s.b)
	ldlSolve(sys.m, sys.Lp, s.Li, s.Lx, s.D, s.x)
	s.factored = true
	copy(s.factoredCond, cond)
	for u := range s.factoredReach {
		s.factoredReach[u] = s.seen[u] == s.epoch
	}
	return nil
}

// errIllConditionedUpdate is the internal signal that the SMW capacitance
// system was too ill-conditioned to trust; the caller refactorizes.
var errIllConditionedUpdate = fmt.Errorf("pressure: ill-conditioned low-rank update")

// solveWarm answers the state from the cached factorization plus a
// rank-k Sherman–Morrison–Woodbury correction built from s.changed.
func (s *Solver) solveWarm(cond []float64, _ int) error {
	sys := s.sys
	m := sys.m

	// Update vectors: one signed incidence vector per flipped valve, with
	// terminal coordinates folded away and island-internal flips (both
	// endpoints unreachable — identity rows, outside the system) skipped.
	s.upA, s.upB, s.delta = s.upA[:0], s.upB[:0], s.delta[:0]
	for _, v := range s.changed {
		ends := sys.ends[v]
		pa, pb := int32(-1), int32(-1)
		if ends[0] >= 0 && s.factoredReach[ends[0]] {
			pa = sys.iperm[ends[0]]
		}
		if ends[1] >= 0 && s.factoredReach[ends[1]] {
			pb = sys.iperm[ends[1]]
		}
		if pa < 0 && pb < 0 {
			continue // source-meter direct edge or island-internal flip
		}
		s.upA = append(s.upA, pa)
		s.upB = append(s.upB, pb)
		s.delta = append(s.delta, cond[v]-s.factoredCond[v])
	}
	k := len(s.delta)

	// z = A⁻¹ b for the NEW right-hand side.
	s.buildRHS(cond)
	copy(s.x, s.b)
	ldlSolve(m, sys.Lp, s.Li, s.Lx, s.D, s.x)
	if k == 0 {
		return nil
	}

	// W column j = A⁻¹ u_j (u_j has at most two nonzeros).
	for j := 0; j < k; j++ {
		col := s.w[j*m : (j+1)*m]
		for i := range col {
			col[i] = 0
		}
		if s.upA[j] >= 0 {
			col[s.upA[j]] = 1
		}
		if s.upB[j] >= 0 {
			col[s.upB[j]] -= 1
		}
		ldlSolve(m, sys.Lp, s.Li, s.Lx, s.D, col)
	}

	// Capacitance system S = C⁻¹ + Uᵀ W, right-hand side Uᵀ z.
	dot := func(j int, vec []float64) float64 {
		d := 0.0
		if s.upA[j] >= 0 {
			d += vec[s.upA[j]]
		}
		if s.upB[j] >= 0 {
			d -= vec[s.upB[j]]
		}
		return d
	}
	small := s.small[:k*k]
	for i := 0; i < k; i++ {
		wi := s.w[i*m : (i+1)*m]
		for j := 0; j < k; j++ {
			small[j*k+i] = dot(j, wi) // S[j][i] = u_jᵀ w_i
		}
		small[i*k+i] += 1 / s.delta[i]
		s.rhs2[i] = dot(i, s.x)
	}
	if !solveDense(small, s.rhs2[:k], k) {
		return errIllConditionedUpdate
	}

	// x ← z − W y.
	for j := 0; j < k; j++ {
		yj := s.rhs2[j]
		if yj == 0 {
			continue
		}
		col := s.w[j*m : (j+1)*m]
		for i := 0; i < m; i++ {
			s.x[i] -= col[i] * yj
		}
	}
	return nil
}

// solveDense solves the k x k system a·x = rhs in place by Gaussian
// elimination with partial pivoting (a is row-major, overwritten; rhs
// holds the solution on exit). Returns false when a pivot is numerically
// zero relative to the matrix magnitude. No allocation.
func solveDense(a []float64, rhs []float64, k int) bool {
	maxAbs := 0.0
	for _, v := range a {
		if v < 0 {
			v = -v
		}
		if v > maxAbs {
			maxAbs = v
		}
	}
	tol := 1e-13 * maxAbs
	if maxAbs == 0 {
		return false
	}
	for col := 0; col < k; col++ {
		piv := col
		for r := col + 1; r < k; r++ {
			if math.Abs(a[r*k+col]) > math.Abs(a[piv*k+col]) {
				piv = r
			}
		}
		if math.Abs(a[piv*k+col]) <= tol {
			return false
		}
		if piv != col {
			for c := 0; c < k; c++ {
				a[col*k+c], a[piv*k+c] = a[piv*k+c], a[col*k+c]
			}
			rhs[col], rhs[piv] = rhs[piv], rhs[col]
		}
		inv := 1 / a[col*k+col]
		for r := col + 1; r < k; r++ {
			f := a[r*k+col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < k; c++ {
				a[r*k+c] -= f * a[col*k+c]
			}
			rhs[r] -= f * rhs[col]
		}
	}
	for r := k - 1; r >= 0; r-- {
		v := rhs[r]
		for c := r + 1; c < k; c++ {
			v -= a[r*k+c] * rhs[c]
		}
		rhs[r] = v / a[r*k+r]
	}
	return true
}

// result packages the current permuted solution as a Result. The node
// pressures alias solver scratch.
func (s *Solver) result(cond []float64) Result {
	sys := s.sys
	for i := range s.press {
		s.press[i] = 0
	}
	s.press[sys.source] = 1
	for u, node := range sys.unknowns {
		if s.reachable(int32(u)) {
			s.press[node] = s.x[sys.iperm[u]]
		}
	}
	flow := 0.0
	for _, e := range sys.mtrAdj {
		if g := cond[e.valve]; g > 0 {
			flow += g * s.x[sys.iperm[e.to]]
		}
	}
	for _, v := range sys.direct {
		flow += cond[v] // source held at pressure 1
	}
	return Result{NodePressure: s.press, MeterFlow: flow}
}
