package ilp

// search.go is the production branch-and-bound engine: a worker pool over
// a shared LIFO frontier with an atomically shared incumbent bound.
//
// Hot-path design (the per-node cost is allocation-free up to the two
// child nodes):
//
//   - branch nodes are parent pointers (variable, value, parent) instead
//     of the seed's append-copied fixedVar/fixedVal slices; a node's
//     bound fixings are applied by walking its ancestor chain into a
//     per-worker overrides buffer and undone the same way after the
//     relaxation;
//   - each worker owns an lp.Tableau scratch drawn from a sync.Pool, so
//     LP relaxations re-populate warm storage instead of re-making it;
//   - the incumbent bound is published through an atomic word
//     (math.Float64bits) so pruning never takes a lock.
//
// Determinism rule: a node is pruned only when its relaxation is strictly
// worse than the bound (relax > bound + tol), so subtrees whose bound ties
// the optimum are always explored; among equal-objective incumbents the
// lexicographically smallest rounded solution wins. On a fixed model every
// optimal leaf is therefore visited regardless of scheduling, and an
// exhausted search returns the same (Status, X, Obj) for any worker count.
// Lazy cuts are applied globally under the model's write lock with the
// rejected node re-queued; because cut arrival order can steer later
// relaxations, the bit-identical guarantee then needs a unique accepted
// optimum (the paper's models pin this with their usage costs).

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lp"
)

// SolveCtx is Solve with cooperative cancellation. The context is checked
// at every branch-and-bound node (and inside each LP relaxation); when it
// expires the search stops within one node and returns the incumbent with
// Status Feasible, or Aborted when no incumbent exists yet. Cancellation is
// treated exactly like an expired node/time budget — the error is nil and
// the Result reports how far the search got. With Options.Workers > 1 the
// frontier is explored by that many goroutines, all of which have
// terminated by the time SolveCtx returns.
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
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	s := &search{
		m:        m,
		opts:     opts,
		ctx:      ctx,
		n:        n,
		maxNodes: int64(maxNodes),
		sign:     1.0,
		front:    newFrontier(),
		baseOv:   m.P.DefaultOverrides(),
		bestObj:  math.Inf(1),
	}
	if m.P.Sense() == lp.Maximize {
		s.sign = -1 // compare in minimize space
	}
	if opts.TimeLimit > 0 {
		s.deadline = time.Now().Add(opts.TimeLimit)
	}
	// Prime the incumbent. The sentinel is +Inf; see Options.IncumbentObj
	// for when a caller-provided bound is honoured.
	if opts.IncumbentX != nil || opts.HasIncumbent ||
		(opts.IncumbentObj != 0 && !math.IsInf(opts.IncumbentObj, 0)) {
		s.bestObj = s.sign * opts.IncumbentObj
	}
	if opts.IncumbentX != nil {
		s.bestX = append([]float64(nil), opts.IncumbentX...)
	}
	s.bound.Store(math.Float64bits(s.bestObj))

	s.workerNodes = make([]int64, workers)
	s.workerLP = make([]lpEffort, workers)
	s.front.push(&bbNode{}, 0)
	if workers == 1 {
		// Serial fast path: the frontier can never be empty while a node
		// is inflight, so the single worker runs inline without spawning
		// a goroutine (and without ever blocking on the condition).
		s.runWorker(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(id int) {
				defer wg.Done()
				s.runWorker(id)
			}(w)
		}
		wg.Wait()
	}

	res := Result{
		Nodes:    int(s.nodes.Load()),
		LazyCuts: int(s.lazyCuts.Load()),
	}
	res.Stats = SolveStats{
		Workers:        workers,
		NodesPerWorker: make([]int, workers),
		Steals:         s.front.steals,
		IdleWaits:      s.front.idle,
		Requeued:       int(s.requeued.Load()),
	}
	for i, c := range s.workerNodes {
		res.Stats.NodesPerWorker[i] = int(c)
	}
	for _, e := range s.workerLP {
		res.Stats.LPPivots += e.pivots
		res.Stats.LPMaxPivots = max(res.Stats.LPMaxPivots, e.maxPivots)
		res.Stats.BlandTrips += e.blandTrips
		res.Stats.IterLimits += e.iterLimits
	}
	if s.err != nil {
		return res, s.err
	}
	// A relaxation that hit its iteration limit left a subtree unexplored:
	// the search is then budget-truncated, not a proof.
	exhausted := !s.aborted.Load() && res.Stats.IterLimits == 0
	if s.bestX == nil {
		if exhausted {
			res.Status = Infeasible
		} else {
			res.Status = Aborted
		}
		return res, nil
	}
	res.X = s.bestX
	res.Obj = s.sign * s.bestObj
	if exhausted {
		res.Status = Optimal
	} else {
		res.Status = Feasible
	}
	return res, nil
}

// bbNode is a branch decision: variable v fixed to val, on top of every
// fixing along the parent chain. The root has a nil parent.
type bbNode struct {
	parent *bbNode
	v      int32
	val    int8
}

// frontierItem tags each queued node with the worker that produced it so
// cross-worker pops can be counted as steals.
type frontierItem struct {
	nd    *bbNode
	owner int
}

// frontier is the shared LIFO work queue. inflight counts popped but
// unfinished nodes: the queue is exhausted only when it is empty AND
// nothing is inflight (an inflight node may still push children).
type frontier struct {
	mu       sync.Mutex
	cond     sync.Cond
	items    []frontierItem
	inflight int
	closed   bool
	idle     int
	steals   int
}

func newFrontier() *frontier {
	f := &frontier{}
	f.cond.L = &f.mu
	return f
}

func (f *frontier) push(nd *bbNode, owner int) {
	f.mu.Lock()
	f.items = append(f.items, frontierItem{nd, owner})
	f.mu.Unlock()
	f.cond.Signal()
}

// pop blocks until a node is available, the search is closed, or the
// frontier is exhausted; it returns nil in the latter two cases.
func (f *frontier) pop(worker int) *bbNode {
	f.mu.Lock()
	for len(f.items) == 0 && f.inflight > 0 && !f.closed {
		f.idle++
		f.cond.Wait()
	}
	if f.closed || len(f.items) == 0 {
		f.mu.Unlock()
		return nil
	}
	it := f.items[len(f.items)-1]
	f.items = f.items[:len(f.items)-1]
	f.inflight++
	if it.owner != worker {
		f.steals++
	}
	f.mu.Unlock()
	return it.nd
}

// finish marks a popped node fully processed and wakes everyone when the
// search space is exhausted.
func (f *frontier) finish() {
	f.mu.Lock()
	f.inflight--
	if f.inflight == 0 && len(f.items) == 0 {
		f.cond.Broadcast()
	}
	f.mu.Unlock()
}

// close aborts the search: pending items are abandoned and every blocked
// worker wakes up and exits.
func (f *frontier) close() {
	f.mu.Lock()
	f.closed = true
	f.cond.Broadcast()
	f.mu.Unlock()
}

// search is the shared state of one SolveCtx run.
type search struct {
	m        *Model
	opts     Options
	ctx      context.Context
	n        int
	sign     float64
	maxNodes int64
	deadline time.Time
	front    *frontier
	baseOv   [][2]float64

	// bound mirrors bestObj (minimize space) as math.Float64bits for
	// lock-free prune reads; incMu guards the authoritative incumbent.
	bound atomic.Uint64

	incMu   sync.Mutex
	bestObj float64
	bestX   []float64

	nodes    atomic.Int64
	lazyCuts atomic.Int64
	requeued atomic.Int64
	aborted  atomic.Bool

	errMu sync.Mutex
	err   error

	workerNodes []int64
	workerLP    []lpEffort
}

// lpEffort accumulates one worker's LP relaxation effort.
type lpEffort struct {
	pivots, maxPivots      int
	blandTrips, iterLimits int
}

func (e *lpEffort) add(sol lp.Solution) {
	e.pivots += sol.Pivots
	e.maxPivots = max(e.maxPivots, sol.Pivots)
	if sol.Bland {
		e.blandTrips++
	}
	if sol.Status == lp.IterLimit {
		e.iterLimits++
	}
}

// tabPool recycles LP scratch tableaus across solves and workers.
var tabPool = sync.Pool{New: func() any { return lp.NewTableau() }}

func (s *search) loadBound() float64 {
	return math.Float64frombits(s.bound.Load())
}

// abort stops the search, keeping the incumbent (budget/cancellation
// semantics).
func (s *search) abort() {
	s.aborted.Store(true)
	s.front.close()
}

// fail stops the search with a hard error.
func (s *search) fail(err error) {
	s.errMu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.errMu.Unlock()
	s.abort()
}

// bbWorker is one worker's private scratch: a pooled LP tableau and the
// reusable overrides buffer the node fixings are applied into.
type bbWorker struct {
	id    int
	tab   *lp.Tableau
	ov    [][2]float64
	nodes int64
	lp    lpEffort
}

func (s *search) runWorker(id int) {
	w := &bbWorker{id: id, tab: tabPool.Get().(*lp.Tableau)}
	w.ov = make([][2]float64, s.n)
	copy(w.ov, s.baseOv)
	for {
		nd := s.front.pop(id)
		if nd == nil {
			break
		}
		s.process(w, nd)
		s.front.finish()
	}
	tabPool.Put(w.tab)
	s.workerNodes[id] = w.nodes
	s.workerLP[id] = w.lp
}

// process expands one node: budget checks, LP relaxation under the node's
// fixings, prune/candidate/branch.
func (s *search) process(w *bbWorker, nd *bbNode) {
	if s.aborted.Load() {
		return
	}
	if s.ctx.Err() != nil {
		s.abort()
		return
	}
	if !s.deadline.IsZero() && time.Now().After(s.deadline) {
		s.abort()
		return
	}
	if s.nodes.Add(1) > s.maxNodes {
		s.nodes.Add(-1) // the node was not processed
		s.abort()
		return
	}
	w.nodes++

	// Apply the node's fixings along the parent chain, relax, undo.
	for p := nd; p.parent != nil; p = p.parent {
		v := float64(p.val)
		w.ov[p.v] = [2]float64{v, v}
	}
	s.m.mu.RLock()
	var sol lp.Solution
	var err error
	if s.m.relax != nil {
		sol, err = s.m.relax(s.ctx, w.ov, w.tab)
	} else {
		sol, err = s.m.P.SolveTab(s.ctx, w.ov, w.tab)
	}
	s.m.mu.RUnlock()
	w.lp.add(sol)
	for p := nd; p.parent != nil; p = p.parent {
		w.ov[p.v] = s.baseOv[p.v]
	}
	if err != nil {
		if sol.Status == lp.Canceled {
			// Context expired mid-relaxation: stop the search and keep
			// the incumbent, like any other expired budget.
			s.abort()
			return
		}
		s.fail(err)
		return
	}
	switch sol.Status {
	case lp.Infeasible:
		return
	case lp.Unbounded:
		s.fail(errors.New("ilp: LP relaxation unbounded (binary model should be bounded)"))
		return
	case lp.IterLimit:
		return // subtree skipped: counted, and SolveCtx reports a budget result
	}
	relax := s.sign * sol.Obj
	if relax > s.loadBound()+1e-9 {
		return // bound prune (strict: equal-bound subtrees stay open)
	}
	frac := mostFractional(sol.X)
	if frac < 0 {
		// Integer feasible. Round to exact binaries (sol.X aliases the
		// worker tableau, so the candidate is copied out here).
		x := roundBinary(sol.X)
		if s.opts.Lazy != nil {
			s.m.mu.Lock()
			cuts := s.opts.Lazy(x)
			if len(cuts) > 0 {
				for _, c := range cuts {
					s.m.P.AddConstraint(c)
				}
				s.m.mu.Unlock()
				s.lazyCuts.Add(int64(len(cuts)))
				s.requeued.Add(1)
				// Re-explore this node under the new constraints.
				s.front.push(nd, w.id)
				return
			}
			s.m.mu.Unlock()
		}
		s.offerIncumbent(x, relax)
		return
	}
	// Branch: push the rounding-nearest child last so the LIFO frontier
	// explores it first (the seed's DFS order).
	v := int32(frac)
	lo := &bbNode{parent: nd, v: v, val: 0}
	hi := &bbNode{parent: nd, v: v, val: 1}
	if sol.X[frac] >= 0.5 {
		s.front.push(lo, w.id)
		s.front.push(hi, w.id)
	} else {
		s.front.push(hi, w.id)
		s.front.push(lo, w.id)
	}
}

// offerIncumbent installs x (objective obj, minimize space) when it is
// strictly better than the incumbent, or ties it within tolerance and is
// lexicographically smaller — the rule that makes the final solution
// independent of which worker found it first.
func (s *search) offerIncumbent(x []float64, obj float64) {
	s.incMu.Lock()
	accept := false
	if obj < s.bestObj-1e-9 {
		accept = true
	} else if obj <= s.bestObj+1e-9 && s.bestX != nil && lexLess(x, s.bestX) {
		accept = true
	}
	if accept {
		if obj < s.bestObj {
			s.bestObj = obj
		}
		s.bestX = x
		s.bound.Store(math.Float64bits(s.bestObj))
	}
	s.incMu.Unlock()
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
