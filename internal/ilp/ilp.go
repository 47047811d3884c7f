// Package ilp implements a 0-1 integer linear programming solver by
// branch and bound over the LP relaxation from package lp.
//
// The test-path generation ILP of the DAC'18 DFT paper (eqs. (1)-(6)) is a
// pure 0-1 program whose degree constraints admit spurious disjoint cycles;
// the paper removes them lazily with the technique of ref. [16]. The solver
// therefore supports lazy constraints: whenever an integer-feasible point is
// found, a callback may reject it by returning additional constraints,
// which are added to the model before the search continues.
//
// The search (search.go) is a deterministic parallel branch and bound: a
// worker pool explores subtrees from a shared LIFO frontier under an
// atomically shared incumbent bound. Determinism is part of the contract:
// on a fixed model (no lazy cuts) an exhausted search returns bit-identical
// (Status, X, Obj) for every worker count, because nodes are pruned only
// when their relaxation is strictly worse than the bound and equal-objective
// incumbents are resolved to the lexicographically smallest rounded
// solution (see DESIGN.md §11 for the argument). Node counts and parallel
// statistics do vary with scheduling, as do budget-truncated (Feasible/
// Aborted) results. The seed serial solver is preserved in baseline.go for
// benchmarks and cross-checks.
package ilp

import (
	"context"
	"math"
	"sync"
	"time"

	"repro/internal/lp"
)

// Model wraps an lp.Problem whose variables are all binary (bounds must be
// within [0,1]); Solve enforces integrality on every variable. A Model must
// not be copied after first use (it embeds the lock that serializes lazy
// constraint insertion against concurrent LP relaxations).
type Model struct {
	P *lp.Problem

	// mu guards P during a parallel solve: relaxations take the read
	// side, lazy-cut insertion the write side.
	mu sync.RWMutex

	// relax solves one node's LP relaxation; nil means P.SolveTab. Tests
	// substitute it to inject relaxation outcomes.
	relax func(ctx context.Context, ov [][2]float64, tab *lp.Tableau) (lp.Solution, error)
}

// NewModel returns a model over the given problem. All variables are
// treated as binaries.
func NewModel(p *lp.Problem) *Model { return &Model{P: p} }

// Options tunes the branch-and-bound search.
type Options struct {
	// MaxNodes caps the number of branch-and-bound nodes (0 = default).
	MaxNodes int
	// TimeLimit caps wall-clock time (0 = no limit).
	TimeLimit time.Duration
	// Workers sets the number of concurrent search workers. 0 or 1 runs
	// the search serially on the calling goroutine (no goroutines are
	// spawned). On a fixed model the result is worker-count independent;
	// see the package comment for the exact guarantee.
	Workers int
	// Lazy, if non-nil, is invoked on every integer-feasible candidate. It
	// returns constraints violated by the candidate; returning none accepts
	// the candidate as feasible. Added constraints apply globally. During a
	// parallel solve the callback runs under the model's write lock (so it
	// never races with relaxations) and must not call back into the model.
	Lazy func(x []float64) []lp.Constraint
	// IncumbentObj primes the search with a known objective bound
	// (for minimization: an upper bound). The bound is honoured when
	// IncumbentX is non-nil, when HasIncumbent is set, or — for
	// compatibility — when IncumbentObj is non-zero and finite. Use
	// HasIncumbent to prime a bound of exactly 0 without a solution
	// vector; internally the search starts from a math.Inf(1) sentinel,
	// so the zero Options value still means "none".
	IncumbentObj float64
	// IncumbentX optionally carries the solution achieving IncumbentObj.
	IncumbentX []float64
	// HasIncumbent marks IncumbentObj as meaningful even when it is zero
	// and IncumbentX is nil (the zero-value ambiguity fix).
	HasIncumbent bool
}

// DefaultMaxNodes bounds the search when Options.MaxNodes is zero.
const DefaultMaxNodes = 20000

// SolveStats describes how one branch-and-bound run used its workers.
type SolveStats struct {
	// Workers is the resolved worker count of the solve.
	Workers int
	// NodesPerWorker counts the nodes each worker processed; the entries
	// sum to Result.Nodes.
	NodesPerWorker []int
	// Steals counts frontier pops that took a node pushed by a different
	// worker — cross-worker load balancing events.
	Steals int
	// IdleWaits counts the times a worker blocked on an empty frontier
	// while siblings were still expanding nodes.
	IdleWaits int
	// Requeued counts nodes pushed back after a lazy-cut rejection.
	Requeued int

	// LPPivots sums the simplex pivots of every LP relaxation of the
	// solve, and LPMaxPivots is the most any single relaxation took.
	LPPivots    int
	LPMaxPivots int
	// BlandTrips counts relaxations that switched to Bland's rule.
	BlandTrips int
	// IterLimits counts relaxations that hit the LP iteration limit. Each
	// one leaves its subtree unexplored, so a solve with IterLimits > 0
	// reports Feasible or Aborted, never Optimal or Infeasible.
	IterLimits int
}

// Result is the outcome of an ILP solve.
type Result struct {
	Status   Status
	X        []float64 // integral values (0/1) when Status is Optimal or Feasible
	Obj      float64
	Nodes    int // branch-and-bound nodes explored
	LazyCuts int // lazy constraints added during the search
	// Stats carries the parallel-search statistics of the solve (Workers
	// is 1 and Steals/IdleWaits are 0 for a serial run).
	Stats SolveStats
}

// Status classifies an ILP result.
type Status int

// ILP statuses. Feasible means a budget (nodes, time, context or an LP
// relaxation's iteration limit) ran out with an incumbent in hand but
// optimality unproven; Aborted means it ran out with no incumbent.
const (
	Optimal Status = iota
	Feasible
	Infeasible
	Aborted // budget expired with no incumbent
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Aborted:
		return "aborted"
	}
	return "unknown"
}

const intTol = 1e-6

// Solve runs branch and bound and returns the best integral solution
// found.
func (m *Model) Solve(opts Options) (Result, error) {
	return m.SolveCtx(context.Background(), opts)
}

// mostFractional is the branching rule: it returns the index of the
// variable farthest from an integer — "most fractional", with ties broken
// by the lowest variable index (the strict > comparison keeps the first
// maximum) — or -1 if all values are integral within tolerance. The rule
// is deterministic in x, which together with the deterministic LP solver
// makes the branch-and-bound tree of a fixed model a function of the model
// alone (the serial-search determinism property pinned by tests).
func mostFractional(x []float64) int {
	best := -1
	bestDist := intTol
	for i, v := range x {
		f := math.Abs(v - math.Round(v))
		if f > bestDist {
			bestDist = f
			best = i
		}
	}
	return best
}

func roundBinary(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		if v >= 0.5 {
			out[i] = 1
		}
	}
	return out
}
