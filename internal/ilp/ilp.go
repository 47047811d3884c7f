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
// The search (search.go) is a serial depth-first branch and bound whose
// nodes re-solve their relaxations warm, from the basis of the node
// before, with the dual simplex of package lp. It is deterministic by
// construction: the tree, its node, lazy-cut and LP pivot counts and the
// result are functions of the model. Nodes are pruned only when their
// relaxation is strictly worse than the bound and equal-objective
// incumbents are resolved to the lexicographically smallest rounded
// solution, so an exhausted search returns the same (Status, X, Obj)
// whichever order it visits the optimal leaves in (see DESIGN.md §11).
// The seed serial solver is preserved in baseline.go as a test oracle.
package ilp

import (
	"context"
	"math"

	"repro/internal/lp"
)

// Model wraps an lp.Problem whose variables are all binary (bounds must be
// within [0,1]); Solve enforces integrality on every variable.
type Model struct {
	P *lp.Problem

	// relax solves one node's LP relaxation; nil means P.SolveWarm. Tests
	// substitute it to inject relaxation outcomes.
	relax func(ctx context.Context, ov [][2]float64, tab *lp.Tableau) (lp.Solution, error)
}

// NewModel returns a model over the given problem. All variables are
// treated as binaries.
func NewModel(p *lp.Problem) *Model { return &Model{P: p} }

// Options tunes the branch-and-bound search.
type Options struct {
	// MaxNodes caps the number of branch-and-bound nodes (0 = default).
	// Cancelling the SolveCtx context is the wall-clock backstop.
	MaxNodes int
	// Lazy, if non-nil, is invoked on every integer-feasible candidate. It
	// returns constraints violated by the candidate; returning none accepts
	// the candidate as feasible. Added constraints apply globally.
	Lazy func(x []float64) []lp.Constraint
}

// DefaultMaxNodes bounds the search when Options.MaxNodes is zero.
const DefaultMaxNodes = 20000

// SolveStats describes the effort of one branch-and-bound run.
type SolveStats struct {
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
	Nodes    int        // branch-and-bound nodes explored
	LazyCuts int        // lazy constraints added during the search
	Stats    SolveStats // requeues and LP effort
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
// alone (the determinism property pinned by tests).
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
