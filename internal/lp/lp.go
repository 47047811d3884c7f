// Package lp implements a two-phase primal simplex solver for linear
// programs with bounded variables, over a dense tableau whose pivots visit
// only nonzeros, and a bounded dual simplex that re-solves a problem from
// the basis its tableau kept after the variable bounds change.
//
// The DAC'18 DFT paper formulates test-path generation as a 0-1 integer
// linear program (eqs. (1)-(6)); the authors used a commercial solver from
// C++. This module is offline and stdlib-only, so we implement the LP
// relaxation engine from scratch. Package ilp builds a branch-and-bound
// 0-1 solver on top of it.
//
// The solver targets the instance sizes that occur in biochip DFT —
// hundreds of variables and constraints — with numerical robustness
// (Bland's rule fallback, explicit tolerances) and a branch-and-bound
// friendly hot path: the cold engine (SolveTab, bounded.go) treats finite
// upper bounds implicitly and solves into a reusable Tableau scratch, and
// SolveWarm (warm.go) re-solves a branch-and-bound node from the previous
// node's optimal basis without phase 1; neither allocates once the
// Tableau has grown. The paper's models are sparse (a pivot row is about
// 2% nonzero), so the tableau keeps row and column bitmaps of its
// nonzeros and each iteration touches only those, with the same
// floating-point operations in the same order as a full sweep; the cold
// pivot sequence is pinned by testdata/lp_fixture.txt. The seed row-based
// simplex is preserved in baseline.go as a test oracle.
package lp

import (
	"context"
	"fmt"
)

// Sense selects the optimization direction.
type Sense int

// Optimization directions.
const (
	Minimize Sense = iota
	Maximize
)

// Rel is a constraint relation.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // <=
	GE            // >=
	EQ            // =
)

func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Term is one coefficient of a linear expression.
type Term struct {
	Var  int
	Coef float64
}

// T is a convenience constructor for Term, for compact constraint building.
func T(v int, c float64) Term { return Term{Var: v, Coef: c} }

// Constraint is a linear constraint sum(Terms) Rel RHS.
type Constraint struct {
	Terms []Term
	Rel   Rel
	RHS   float64
}

// Problem is a linear program. Construct with NewProblem, add variables and
// constraints, then call Solve.
type Problem struct {
	sense Sense
	obj   []float64
	lb    []float64
	ub    []float64
	cons  []Constraint
}

// NewProblem returns an empty problem with the given optimization sense.
func NewProblem(sense Sense) *Problem {
	return &Problem{sense: sense}
}

// Sense returns the optimization direction.
func (p *Problem) Sense() Sense { return p.sense }

// NumVars returns the number of variables.
func (p *Problem) NumVars() int { return len(p.obj) }

// NumConstraints returns the number of constraints.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// AddVar adds a variable with objective coefficient obj and bounds [lb, ub]
// (use math.Inf(1) for an unbounded upper limit) and returns its index.
// name labels the variable in the panic that an empty range (lb > ub)
// raises.
func (p *Problem) AddVar(obj, lb, ub float64, name string) int {
	if lb > ub {
		panic(fmt.Sprintf("lp: variable %q has lb %g > ub %g", name, lb, ub))
	}
	p.obj = append(p.obj, obj)
	p.lb = append(p.lb, lb)
	p.ub = append(p.ub, ub)
	return len(p.obj) - 1
}

// AddBinaryVar adds a variable with bounds [0,1]; package ilp enforces
// integrality. Returns the variable index.
func (p *Problem) AddBinaryVar(obj float64, name string) int {
	return p.AddVar(obj, 0, 1, name)
}

// Bounds returns the bounds of variable i.
func (p *Problem) Bounds(i int) (lb, ub float64) { return p.lb[i], p.ub[i] }

// AddConstraint appends a linear constraint. A term with an out-of-range
// variable index makes the next solve return an error.
func (p *Problem) AddConstraint(c Constraint) int {
	p.cons = append(p.cons, c)
	return len(p.cons) - 1
}

// Status is the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
	// Canceled means the solve's context expired mid-simplex; the partial
	// tableau state carries no usable solution. SolveCtx pairs this status
	// with the context's error.
	Canceled
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	case Canceled:
		return "canceled"
	}
	return "unknown"
}

// Solution holds the result of an LP solve.
type Solution struct {
	Status Status
	X      []float64
	Obj    float64

	// The effort counters cover both phases. Pivots counts the basis
	// changes chosen by the ratio test (not the degenerate exchanges that
	// drive artificials out after phase 1), Flips the iterations that
	// moved the entering column to its opposite bound without a basis
	// change, and Bland reports whether a phase ran past blandTrip
	// iterations and switched to Bland's rule. A solve that ran into the
	// per-phase iteration limit has Status IterLimit.
	Pivots int
	Flips  int
	Bland  bool
}

const (
	eps          = 1e-9
	pivotEps     = 1e-7
	blandTrip    = 5000 // iterations of Dantzig before switching to Bland's rule
	iterCap      = 200000
	ctxCheckMask = 63 // poll the context every 64 simplex iterations
)

// Solve optimizes the problem. Overrides, if non-nil, replaces the variable
// bounds for this solve only: overrides[i] = [lb, ub] for variable i, or nil
// to keep the problem's own bounds. This is how branch-and-bound fixes
// binaries without copying the model.
func (p *Problem) Solve(overrides [][2]float64) (Solution, error) {
	return p.SolveCtx(context.Background(), overrides)
}

// SolveCtx is Solve with cooperative cancellation: the simplex polls ctx
// every ctxCheckMask+1 pivots and, when the context is cancelled or its
// deadline expires, abandons the solve and returns the context's error with
// Status Canceled. Each call allocates a fresh scratch tableau; hot loops
// that re-solve the same problem use SolveTab with a kept Tableau instead.
func (p *Problem) SolveCtx(ctx context.Context, overrides [][2]float64) (Solution, error) {
	return p.SolveTab(ctx, overrides, NewTableau())
}

// DefaultOverrides returns an override slice pre-filled with the problem's
// own bounds, so callers can tighten selected variables and pass the result
// to Solve.
func (p *Problem) DefaultOverrides() [][2]float64 {
	out := make([][2]float64, len(p.obj))
	for i := range out {
		out[i] = [2]float64{p.lb[i], p.ub[i]}
	}
	return out
}
