// Package pressure is a quantitative refinement of the boolean
// pressure-reachability model: it treats the open channel network as a
// resistive network (each open segment has unit pneumatic conductance),
// solves the node-pressure equations with the source held at 1 and the
// meter vented at 0, and reports the air flow arriving at the meter.
//
// The boolean model in package fault answers "does pressure arrive?";
// this package answers "how much", which matters for two things the
// boolean model cannot express:
//
//   - measurement thresholds: a real meter needs a minimum flow to
//     register, so long detour paths give weaker signals;
//   - membrane leakage: a leaky closed valve conducts a little (its
//     conductance is LeakConductance rather than 0), producing a small
//     but nonzero meter flow that only a sufficiently sensitive meter
//     detects — quantifying the paper's remark that leakage faults "can
//     be tested similarly".
//
// Two solvers implement the model. SolveBaseline is the original dense
// Gaussian elimination over the grounded Laplacian, kept verbatim for
// cross-checks. The production path is the sparse Engine (engine.go): CSR
// assembly, a cached LDLᵀ factorization under a fill-reducing elimination
// order, Sherman–Morrison–Woodbury low-rank updates between test vectors
// that differ in only a few valve states, and an in-order EvaluateAll
// that sweeps a whole leakage campaign through one warm solver.
package pressure

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/chip"
)

// ErrSingular reports that the grounded node-pressure system has no
// unique solution. It should not occur for systems assembled by this
// package — unknowns are restricted to nodes reachable from a terminal
// over conducting edges, which grounds every Laplacian block — so seeing
// it means the matrix was degenerate beyond that protection (test with
// errors.Is).
var ErrSingular = errors.New("pressure: singular node-pressure system")

// openConductance is the pneumatic conductance of an open segment, the
// unit every other conductance is relative to.
const openConductance = 1

// Params tunes the physical model.
type Params struct {
	// LeakConductance is the residual conductance of a CLOSED valve with a
	// leakage defect (default 0.05 unless HasLeakConductance is set).
	// Healthy closed valves conduct 0.
	LeakConductance float64
	// HasLeakConductance marks LeakConductance as explicitly chosen, making
	// a genuinely zero leak expressible: {LeakConductance: 0} alone would
	// silently become the 0.05 default.
	HasLeakConductance bool
	// MeterThreshold is the minimum inflow the meter registers as
	// "pressure present" (default 1e-6).
	MeterThreshold float64
}

// WithDefaults returns the params with unset fields replaced by the
// documented defaults. A zero LeakConductance is preserved when
// HasLeakConductance is set.
func (p Params) WithDefaults() Params {
	if p.LeakConductance == 0 && !p.HasLeakConductance {
		p.LeakConductance = 0.05
		p.HasLeakConductance = true
	}
	if p.MeterThreshold == 0 {
		p.MeterThreshold = 1e-6
	}
	return p
}

// Result of a pressure solve.
type Result struct {
	// NodePressure maps every grid node to its pressure in [0,1] (0 for
	// nodes with no conducting connection to either terminal).
	NodePressure []float64
	// MeterFlow is the air flow arriving at the meter node.
	MeterFlow float64
}

// Reads reports whether the meter registers the flow under the params.
func (r Result) Reads(p Params) bool {
	return r.MeterFlow > p.WithDefaults().MeterThreshold
}

// SolveBaseline is the seed's dense Gaussian-elimination solver, kept
// verbatim for cross-checks against the sparse Engine. It computes the
// steady-state pressures for a chip whose valves have the given
// conductances (indexed by valve ID; 0 = fully closed), with the source
// node held at 1 and the meter node at 0.
func SolveBaseline(c *chip.Chip, conductance []float64, sourceNode, meterNode int) (Result, error) {
	if len(conductance) != c.NumValves() {
		return Result{}, fmt.Errorf("pressure: %d conductances for %d valves", len(conductance), c.NumValves())
	}
	if sourceNode == meterNode {
		return Result{}, fmt.Errorf("pressure: source and meter coincide")
	}
	n := c.Grid.NumNodes()
	g := c.Grid.Graph()

	// Floating islands (open sub-networks touching neither terminal) have
	// a singular Laplacian block and carry no flow; exclude them. Keep only
	// nodes reachable from a terminal over conducting edges.
	conducting := func(e int) bool {
		v, ok := c.ValveOnEdge(e)
		return ok && conductance[v] > 0
	}
	reach := make([]bool, n)
	for _, root := range [2]int{sourceNode, meterNode} {
		for node, d := range g.BFSFrom(root, conducting) {
			if d >= 0 {
				reach[node] = true
			}
		}
	}

	// Unknowns: reachable nodes except source and meter (Dirichlet
	// terminals).
	idx := make([]int, n)
	for i := range idx {
		idx[i] = -1
	}
	var unknowns []int
	for i := 0; i < n; i++ {
		if i != sourceNode && i != meterNode && reach[i] {
			idx[i] = len(unknowns)
			unknowns = append(unknowns, i)
		}
	}
	m := len(unknowns)
	a := make([][]float64, m)
	for i := range a {
		a[i] = make([]float64, m+1) // augmented column = RHS
	}
	condOf := func(e int) float64 {
		v, ok := c.ValveOnEdge(e)
		if !ok {
			return 0
		}
		return conductance[v]
	}
	for ui, node := range unknowns {
		diag := 0.0
		for _, e := range g.IncidentEdges(node) {
			gcond := condOf(e)
			if gcond <= 0 {
				continue
			}
			x, y := g.Endpoints(e)
			other := x
			if other == node {
				other = y
			}
			diag += gcond
			switch other {
			case sourceNode:
				a[ui][m] += gcond * 1.0
			case meterNode:
				// pressure 0: contributes nothing to RHS
			default:
				a[ui][idx[other]] -= gcond
			}
		}
		if diag == 0 {
			diag = 1 // isolated node: pressure defined as 0
		}
		a[ui][ui] += diag
	}
	sol, err := gauss(a, m)
	if err != nil {
		return Result{}, err
	}
	pr := make([]float64, n)
	for i := range pr {
		pr[i] = 0
	}
	pr[sourceNode] = 1
	for ui, node := range unknowns {
		pr[node] = sol[ui]
	}
	// Meter inflow = sum of conductance * pressure of neighbours.
	flow := 0.0
	for _, e := range g.IncidentEdges(meterNode) {
		gcond := condOf(e)
		if gcond <= 0 {
			continue
		}
		x, y := g.Endpoints(e)
		other := x
		if other == meterNode {
			other = y
		}
		flow += gcond * pr[other]
	}
	return Result{NodePressure: pr, MeterFlow: flow}, nil
}

// gauss solves the m x m system with augmented matrix a (last column RHS)
// by Gaussian elimination with partial pivoting. The singularity threshold
// is relative to the largest coefficient magnitude: an absolute cutoff
// would misclassify well-conditioned systems built from tiny conductance
// scales (e.g. nS-range) as singular.
func gauss(a [][]float64, m int) ([]float64, error) {
	maxAbs := 0.0
	for r := 0; r < m; r++ {
		for c := 0; c < m; c++ {
			if v := math.Abs(a[r][c]); v > maxAbs {
				maxAbs = v
			}
		}
	}
	tol := 1e-12 * maxAbs
	if maxAbs == 0 {
		tol = 1e-12 // all-zero coefficient matrix: every pivot is singular
	}
	for col := 0; col < m; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < m; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) <= tol {
			return nil, fmt.Errorf("%w (dense elimination, column %d)", ErrSingular, col)
		}
		a[col], a[piv] = a[piv], a[col]
		inv := 1 / a[col][col]
		for r := col + 1; r < m; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for k := col; k <= m; k++ {
				a[r][k] -= f * a[col][k]
			}
		}
	}
	sol := make([]float64, m)
	for r := m - 1; r >= 0; r-- {
		s := a[r][m]
		for k := r + 1; k < m; k++ {
			s -= a[r][k] * sol[k]
		}
		sol[r] = s / a[r][r]
	}
	return sol, nil
}

// Conductances builds the per-valve conductance vector for a valve state
// under the physical params, with optional defects: stuck-at-1 and leakage
// make a closed valve conduct; stuck-at-0 makes an open valve block.
func Conductances(c *chip.Chip, open []bool, p Params, defects map[int]Defect) []float64 {
	p = p.WithDefaults()
	out := make([]float64, c.NumValves())
	for v := 0; v < c.NumValves(); v++ {
		isOpen := open[v]
		switch defects[v] {
		case StuckOpen:
			isOpen = true
		case StuckClosed:
			isOpen = false
		}
		if isOpen {
			out[v] = openConductance
		} else if defects[v] == Leaky {
			out[v] = p.LeakConductance
		}
	}
	return out
}

// Defect is a physical defect for the quantitative model.
type Defect int

// Defect kinds. None is the zero value.
const (
	None Defect = iota
	StuckClosed
	StuckOpen
	Leaky
)
