package testgen

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/chip"
	"repro/internal/ilp"
	"repro/internal/lp"
)

// AugmentILP computes a DFT configuration with the paper's ILP
// (eqs. (1)-(6)). The number of test paths |P| starts at 2 and is
// incremented whenever the current count admits no feasible cover, exactly
// as described in Section 3. Loops in path solutions are excluded lazily
// with subtour-elimination constraints (technique of ref. [16]).
func AugmentILP(c *chip.Chip, opts Options) (*Augmentation, error) {
	return AugmentILPCtx(context.Background(), c, opts)
}

// AugmentILPCtx is AugmentILP with cooperative cancellation: the context is
// threaded into every branch-and-bound node and LP relaxation, so an
// expired deadline or a Ctrl-C stops the solve within one node. A
// cancelled solve returns the context's error (wrapped); an instance that
// is genuinely uncoverable returns an error wrapping ErrInfeasible.
func AugmentILPCtx(ctx context.Context, c *chip.Chip, opts Options) (*Augmentation, error) {
	srcPort, dstPort, srcNode, dstNode := testPorts(c)
	var lastErr error = ErrInfeasible
	for nPaths := 2; nPaths <= opts.maxPaths(); nPaths++ {
		aug, err := solvePathILP(ctx, c, srcPort, dstPort, srcNode, dstNode, nPaths, opts)
		if err == nil {
			return aug, nil
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// The budget is gone; retrying with more paths cannot help.
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("testgen: no DFT configuration with up to %d paths: %w", opts.maxPaths(), lastErr)
}

// ErrInfeasible marks augmentation instances (or |P| values) that admit no
// cover. Callers distinguish "genuinely infeasible" from "budget expired"
// with errors.Is(err, ErrInfeasible).
var ErrInfeasible = errors.New("testgen: infeasible")

// pathILPVars maps the path ILP's decision variables back to the grid:
// eVar[r][j] is edge j on path r, sVar[j] the kept-free-edge selector (or
// -1 for original edges).
type pathILPVars struct {
	eVar [][]int
	sVar []int
}

// buildPathILP constructs the test-path generation ILP (eqs. (1)-(6)) for
// |P| = nPaths between srcNode and dstNode, together with the lazy
// loop-exclusion callback (technique of ref. [16]). The callback adds
// subtour-elimination cuts, i.e. it mutates the problem across solves.
func buildPathILP(c *chip.Chip, srcNode, dstNode, nPaths int, opts Options) (*lp.Problem, *pathILPVars, func(x []float64) []lp.Constraint) {
	g := c.Grid.Graph()
	nEdges := g.NumEdges()
	nNodes := g.NumNodes()

	isOriginal := make([]bool, nEdges)
	for _, e := range c.OriginalEdges() {
		isOriginal[e] = true
	}

	prob := lp.NewProblem(lp.Minimize)

	// Variables: eVar[r][j] edge-on-path-r, nVar[r][i] node-on-path-r
	// (interior nodes only), sVar[j] free-edge-kept.
	const usageCost = 1e-3 // slight preference for short paths
	eVar := make([][]int, nPaths)
	nVar := make([][]int, nPaths)
	for r := 0; r < nPaths; r++ {
		eVar[r] = make([]int, nEdges)
		for j := 0; j < nEdges; j++ {
			eVar[r][j] = prob.AddBinaryVar(usageCost, fmt.Sprintf("e_%d_%d", j, r))
		}
		nVar[r] = make([]int, nNodes)
		for i := 0; i < nNodes; i++ {
			if i == srcNode || i == dstNode {
				nVar[r][i] = -1
				continue
			}
			nVar[r][i] = prob.AddBinaryVar(0, fmt.Sprintf("n_%d_%d", i, r))
		}
	}
	sVar := make([]int, nEdges)
	for j := 0; j < nEdges; j++ {
		if isOriginal[j] {
			sVar[j] = -1
			continue
		}
		cost := 1.0
		if opts.EdgeWeights != nil && j < len(opts.EdgeWeights) && opts.EdgeWeights[j] > 0 {
			cost += opts.EdgeWeights[j]
		}
		sVar[j] = prob.AddBinaryVar(cost, fmt.Sprintf("s_%d", j))
	}

	// (1)-(2): degree constraints per path.
	for r := 0; r < nPaths; r++ {
		for i := 0; i < nNodes; i++ {
			var terms []lp.Term
			for _, e := range g.IncidentEdges(i) {
				terms = append(terms, lp.T(eVar[r][e], 1))
			}
			if len(terms) == 0 {
				continue
			}
			if i == srcNode || i == dstNode {
				prob.AddConstraint(lp.Constraint{Terms: terms, Rel: lp.EQ, RHS: 1}) // (2)
			} else {
				terms = append(terms, lp.T(nVar[r][i], -2))
				prob.AddConstraint(lp.Constraint{Terms: terms, Rel: lp.EQ, RHS: 0}) // (1)
			}
		}
	}
	// (3): every original edge covered by at least one path.
	for j := 0; j < nEdges; j++ {
		if !isOriginal[j] {
			continue
		}
		var terms []lp.Term
		for r := 0; r < nPaths; r++ {
			terms = append(terms, lp.T(eVar[r][j], 1))
		}
		prob.AddConstraint(lp.Constraint{Terms: terms, Rel: lp.GE, RHS: 1})
	}
	// (4): kept-edge linking for free edges.
	for j := 0; j < nEdges; j++ {
		if isOriginal[j] {
			continue
		}
		for r := 0; r < nPaths; r++ {
			prob.AddConstraint(lp.Constraint{
				Terms: []lp.Term{lp.T(sVar[j], 1), lp.T(eVar[r][j], -1)},
				Rel:   lp.GE, RHS: 0,
			})
		}
	}

	// Lazy loop exclusion: reject integer candidates whose per-path edge
	// sets contain disjoint cycles.
	lazy := func(x []float64) []lp.Constraint {
		var cuts []lp.Constraint
		for r := 0; r < nPaths; r++ {
			var sel []int
			for j := 0; j < nEdges; j++ {
				if x[eVar[r][j]] > 0.5 {
					sel = append(sel, j)
				}
			}
			if len(sel) == 0 {
				continue
			}
			_, extras, ok := g.PathDecomposition(srcNode, dstNode, sel)
			if !ok {
				// No s-t component at all: forbid this exact selection on
				// path r (cannot happen with degree constraints, but be
				// safe).
				var terms []lp.Term
				for _, j := range sel {
					terms = append(terms, lp.T(eVar[r][j], 1))
				}
				cuts = append(cuts, lp.Constraint{Terms: terms, Rel: lp.LE, RHS: float64(len(sel) - 1)})
				continue
			}
			for _, cyc := range extras {
				// Subtour elimination on this path: a 2-regular component
				// of k edges may keep at most k-1 of them.
				var terms []lp.Term
				for _, j := range cyc {
					terms = append(terms, lp.T(eVar[r][j], 1))
				}
				cuts = append(cuts, lp.Constraint{Terms: terms, Rel: lp.LE, RHS: float64(len(cyc) - 1)})
			}
		}
		return cuts
	}
	return prob, &pathILPVars{eVar: eVar, sVar: sVar}, lazy
}

// PathILPModel builds the test-path generation ILP of the chip's paper
// test-port pair with |P| = nPaths, returning the model and its lazy
// loop-exclusion callback. It exists for benchmarking the branch-and-bound
// engine on the paper's real models (cmd/bench -mode ilp); the lazy callback
// adds cuts to the model, so callers must build a fresh model per solve.
func PathILPModel(c *chip.Chip, nPaths int) (*ilp.Model, func(x []float64) []lp.Constraint) {
	_, _, srcNode, dstNode := testPorts(c)
	prob, _, lazy := buildPathILP(c, srcNode, dstNode, nPaths, Options{})
	return ilp.NewModel(prob), lazy
}

func solvePathILP(ctx context.Context, c *chip.Chip, srcPort, dstPort, srcNode, dstNode, nPaths int, opts Options) (*Augmentation, error) {
	g := c.Grid.Graph()
	nEdges := g.NumEdges()
	prob, vars, lazy := buildPathILP(c, srcNode, dstNode, nPaths, opts)
	eVar, sVar := vars.eVar, vars.sVar

	maxNodes := opts.ILPMaxNodes
	if maxNodes <= 0 {
		maxNodes = 4000
	}
	res, err := ilp.NewModel(prob).SolveCtx(ctx, ilp.Options{
		MaxNodes: maxNodes,
		Workers:  opts.ilpWorkers(),
		Lazy:     lazy,
	})
	if err != nil {
		return nil, err
	}
	if opts.OnILPAttempt != nil {
		opts.OnILPAttempt(nPaths, res.Nodes, res.LazyCuts)
	}
	if opts.OnILPStats != nil {
		opts.OnILPStats(res.Stats)
	}
	switch res.Status {
	case ilp.Infeasible:
		return nil, fmt.Errorf("%w: |P|=%d", ErrInfeasible, nPaths)
	case ilp.Aborted:
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, fmt.Errorf("testgen: ILP cancelled at |P|=%d after %d nodes: %w", nPaths, res.Nodes, ctxErr)
		}
		return nil, fmt.Errorf("testgen: ILP aborted at |P|=%d after %d nodes", nPaths, res.Nodes)
	}

	// Decode: added edges and ordered paths.
	var added []int
	for j := 0; j < nEdges; j++ {
		if sVar[j] >= 0 && res.X[sVar[j]] > 0.5 {
			added = append(added, j)
		}
	}
	aug, err := applyAugmentation(c, added)
	if err != nil {
		return nil, err
	}
	paths := make([][]int, 0, nPaths)
	for r := 0; r < nPaths; r++ {
		var sel []int
		for j := 0; j < nEdges; j++ {
			if res.X[eVar[r][j]] > 0.5 {
				sel = append(sel, j)
			}
		}
		main, extras, ok := g.PathDecomposition(srcNode, dstNode, sel)
		if !ok || len(extras) > 0 {
			return nil, fmt.Errorf("testgen: path %d decoded with loops despite lazy cuts", r)
		}
		paths = append(paths, main)
	}
	return &Augmentation{
		Chip:       aug,
		AddedEdges: added,
		Paths:      paths,
		Source:     srcPort,
		Meter:      dstPort,
		Method:     "ilp",
		ILPNodes:   res.Nodes,
		LazyCuts:   res.LazyCuts,
	}, nil
}
