package testgen

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/chip"
	"repro/internal/graphalg"
)

// AugmentHeuristic computes a DFT configuration greedily: for every
// original channel edge not yet covered, it routes a simple source→meter
// path through that edge, preferring already-existing channels (near-zero
// cost) over new edges (unit cost plus the PSO bias from
// Options.EdgeWeights). The result is feasible by construction — every
// original and added edge lies on a simple s-t path — but not necessarily
// minimal in added edges. The two-level PSO uses this engine to evaluate
// many configurations quickly; AugmentILPCtx provides the exact optimum.
func AugmentHeuristic(c *chip.Chip, opts Options) (*Augmentation, error) {
	return AugmentHeuristicCtx(context.Background(), c, opts)
}

// AugmentHeuristicCtx is AugmentHeuristic with cooperative cancellation,
// checked once per covered target edge. A cancelled run fails with the
// context's error; an uncoverable edge fails with an error wrapping
// ErrInfeasible.
func AugmentHeuristicCtx(ctx context.Context, c *chip.Chip, opts Options) (*Augmentation, error) {
	return augmentGreedy(ctx, c, opts, false)
}

// AugmentRepair is the last-resort degradation tier: the same greedy
// engine in best-effort mode. Targets that cannot be routed — or that
// remain when the context expires — are skipped and recorded in
// Augmentation.Uncovered instead of failing the whole configuration, so
// the tier always returns a usable (possibly partial) DFT configuration.
// It fails only when even a partial configuration cannot be built.
func AugmentRepair(ctx context.Context, c *chip.Chip, opts Options) (*Augmentation, error) {
	return augmentGreedy(ctx, c, opts, true)
}

// augmentGreedy is the shared greedy engine. With bestEffort=false every
// original edge must be covered and cancellation aborts the run; with
// bestEffort=true unroutable or out-of-budget targets are collected in
// Augmentation.Uncovered and the partial configuration is returned.
func augmentGreedy(ctx context.Context, c *chip.Chip, opts Options, bestEffort bool) (*Augmentation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	srcPort, dstPort, srcNode, dstNode := testPorts(c)
	g := c.Grid.Graph()
	nEdges := g.NumEdges()

	isOriginal := make([]bool, nEdges)
	for _, e := range c.OriginalEdges() {
		isOriginal[e] = true
	}
	chosen := make([]bool, nEdges) // free edges committed to the DFT config
	covered := make([]bool, nEdges)

	// Edge traversal costs: original channels are nearly free (they exist),
	// already-chosen DFT edges are cheap, fresh free edges cost 1 plus the
	// PSO bias.
	cost := func(e int) float64 {
		switch {
		case isOriginal[e]:
			return 0.01
		case chosen[e]:
			return 0.05
		default:
			w := 1.0
			if opts.EdgeWeights != nil && e < len(opts.EdgeWeights) && opts.EdgeWeights[e] > 0 {
				w += opts.EdgeWeights[e]
			}
			return w
		}
	}

	// Deterministic order: cover original edges farthest from the source
	// first; their paths tend to sweep up closer edges for free.
	targets := append([]int(nil), c.OriginalEdges()...)
	distFromSrc := g.BFSFrom(srcNode, nil)
	sort.SliceStable(targets, func(i, j int) bool {
		ui, vi := g.Endpoints(targets[i])
		uj, vj := g.Endpoints(targets[j])
		di := min(distFromSrc[ui], distFromSrc[vi])
		dj := min(distFromSrc[uj], distFromSrc[vj])
		if di != dj {
			return di > dj
		}
		return targets[i] < targets[j]
	})

	var paths [][]int
	var uncovered []int
	expired := false
	for _, target := range targets {
		if covered[target] {
			continue
		}
		if !expired && ctx.Err() != nil {
			if !bestEffort {
				return nil, fmt.Errorf("testgen: heuristic cancelled with %d targets left: %w", remainingTargets(targets, covered, target), ctx.Err())
			}
			expired = true
		}
		if expired {
			uncovered = append(uncovered, target)
			continue
		}
		path, err := routeThrough(c, srcNode, dstNode, target, cost)
		if err != nil {
			if bestEffort {
				uncovered = append(uncovered, target)
				continue
			}
			return nil, fmt.Errorf("testgen: heuristic cannot cover edge %d: %w (%w)", target, err, ErrInfeasible)
		}
		for _, e := range path {
			covered[e] = true
			if !isOriginal[e] {
				chosen[e] = true
			}
		}
		paths = append(paths, path)
	}

	var added []int
	for e := 0; e < nEdges; e++ {
		if chosen[e] {
			added = append(added, e)
		}
	}
	aug, err := applyAugmentation(c, added)
	if err != nil {
		return nil, err
	}
	method := "heuristic"
	if bestEffort {
		method = "repair"
	}
	return &Augmentation{
		Chip:       aug,
		AddedEdges: added,
		Paths:      paths,
		Source:     srcPort,
		Meter:      dstPort,
		Method:     method,
		Uncovered:  uncovered,
	}, nil
}

// remainingTargets counts not-yet-covered targets from `from` onward
// (inclusive), for cancellation diagnostics.
func remainingTargets(targets []int, covered []bool, from int) int {
	n := 0
	seen := false
	for _, t := range targets {
		if t == from {
			seen = true
		}
		if seen && !covered[t] {
			n++
		}
	}
	return n
}

// errNoRoute marks an edge that no simple path crosses under the routing
// cost. Repairs and suite generation try many edges that fail, so a failed
// routing returns this one value instead of building an error.
var errNoRoute = errors.New("no simple path through the edge")

// routeThrough finds a simple s-t path through the edge `through`,
// minimizing the summed edge cost. It tries both orientations: a shortest
// s→a leg, then a b→t leg that avoids every node of the first leg (keeping
// the whole path simple). Its search buffers come from a pool, so a call
// allocates little beyond the returned path, and a failed one nothing.
func routeThrough(c *chip.Chip, s, t, through int, cost func(int) float64) ([]int, error) {
	rs := routeScratchPool.Get().(*routeScratch)
	defer routeScratchPool.Put(rs)
	g := c.Grid.Graph()
	u, v := g.Endpoints(through)
	rs.onLeg1 = growEpochs(rs.onLeg1, g.NumNodes())
	var best []int
	bestCost := 0.0
	for _, orient := range [2][2]int{{u, v}, {v, u}} {
		a, b := orient[0], orient[1]
		// Leg 1: s -> a, avoiding `through` and node t (t must stay free
		// for the second leg's endpoint) and node b (the path must cross
		// `through` exactly once).
		w1 := func(e int) float64 {
			if e == through {
				return -1
			}
			x, y := g.Endpoints(e)
			if a != t && (x == t || y == t) {
				return -1
			}
			if x == b || y == b {
				return -1
			}
			return cost(e)
		}
		edges1, cost1, ok := g.WeightedShortestPathScratch(&rs.leg1, s, a, w1)
		if !ok {
			continue
		}
		// Mark leg 1's nodes by walking its edges from s.
		rs.epoch++
		epoch := rs.epoch
		n := s
		rs.onLeg1[n] = epoch
		for _, e := range edges1 {
			if x, y := g.Endpoints(e); x == n {
				n = y
			} else {
				n = x
			}
			rs.onLeg1[n] = epoch
		}
		// Leg 2: b -> t avoiding all leg-1 nodes and `through`.
		w2 := func(e int) float64 {
			if e == through {
				return -1
			}
			x, y := g.Endpoints(e)
			if (rs.onLeg1[x] == epoch && x != b) || (rs.onLeg1[y] == epoch && y != b) {
				return -1
			}
			return cost(e)
		}
		edges2, cost2, ok := g.WeightedShortestPathScratch(&rs.leg2, b, t, w2)
		if !ok {
			continue
		}
		total := cost1 + cost(through) + cost2
		if best == nil || total < bestCost {
			best = append(append(append(best[:0], edges1...), through), edges2...)
			bestCost = total
		}
	}
	if best == nil {
		return nil, errNoRoute
	}
	return best, nil
}

// routeScratch holds routeThrough's reusable buffers: one PathScratch per
// leg (leg 1's path must survive the leg-2 search) and the leg-1 node
// marks.
type routeScratch struct {
	leg1, leg2 graphalg.PathScratch
	onLeg1     []int // onLeg1[node] == epoch: the node lies on leg 1
	epoch      int
}

var routeScratchPool = sync.Pool{New: func() any { return new(routeScratch) }}
