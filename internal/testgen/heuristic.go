package testgen

import (
	"context"
	"errors"
	"fmt"
	"math"
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
	return NewAugmentPlan(c).Heuristic(ctx, opts)
}

// AugmentRepair is the last-resort degradation tier: the same greedy
// engine in best-effort mode. Targets that cannot be routed — or that
// remain when the context expires — are skipped and recorded in
// Augmentation.Uncovered instead of failing the whole configuration, so
// the tier always returns a usable (possibly partial) DFT configuration.
// It fails only when even a partial configuration cannot be built.
func AugmentRepair(ctx context.Context, c *chip.Chip, opts Options) (*Augmentation, error) {
	return NewAugmentPlan(c).greedy(ctx, opts, true)
}

// AugmentPlan is the part of the greedy augmentation that depends on the
// chip alone: the test ports and the order in which the original channels
// are covered. A caller that augments one chip under many edge-weight
// biases (the outer PSO) builds it once. It is immutable, so concurrent
// Heuristic calls may share it.
type AugmentPlan struct {
	c                *chip.Chip
	srcPort, dstPort int
	srcNode, dstNode int
	isOriginal       []bool // isOriginal[e]: grid edge e is an original channel
	targets          []int  // the original edges in covering order
}

// NewAugmentPlan computes c's test ports and covering order. It panics,
// as MaxDistantPortPair does, when c has fewer than two ports.
func NewAugmentPlan(c *chip.Chip) *AugmentPlan {
	srcPort, dstPort, srcNode, dstNode := testPorts(c)
	g := c.Grid.Graph()
	p := &AugmentPlan{c: c, srcPort: srcPort, dstPort: dstPort, srcNode: srcNode, dstNode: dstNode,
		isOriginal: make([]bool, g.NumEdges()), targets: c.OriginalEdges()}
	for _, e := range p.targets {
		p.isOriginal[e] = true
	}
	// Deterministic order: cover original edges farthest from the source
	// first; their paths tend to sweep up closer edges for free.
	distFromSrc := g.BFSFrom(srcNode, nil)
	sort.SliceStable(p.targets, func(i, j int) bool {
		ui, vi := g.Endpoints(p.targets[i])
		uj, vj := g.Endpoints(p.targets[j])
		di := min(distFromSrc[ui], distFromSrc[vi])
		dj := min(distFromSrc[uj], distFromSrc[vj])
		if di != dj {
			return di > dj
		}
		return p.targets[i] < p.targets[j]
	})
	return p
}

// Heuristic is AugmentHeuristicCtx on the plan's chip.
func (p *AugmentPlan) Heuristic(ctx context.Context, opts Options) (*Augmentation, error) {
	return p.greedy(ctx, opts, false)
}

// greedy is the shared greedy engine. With bestEffort=false every
// original edge must be covered and cancellation aborts the run; with
// bestEffort=true unroutable or out-of-budget targets are collected in
// Augmentation.Uncovered and the partial configuration is returned.
func (p *AugmentPlan) greedy(ctx context.Context, opts Options, bestEffort bool) (*Augmentation, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	g := p.c.Grid.Graph()
	nEdges := g.NumEdges()

	// Edge traversal costs: original channels are nearly free (they exist),
	// already-chosen DFT edges are cheap (an edge's entry drops to 0.05
	// when a path chooses it), fresh free edges cost 1 plus the PSO bias.
	cost := make([]float64, nEdges)
	for e := range cost {
		if p.isOriginal[e] {
			cost[e] = 0.01
			continue
		}
		w := 1.0
		if opts.EdgeWeights != nil && e < len(opts.EdgeWeights) && opts.EdgeWeights[e] > 0 {
			w += opts.EdgeWeights[e]
		}
		cost[e] = w
	}
	chosen := make([]bool, nEdges) // free edges committed to the DFT config
	covered := make([]bool, nEdges)

	var paths [][]int
	var uncovered []int
	expired := false
	for _, target := range p.targets {
		if covered[target] {
			continue
		}
		if !expired && ctx.Err() != nil {
			if !bestEffort {
				return nil, fmt.Errorf("testgen: heuristic cancelled with %d targets left: %w", remainingTargets(p.targets, covered, target), ctx.Err())
			}
			expired = true
		}
		if expired {
			uncovered = append(uncovered, target)
			continue
		}
		path, err := routeThrough(g, p.srcNode, p.dstNode, target, cost)
		if err != nil {
			if bestEffort {
				uncovered = append(uncovered, target)
				continue
			}
			return nil, fmt.Errorf("testgen: heuristic cannot cover edge %d: %w (%w)", target, err, ErrInfeasible)
		}
		for _, e := range path {
			covered[e] = true
			if !p.isOriginal[e] {
				chosen[e] = true
				cost[e] = 0.05
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
	aug, err := applyAugmentation(p.c, added)
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
		Source:     p.srcPort,
		Meter:      p.dstPort,
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
// minimizing the summed edge cost, where cost[e] is edge e's cost and a
// negative entry forbids the edge. It tries both orientations: a shortest
// s→a leg, then a b→t leg that avoids every node of the first leg (keeping
// the whole path simple). Each leg searches its own table: a copy of cost
// with the edges it must not use set to -1. Its search buffers come from a
// pool, so a call allocates little beyond the returned path, and a failed
// one nothing.
//
// A candidate path costs total = (cost1 + cost[through]) + cost2, summed
// in that order, and replaces the best one only if total < bestCost. Once
// one orientation has a path, the other's legs are bounded searches that
// give up as soon as that comparison can no longer hold, which never
// changes the result: leg weights are nonnegative and IEEE addition is
// monotone, so total >= cost1 + cost[through] >= bestCost for a leg 1
// given up with offset cost[through], and total >= bestCost for a leg 2
// given up with offset cost1 + cost[through]. Until it gives up, a bounded
// search is the unbounded one step for step (graphalg.BoundedPathScratch).
func routeThrough(g *graphalg.Graph, s, t, through int, cost []float64) ([]int, error) {
	rs := routeScratchPool.Get().(*routeScratch)
	defer routeScratchPool.Put(rs)
	u, v := g.Endpoints(through)
	ct := cost[through]
	var best []int
	bestCost := 0.0
	for _, orient := range [2][2]int{{u, v}, {v, u}} {
		a, b := orient[0], orient[1]
		limit := math.Inf(1)
		if best != nil {
			limit = bestCost
		}
		// Leg 1: s -> a, avoiding `through` and node t (t must stay free
		// for the second leg's endpoint) and node b (the path must cross
		// `through` exactly once).
		w1 := append(rs.w1[:0], cost...)
		rs.w1 = w1
		w1[through] = -1
		if a != t {
			banNode(g, w1, t)
		}
		banNode(g, w1, b)
		edges1, cost1, ok := g.BoundedPathScratch(&rs.leg1, s, a, w1, ct, limit)
		if !ok {
			continue
		}
		// Leg 2: b -> t avoiding `through` and every leg-1 node but b.
		w2 := append(rs.w2[:0], cost...)
		rs.w2 = w2
		w2[through] = -1
		n := s
		if n != b {
			banNode(g, w2, n)
		}
		for _, e := range edges1 {
			if x, y := g.Endpoints(e); x == n {
				n = y
			} else {
				n = x
			}
			if n != b {
				banNode(g, w2, n)
			}
		}
		edges2, cost2, ok := g.BoundedPathScratch(&rs.leg2, b, t, w2, cost1+ct, limit)
		if !ok {
			continue
		}
		total := cost1 + ct + cost2
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

// banNode forbids every edge incident to node n in the weight table w.
func banNode(g *graphalg.Graph, w []float64, n int) {
	for _, a := range g.Adjacency(n) {
		w[a.Edge] = -1
	}
}

// routeScratch holds routeThrough's reusable buffers: one PathScratch per
// leg (leg 1's path must survive the leg-2 search) and the legs' weight
// tables.
type routeScratch struct {
	leg1, leg2 graphalg.PathScratch
	w1, w2     []float64
}

var routeScratchPool = sync.Pool{New: func() any { return new(routeScratch) }}
