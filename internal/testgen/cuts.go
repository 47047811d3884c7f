package testgen

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/graphalg"
)

// GenerateCuts produces a set of test-cut vectors between ports src and dst
// that together detect a stuck-at-1 fault on every valve of the chip. For
// each valve the generator finds a separating valve set containing it whose
// closure still leaves a pressure leak path through the valve (otherwise
// the defect would be undetectable); a greedy set cover then minimizes the
// number of cut vectors, the complementary problem the paper describes in
// Section 3.
//
// Detection is certified by fault simulation under independent control;
// sharing-induced masking is re-checked by the caller with its own control
// assignment.
func GenerateCuts(c *chip.Chip, src, dst int) ([]fault.Vector, error) {
	return GenerateCutsCtx(context.Background(), c, src, dst)
}

// GenerateCutsCtx is GenerateCuts with cooperative cancellation, checked
// once per valve during candidate generation.
func GenerateCutsCtx(ctx context.Context, c *chip.Chip, src, dst int) ([]fault.Vector, error) {
	sim := fault.MustSimulator(c, chip.IndependentControl(c))
	srcNode, dstNode := c.Ports[src].Node, c.Ports[dst].Node
	g := c.Grid.Graph()
	channelOnly := channelMask(c)

	// One candidate cut per valve, then greedy cover.
	type candidate struct {
		vector  fault.Vector
		detects []int // valves whose stuck-at-1 this cut provably detects
	}
	var cands []candidate
	covered := make([]bool, c.NumValves())
	sc := cutScratchPool.Get().(*cutScratch)
	defer cutScratchPool.Put(sc)

	for valve := 0; valve < c.NumValves(); valve++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("testgen: cut generation cancelled at valve %d/%d: %w", valve, c.NumValves(), err)
		}
		edge := c.Valve(valve).Edge
		cutEdges, err := cutThroughWithLeak(sc, g, srcNode, dstNode, edge, channelOnly)
		if err != nil {
			return nil, fmt.Errorf("testgen: no detecting cut for valve %d: %w", valve, err)
		}
		valves := make([]int, 0, len(cutEdges))
		for _, e := range cutEdges {
			cv, ok := c.ValveOnEdge(e)
			if !ok {
				return nil, fmt.Errorf("testgen: cut edge %d has no valve", e)
			}
			valves = append(valves, cv)
		}
		sort.Ints(valves)
		vec := fault.Vector{Kind: fault.CutVector, Valves: valves, Sources: []int{src}, Meters: []int{dst}}
		det, usable := cutDetections(sim, vec)
		if !usable {
			return nil, fmt.Errorf("testgen: cut for valve %d does not separate", valve)
		}
		if !containsInt(det, valve) {
			return nil, fmt.Errorf("testgen: cut for valve %d does not detect it", valve)
		}
		cands = append(cands, candidate{vector: vec, detects: det})
	}

	// Greedy set cover over candidate cuts.
	var out []fault.Vector
	for {
		bestIdx, bestGain := -1, 0
		for i, cand := range cands {
			gain := 0
			for _, v := range cand.detects {
				if !covered[v] {
					gain++
				}
			}
			if gain > bestGain {
				bestGain, bestIdx = gain, i
			}
		}
		if bestIdx < 0 {
			break
		}
		for _, v := range cands[bestIdx].detects {
			covered[v] = true
		}
		out = append(out, cands[bestIdx].vector)
	}
	for v, ok := range covered {
		if !ok {
			return nil, fmt.Errorf("testgen: valve %d left uncovered by cuts", v)
		}
	}
	return out, nil
}

// cutDetections returns the valves of cut vector vec whose stuck-at-1
// faults it detects under sim's control, in vec.Valves order, and whether
// vec is usable (FaultFreeOK), from one evaluation of vec. An unusable vec
// detects nothing.
func cutDetections(sim *fault.Simulator, vec fault.Vector) (detects []int, usable bool) {
	faults := make([]fault.Fault, len(vec.Valves))
	for i, v := range vec.Valves {
		faults[i] = fault.Fault{Kind: fault.StuckAt1, Valve: v}
	}
	covered := make([]uint64, (len(faults)+63)/64)
	if !sim.Cover(vec, faults, covered) {
		return nil, false
	}
	for i, v := range vec.Valves {
		if covered[i>>6]&(1<<(uint(i)&63)) != 0 {
			detects = append(detects, v)
		}
	}
	return detects, true
}

// errNoLeakCut marks valves for which no leak-preserving cut exists.
var errNoLeakCut = fmt.Errorf("no leak-preserving cut exists")

// cutThroughWithLeak finds a set of edges admitted by the mask allow,
// containing `through`, that separates s from t, such that closing the set
// minus `through` still leaves an s-t leak path across `through` (the
// detection condition for a stuck-at-1 valve on `through`). It protects a
// witness leak path with large flow capacities so the min cut cannot sever
// it anywhere except at `through` itself.
// The returned cut aliases the scratch and is overwritten by its next
// query.
func cutThroughWithLeak(sc *cutScratch, g *graphalg.Graph, s, t, through int, allow []bool) ([]int, error) {
	return cutThroughWithLeakAvoiding(sc, g, s, t, through, allow, allow, nil)
}

// channelMask returns c's channel edges as an edge mask: mask[e] reports
// whether grid edge e carries a valve.
func channelMask(c *chip.Chip) []bool {
	mask := make([]bool, c.Grid.Graph().NumEdges())
	for e := range mask {
		_, mask[e] = c.ValveOnEdge(e)
	}
	return mask
}

// channelCost returns the routing table of channel-only paths over the
// channel mask: every channel edge costs one hop, every other edge is
// forbidden.
func channelCost(channel []bool) []float64 {
	cost := make([]float64, len(channel))
	for e, ok := range channel {
		cost[e] = -1
		if ok {
			cost[e] = 1
		}
	}
	return cost
}

func containsInt(s []int, x int) bool {
	for _, v := range s {
		if v == x {
			return true
		}
	}
	return false
}
