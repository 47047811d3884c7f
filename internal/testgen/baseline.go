package testgen

import (
	"fmt"
	"sort"

	"repro/internal/chip"
	"repro/internal/fault"
)

// BaselineVectors generates a multi-source multi-meter test set for the
// original (unaugmented) chip, in the style of refs. [15]/[16]: every port
// may carry a pressure source or a meter, path vectors may run between any
// port pair, and node-disjoint paths are packed into a single vector (one
// instrument pair each, applied simultaneously). This is the comparison
// point of the paper's Fig. 8 — the baseline needs fewer vectors but a
// full rack of instruments, while the DFT chip needs one source and one
// meter but more vectors.
//
// It returns the path vectors and cut vectors separately; the total vector
// count is len(paths)+len(cuts).
func BaselineVectors(c *chip.Chip) (paths, cuts []fault.Vector, err error) {
	paths, err = baselinePathVectors(c)
	if err != nil {
		return nil, nil, err
	}
	cuts, err = baselineCutVectors(c)
	if err != nil {
		return nil, nil, err
	}
	return paths, cuts, nil
}

// baselinePathVectors greedily covers every valve with port-to-port paths
// (any pair), then packs node-disjoint paths into shared vectors.
func baselinePathVectors(c *chip.Chip) ([]fault.Vector, error) {
	g := c.Grid.Graph()
	hops := channelCost(channelMask(c))
	covered := make([]bool, c.NumValves())

	type rawPath struct {
		edges    []int
		nodes    map[int]bool
		src, dst int // port IDs
	}
	var raw []rawPath

	for valve := 0; valve < c.NumValves(); valve++ {
		if covered[valve] {
			continue
		}
		edge := c.Valve(valve).Edge
		// Best simple port-to-port path through this valve's edge: try all
		// port pairs, keep the shortest.
		var best *rawPath
		for i := 0; i < len(c.Ports); i++ {
			for j := 0; j < len(c.Ports); j++ {
				if i == j {
					continue
				}
				p, perr := routeThrough(g, c.Ports[i].Node, c.Ports[j].Node, edge, hops)
				if perr != nil {
					continue
				}
				if best == nil || len(p) < len(best.edges) {
					nodes := pathNodes(g, p)
					best = &rawPath{edges: p, nodes: nodes, src: i, dst: j}
				}
			}
		}
		if best == nil {
			return nil, fmt.Errorf("testgen: baseline cannot cover valve %d with any port pair", valve)
		}
		for _, e := range best.edges {
			if v, ok := c.ValveOnEdge(e); ok {
				covered[v] = true
			}
		}
		raw = append(raw, *best)
	}

	// Pack paths into vectors (first-fit decreasing). Two paths may share a
	// vector when they are node-disjoint, or when they share only their
	// source port: one pressure source feeding a tree whose branches end at
	// distinct meters (the Fig. 4(a) scenario). A stuck-at-0 valve on one
	// branch then silences exactly that branch's meter.
	sort.SliceStable(raw, func(i, j int) bool { return len(raw[i].edges) > len(raw[j].edges) })
	type bundle struct {
		paths  []rawPath
		nodes  map[int]bool
		srcs   map[int]bool // port IDs used as sources
		meters map[int]bool // port IDs used as meters
	}
	var bundles []*bundle
	for _, rp := range raw {
		placed := false
		for _, b := range bundles {
			// Port feasibility: a port is either a source or a meter.
			if b.meters[rp.src] || b.srcs[rp.dst] || b.meters[rp.dst] {
				continue
			}
			newSrc := 0
			if !b.srcs[rp.src] {
				newSrc = 1
			}
			if len(b.srcs)+newSrc+len(b.meters)+1 > len(c.Ports) {
				continue // not enough physical ports for the instruments
			}
			// Node disjointness, except the shared source node.
			srcNode := c.Ports[rp.src].Node
			overlap := false
			for n := range rp.nodes {
				if b.nodes[n] && !(n == srcNode && b.srcs[rp.src]) {
					overlap = true
					break
				}
			}
			if overlap {
				continue
			}
			b.paths = append(b.paths, rp)
			for n := range rp.nodes {
				b.nodes[n] = true
			}
			b.srcs[rp.src] = true
			b.meters[rp.dst] = true
			placed = true
			break
		}
		if !placed {
			b := &bundle{nodes: map[int]bool{}, srcs: map[int]bool{}, meters: map[int]bool{}}
			b.paths = []rawPath{rp}
			for n := range rp.nodes {
				b.nodes[n] = true
			}
			b.srcs[rp.src] = true
			b.meters[rp.dst] = true
			bundles = append(bundles, b)
		}
	}

	out := make([]fault.Vector, 0, len(bundles))
	for _, b := range bundles {
		var valves []int
		for _, rp := range b.paths {
			for _, e := range rp.edges {
				v, _ := c.ValveOnEdge(e)
				valves = append(valves, v)
			}
		}
		srcs := sortedKeys(b.srcs)
		meters := sortedKeys(b.meters)
		sort.Ints(valves)
		out = append(out, fault.Vector{Kind: fault.PathVector, Valves: valves, Sources: srcs, Meters: meters})
	}
	return out, nil
}

// baselineCutVectors generates cuts per valve using the best port pair for
// each valve, then greedily covers all valves.
func baselineCutVectors(c *chip.Chip) ([]fault.Vector, error) {
	sim := fault.MustSimulator(c, chip.IndependentControl(c))
	g := c.Grid.Graph()
	channelOnly := channelMask(c)
	type candidate struct {
		vector  fault.Vector
		detects []int
	}
	var cands []candidate
	sc := cutScratchPool.Get().(*cutScratch)
	defer cutScratchPool.Put(sc)
	for valve := 0; valve < c.NumValves(); valve++ {
		edge := c.Valve(valve).Edge
		var best *candidate
		for i := 0; i < len(c.Ports); i++ {
			for j := 0; j < len(c.Ports); j++ {
				if i == j {
					continue
				}
				cutEdges, err := cutThroughWithLeak(sc, g, c.Ports[i].Node, c.Ports[j].Node, edge, channelOnly)
				if err != nil {
					continue
				}
				var valves []int
				for _, e := range cutEdges {
					cv, _ := c.ValveOnEdge(e)
					valves = append(valves, cv)
				}
				sort.Ints(valves)
				vec := fault.Vector{Kind: fault.CutVector, Valves: valves, Sources: []int{i}, Meters: []int{j}}
				det, _ := cutDetections(sim, vec)
				if !containsInt(det, valve) {
					continue
				}
				if best == nil || len(det) > len(best.detects) {
					best = &candidate{vector: vec, detects: det}
				}
			}
		}
		if best == nil {
			return nil, fmt.Errorf("testgen: baseline has no detecting cut for valve %d", valve)
		}
		cands = append(cands, *best)
	}
	// Greedy cover.
	covered := make([]bool, c.NumValves())
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
			return nil, fmt.Errorf("testgen: baseline cuts leave valve %d uncovered", v)
		}
	}
	return out, nil
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func pathNodes(g interface{ Endpoints(int) (int, int) }, edges []int) map[int]bool {
	nodes := make(map[int]bool, len(edges)+1)
	for _, e := range edges {
		u, v := g.Endpoints(e)
		nodes[u] = true
		nodes[v] = true
	}
	return nodes
}
