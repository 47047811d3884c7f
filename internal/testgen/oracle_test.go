package testgen

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/graphalg"
)

// The oracles below are the graph searches of the repair loop, the greedy
// augmentation and the suite generators as they stood before the searches
// read per-edge tables: closures for costs and filters, the allocating
// graphalg searches, a fresh flow network per query and no pruning. The
// tests pin the table-driven code against them edge for edge.

// routeThroughOracle is routeThrough with a cost closure and two unbounded
// legs.
func routeThroughOracle(g *graphalg.Graph, s, t, through int, cost func(int) float64) ([]int, error) {
	u, v := g.Endpoints(through)
	var best []int
	bestCost := 0.0
	for _, orient := range [2][2]int{{u, v}, {v, u}} {
		a, b := orient[0], orient[1]
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
		nodes1, edges1, cost1, ok := g.WeightedShortestPath(s, a, w1)
		if !ok {
			continue
		}
		onLeg1 := make(map[int]bool, len(nodes1))
		for _, n := range nodes1 {
			onLeg1[n] = true
		}
		w2 := func(e int) float64 {
			if e == through {
				return -1
			}
			x, y := g.Endpoints(e)
			if (onLeg1[x] && x != b) || (onLeg1[y] && y != b) {
				return -1
			}
			return cost(e)
		}
		_, edges2, cost2, ok := g.WeightedShortestPath(b, t, w2)
		if !ok {
			continue
		}
		total := cost1 + cost(through) + cost2
		if best == nil || total < bestCost {
			best = append(append(append([]int(nil), edges1...), through), edges2...)
			bestCost = total
		}
	}
	if best == nil {
		return nil, errNoRoute
	}
	return best, nil
}

// cutThroughOracle is cutThroughWithLeakAvoiding with filter closures, the
// allocating BFS legs and a max flow on every orientation.
func cutThroughOracle(g *graphalg.Graph, s, t, through int, legAllow, allow func(int) bool, lines *lineIndex) ([]int, error) {
	u, v := g.Endpoints(through)
	const big = 1 << 20
	legExcept := func(e int) bool { return e != through && legAllow(e) }
	for _, orient := range [2][2]int{{u, v}, {v, u}} {
		a, b := orient[0], orient[1]
		nodes1, leg1, ok1 := g.ShortestPath(s, a, legExcept)
		if !ok1 {
			continue
		}
		onLeg1 := make(map[int]bool, len(nodes1))
		for _, n := range nodes1 {
			onLeg1[n] = true
		}
		disjoint := func(e int) bool {
			if !legExcept(e) {
				return false
			}
			x, y := g.Endpoints(e)
			return !onLeg1[x] && !onLeg1[y]
		}
		_, leg2, ok2 := g.ShortestPath(b, t, disjoint)
		if !ok2 {
			_, leg2, ok2 = g.ShortestPath(b, t, legExcept)
		}
		if !ok2 {
			continue
		}
		protect := make(map[int]bool)
		for _, leg := range [2][]int{leg1, leg2} {
			for _, e := range leg {
				protect[e] = true
				if lines == nil {
					continue
				}
				if l := lines.edgeLine[e]; l >= 0 {
					for _, e2 := range lines.lineEdges[l] {
						protect[e2] = true
					}
				}
			}
		}
		net := graphalg.NewFlowNetwork(g.NumNodes())
		for e := 0; e < g.NumEdges(); e++ {
			if e == through || !allow(e) {
				continue
			}
			capacity := 1
			if protect[e] {
				capacity = big
			}
			x, y := g.Endpoints(e)
			net.AddArc(x, y, capacity, e)
			net.AddArc(y, x, capacity, e)
		}
		if net.MaxFlow(s, t) >= big {
			continue
		}
		cut := append(append([]int(nil), net.MinCutArcs(s)...), through)
		sort.Ints(cut)
		return cut, nil
	}
	return nil, errNoLeakCut
}

// greedyOracle is the greedy augmentation with the cost closure, computing
// its ports and covering order per call.
func greedyOracle(c *chip.Chip, weights []float64) (added []int, paths [][]int, err error) {
	_, _, srcNode, dstNode := testPorts(c)
	g := c.Grid.Graph()
	isOriginal := make([]bool, g.NumEdges())
	for _, e := range c.OriginalEdges() {
		isOriginal[e] = true
	}
	chosen := make([]bool, g.NumEdges())
	covered := make([]bool, g.NumEdges())
	cost := func(e int) float64 {
		switch {
		case isOriginal[e]:
			return 0.01
		case chosen[e]:
			return 0.05
		default:
			w := 1.0
			if weights != nil && e < len(weights) && weights[e] > 0 {
				w += weights[e]
			}
			return w
		}
	}
	targets := c.OriginalEdges()
	dist := g.BFSFrom(srcNode, nil)
	sort.SliceStable(targets, func(i, j int) bool {
		ui, vi := g.Endpoints(targets[i])
		uj, vj := g.Endpoints(targets[j])
		di, dj := min(dist[ui], dist[vi]), min(dist[uj], dist[vj])
		if di != dj {
			return di > dj
		}
		return targets[i] < targets[j]
	})
	for _, target := range targets {
		if covered[target] {
			continue
		}
		path, err := routeThroughOracle(g, srcNode, dstNode, target, cost)
		if err != nil {
			return nil, nil, fmt.Errorf("edge %d: %w", target, err)
		}
		for _, e := range path {
			covered[e] = true
			if !isOriginal[e] {
				chosen[e] = true
			}
		}
		paths = append(paths, path)
	}
	for e, ok := range chosen {
		if ok {
			added = append(added, e)
		}
	}
	return added, paths, nil
}

// tieWeights returns a cost table drawn from the greedy augmentation's
// 0.01/0.05/1, the repairs' 8 and forbidden edges, so equal-cost routes
// are common.
func tieWeights(rng *rand.Rand, m int) []float64 {
	classes := []float64{-1, 0.01, 0.01, 0.05, 1, 1, 8}
	w := make([]float64, m)
	for e := range w {
		w[e] = classes[rng.Intn(len(classes))]
	}
	return w
}

// oracleChips returns the benchmark chips, their heuristic augmentations
// and a few random chips: the graphs the searches run on.
func oracleChips(t *testing.T) []*chip.Chip {
	t.Helper()
	var out []*chip.Chip
	for _, c := range chip.Benchmarks() {
		aug, err := AugmentHeuristic(c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, c, aug.Chip)
	}
	for seed := int64(0); seed < 4; seed++ {
		out = append(out, chip.Random(rand.New(rand.NewSource(seed))))
	}
	return out
}

// TestRouteThroughMatchesOracle: on random cost tables full of exact ties,
// the table-driven, pruned routeThrough returns the oracle's path edge for
// edge, and fails exactly when it does.
func TestRouteThroughMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	found, failed := 0, 0
	for _, c := range oracleChips(t) {
		g := c.Grid.Graph()
		for trial := 0; trial < 40; trial++ {
			w := tieWeights(rng, g.NumEdges())
			cost := func(e int) float64 { return w[e] }
			s, dst := rng.Intn(g.NumNodes()), rng.Intn(g.NumNodes())
			through := rng.Intn(g.NumEdges())
			want, wantErr := routeThroughOracle(g, s, dst, through, cost)
			got, err := routeThrough(g, s, dst, through, w)
			if (err == nil) != (wantErr == nil) || !slices.Equal(got, want) {
				t.Fatalf("%s %d->%d through %d: got %v (%v), oracle %v (%v)", c.Name, s, dst, through, got, err, want, wantErr)
			}
			if err == nil {
				found++
			} else {
				failed++
			}
		}
	}
	if found == 0 || failed == 0 {
		t.Fatalf("degenerate sample: %d routed, %d failed", found, failed)
	}
}

// TestCutSearchMatchesOracle: the mask-driven cut search, with its
// max-flow skip, returns the oracle's cut on random leg and cut masks and
// on random sharing schemes' line tables.
func TestCutSearchMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	var sc cutScratch
	var lines lineIndex
	found, failed := 0, 0
	for _, c := range oracleChips(t) {
		g := c.Grid.Graph()
		channel := channelMask(c)
		ctrl := chip.IndependentControl(c)
		if n := c.NumDFTValves(); n > 0 {
			partners := make([]int, n)
			perm := rng.Perm(c.NumOriginalValves())
			for i := range partners {
				partners[i] = -1
				if i < len(perm) && rng.Intn(3) > 0 {
					partners[i] = perm[i]
				}
			}
			var err error
			if ctrl, err = chip.SharedControl(c, partners); err != nil {
				t.Fatal(err)
			}
		}
		lines.build(c, ctrl)
		for trial := 0; trial < 30; trial++ {
			legAllow, allow := slices.Clone(channel), slices.Clone(channel)
			for e := range legAllow {
				if rng.Intn(5) == 0 {
					legAllow[e] = false
				}
				if rng.Intn(8) == 0 {
					allow[e] = false
				}
			}
			var li *lineIndex
			if trial%2 == 1 {
				li = &lines
			}
			s, dst := rng.Intn(g.NumNodes()), rng.Intn(g.NumNodes())
			if s == dst {
				continue
			}
			through := c.Valve(rng.Intn(c.NumValves())).Edge
			want, wantErr := cutThroughOracle(g, s, dst, through,
				func(e int) bool { return legAllow[e] }, func(e int) bool { return allow[e] }, li)
			got, err := cutThroughWithLeakAvoiding(&sc, g, s, dst, through, legAllow, allow, li)
			if (err == nil) != (wantErr == nil) || !slices.Equal(got, want) {
				t.Fatalf("%s %d->%d through %d: got %v (%v), oracle %v (%v)", c.Name, s, dst, through, got, err, want, wantErr)
			}
			if err == nil {
				found++
			} else {
				failed++
			}
		}
	}
	if found == 0 || failed == 0 {
		t.Fatalf("degenerate sample: %d cuts, %d failures", found, failed)
	}
}

// TestAugmentPlanMatchesOracle: the plan's greedy augmentation, on its
// cost table, adds the oracle's edges and routes the oracle's paths under
// random PSO biases.
func TestAugmentPlanMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, c := range append(chip.Benchmarks(), chip.Random(rand.New(rand.NewSource(5)))) {
		plan := NewAugmentPlan(c)
		for trial := 0; trial < 6; trial++ {
			var weights []float64
			if trial > 0 {
				weights = make([]float64, c.Grid.NumEdges())
				for e := range weights {
					if rng.Intn(3) == 0 {
						weights[e] = float64(rng.Intn(4)) * 0.5
					}
				}
			}
			wantAdded, wantPaths, wantErr := greedyOracle(c, weights)
			aug, err := plan.Heuristic(context.Background(), Options{EdgeWeights: weights})
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%s trial %d: err %v, oracle %v", c.Name, trial, err, wantErr)
			}
			if err != nil {
				continue
			}
			if !slices.Equal(aug.AddedEdges, wantAdded) || len(aug.Paths) != len(wantPaths) {
				t.Fatalf("%s trial %d: added %v (%d paths), oracle %v (%d paths)", c.Name, trial, aug.AddedEdges, len(aug.Paths), wantAdded, len(wantPaths))
			}
			for i := range wantPaths {
				if !slices.Equal(aug.Paths[i], wantPaths[i]) {
					t.Fatalf("%s trial %d path %d: %v, oracle %v", c.Name, trial, i, aug.Paths[i], wantPaths[i])
				}
			}
		}
	}
}

// TestRepairSearchesMatchOracle: under random sharing schemes, each
// valve's path and cut repairs on the per-scheme tables return the
// vectors the closure-based searches return.
func TestRepairSearchesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var probe fault.Probe
	rs := new(repairScratch)
	paths, cuts := 0, 0
	for _, c := range chip.Benchmarks() {
		aug, err := AugmentHeuristic(c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		ac := aug.Chip
		g := ac.Grid.Graph()
		srcNode, meterNode := ac.Ports[aug.Source].Node, ac.Ports[aug.Meter].Node
		for scheme := 0; scheme < 4; scheme++ {
			partners := make([]int, ac.NumDFTValves())
			perm := rng.Perm(ac.NumOriginalValves())
			for i := range partners {
				partners[i] = -1
				if i < len(perm) {
					partners[i] = perm[i]
				}
			}
			ctrl, err := chip.SharedControl(ac, partners)
			if err != nil {
				t.Fatal(err)
			}
			if err := probe.Reset(ac, ctrl, nil); err != nil {
				t.Fatal(err)
			}
			rs.index(ac, ctrl)
			for v := 0; v < ac.NumValves(); v++ {
				got, gotOK := rs.repairPath(ac, &probe, g, srcNode, meterNode, aug.Source, aug.Meter, v)
				want, wantOK := repairPathOracle(ac, &probe, g, srcNode, meterNode, aug.Source, aug.Meter, v, rs.sharedLine)
				if gotOK != wantOK || !slices.Equal(got.Valves, want.Valves) {
					t.Fatalf("%s scheme %d valve %d: path repair %v (%v), oracle %v (%v)", ac.Name, scheme, v, got.Valves, gotOK, want.Valves, wantOK)
				}
				gotCut, gotCutOK := rs.repairCut(ac, &probe, g, srcNode, meterNode, aug.Source, aug.Meter, v)
				wantCut, wantCutOK := repairCutOracle(ac, &probe, g, srcNode, meterNode, aug.Source, aug.Meter, v, rs.sharedLine, &rs.lines)
				if gotCutOK != wantCutOK || !slices.Equal(gotCut.Valves, wantCut.Valves) {
					t.Fatalf("%s scheme %d valve %d: cut repair %v (%v), oracle %v (%v)", ac.Name, scheme, v, gotCut.Valves, gotCutOK, wantCut.Valves, wantCutOK)
				}
				if gotOK {
					paths++
				}
				if gotCutOK {
					cuts++
				}
			}
		}
	}
	if paths == 0 || cuts == 0 {
		t.Fatalf("degenerate sample: %d path and %d cut repairs", paths, cuts)
	}
}

// repairPathOracle is repairPath with its per-fault strict and permissive
// cost closures.
func repairPathOracle(c *chip.Chip, probe *fault.Probe, g *graphalg.Graph, srcNode, meterNode, src, meter, v int, sharedLine []bool) (fault.Vector, bool) {
	edge := c.Valve(v).Edge
	rule := func(sharedCost float64) func(int) float64 {
		return func(e int) float64 {
			cv, ok := c.ValveOnEdge(e)
			if !ok {
				return -1
			}
			if sharedLine[cv] && cv != v {
				return sharedCost
			}
			return 1
		}
	}
	for _, cost := range []func(int) float64{rule(-1), rule(8)} {
		pathEdges, err := routeThroughOracle(g, srcNode, meterNode, edge, cost)
		if err != nil {
			continue
		}
		valves := make([]int, 0, len(pathEdges))
		for _, e := range pathEdges {
			cv, _ := c.ValveOnEdge(e)
			valves = append(valves, cv)
		}
		vec := fault.Vector{Kind: fault.PathVector, Valves: valves, Sources: []int{src}, Meters: []int{meter}}
		if probe.Certifies(vec, fault.Fault{Kind: fault.StuckAt0, Valve: v}) {
			return vec, true
		}
	}
	return fault.Vector{}, false
}

// repairCutOracle is repairCut with its per-fault leg filter closures.
func repairCutOracle(c *chip.Chip, probe *fault.Probe, g *graphalg.Graph, srcNode, meterNode, src, meter, v int, sharedLine []bool, lines *lineIndex) (fault.Vector, bool) {
	edge := c.Valve(v).Edge
	anyChannel := func(e int) bool {
		_, ok := c.ValveOnEdge(e)
		return ok
	}
	channelUnshared := func(e int) bool {
		cv, ok := c.ValveOnEdge(e)
		return ok && (!sharedLine[cv] || cv == v)
	}
	for _, legFilter := range []func(int) bool{channelUnshared, anyChannel} {
		cutEdges, err := cutThroughOracle(g, srcNode, meterNode, edge, legFilter, anyChannel, lines)
		if err != nil {
			continue
		}
		valves := make([]int, 0, len(cutEdges))
		for _, e := range cutEdges {
			if cv, ok := c.ValveOnEdge(e); ok {
				valves = append(valves, cv)
			}
		}
		if len(valves) < len(cutEdges) {
			continue
		}
		sort.Ints(valves)
		vec := fault.Vector{Kind: fault.CutVector, Valves: valves, Sources: []int{src}, Meters: []int{meter}}
		if probe.Certifies(vec, fault.Fault{Kind: fault.StuckAt1, Valve: v}) {
			return vec, true
		}
	}
	return fault.Vector{}, false
}
