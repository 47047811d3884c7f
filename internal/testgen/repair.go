package testgen

import (
	"sort"
	"sync"

	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/graphalg"
)

// RepairVectors makes a test-vector set valid under a valve-sharing
// control assignment — the paper's "test vectors considering valve
// sharing". The base paths and cuts were generated sharing-blind; control
// sharing can mask faults (Fig. 6): closing a cut also force-closes the
// partners of its valves, possibly sealing the leak path that would reveal
// a stuck-at-1 valve, and opening a path also force-opens partners,
// possibly bypassing a stuck-at-0 valve.
//
// It runs one coverage campaign of the base vectors under ctrl and hands
// the faults it misses to RepairUndetected. It returns the base vectors
// extended by the replacements and whether every stuck-at-0/1 fault is
// detected by the result.
func RepairVectors(c *chip.Chip, ctrl *chip.Control, src, meter int, basePaths, baseCuts []fault.Vector) (paths, cuts []fault.Vector, ok bool) {
	sim, err := fault.NewSimulator(c, ctrl)
	if err != nil {
		// A mismatched control assignment cannot certify coverage.
		return basePaths, baseCuts, false
	}
	all := append(append([]fault.Vector{}, basePaths...), baseCuts...)
	cov := fault.NewEngine(sim, 0).EvaluateCoverage(all, fault.AllFaults(c))
	rPaths, rCuts, remaining := RepairUndetected(c, ctrl, sim, src, meter, cov.Undetected)
	paths = append(append([]fault.Vector(nil), basePaths...), rPaths...)
	cuts = append(append([]fault.Vector(nil), baseCuts...), rCuts...)
	return paths, cuts, remaining == 0
}

// RepairUndetected generates a replacement vector for every fault in
// undetected — the faults a base test set misses under ctrl, in fault
// order — whose critical structure avoids shared control lines:
//
//   - stuck-at-1 at v: a cut through v whose leak-path witness uses only
//     unshared lines, so no partner closure can seal it;
//   - stuck-at-0 at v: an extra source→meter path through v using only
//     unshared lines (apart from v itself), so no partner opening can
//     bypass it.
//
// sim must simulate c under ctrl; every replacement passes its
// FaultFreeOK and detects its own fault there. It returns the replacement
// paths and cuts and the number of faults still undetected: those whose
// repair failed and that no replacement detects either. Since the base
// vectors miss every fault of undetected and each replacement detects
// its own, that count equals a coverage campaign over the base vectors
// plus the replacements.
func RepairUndetected(c *chip.Chip, ctrl *chip.Control, sim *fault.Simulator, src, meter int, undetected []fault.Fault) (paths, cuts []fault.Vector, remaining int) {
	if len(undetected) == 0 {
		return nil, nil, 0
	}
	rs := repairScratchPool.Get().(*repairScratch)
	defer repairScratchPool.Put(rs)
	rs.index(c, ctrl)
	g := c.Grid.Graph()
	srcNode, meterNode := c.Ports[src].Node, c.Ports[meter].Node

	var failed []fault.Fault
	for _, f := range undetected {
		found := false
		switch f.Kind {
		case fault.StuckAt1:
			var vec fault.Vector
			if vec, found = rs.repairCut(c, sim, g, srcNode, meterNode, src, meter, f.Valve); found {
				cuts = append(cuts, vec)
			}
		case fault.StuckAt0:
			var vec fault.Vector
			if vec, found = repairPath(c, sim, g, srcNode, meterNode, src, meter, f.Valve, rs.sharedLine); found {
				paths = append(paths, vec)
			}
		}
		if !found {
			failed = append(failed, f)
		}
	}
	if len(failed) == 0 || len(paths)+len(cuts) == 0 {
		return paths, cuts, len(failed)
	}
	// A failed fault may still be caught by another fault's replacement.
	added := append(append(make([]fault.Vector, 0, len(paths)+len(cuts)), paths...), cuts...)
	cov := fault.NewEngine(sim, 1).EvaluateCoverage(added, failed)
	return paths, cuts, len(cov.Undetected)
}

// repairScratch holds the repair loop's reusable buffers: the cut search's
// scratch plus the control-line tables of the scheme under repair. A pool
// shares them across schemes, so a repair pass allocates little beyond
// the vectors it returns.
type repairScratch struct {
	cutScratch
	lines      lineIndex
	sharedLine []bool // sharedLine[v]: valve v's line actuates another valve too
}

var repairScratchPool = sync.Pool{New: func() any { return new(repairScratch) }}

// index fills the control-line tables for ctrl on c.
func (rs *repairScratch) index(c *chip.Chip, ctrl *chip.Control) {
	rs.lines.build(c, ctrl)
	if cap(rs.sharedLine) < c.NumValves() {
		rs.sharedLine = make([]bool, c.NumValves())
	}
	rs.sharedLine = rs.sharedLine[:c.NumValves()]
	for v := range rs.sharedLine {
		rs.sharedLine[v] = len(rs.lines.lineEdges[ctrl.LineOf(v)]) > 1
	}
}

// lineIndex maps channel edges to the control lines of their valves, so
// the cut search can widen a protected edge set to whole control lines in
// O(protected edges).
type lineIndex struct {
	edgeLine  []int   // edgeLine[e]: control line of e's valve, -1 when e has none
	lineEdges [][]int // lineEdges[l]: edges of the valves on line l, in valve order
}

func (li *lineIndex) build(c *chip.Chip, ctrl *chip.Control) {
	li.edgeLine = resizeInts(li.edgeLine, c.Grid.Graph().NumEdges())
	for e := range li.edgeLine {
		li.edgeLine[e] = -1
	}
	nLines := ctrl.NumLines()
	if cap(li.lineEdges) < nLines {
		lineEdges := make([][]int, nLines)
		copy(lineEdges, li.lineEdges[:cap(li.lineEdges)])
		li.lineEdges = lineEdges
	}
	li.lineEdges = li.lineEdges[:nLines]
	for l := range li.lineEdges {
		li.lineEdges[l] = li.lineEdges[l][:0]
	}
	for _, v := range c.Valves() {
		l := ctrl.LineOf(v.ID)
		li.edgeLine[v.Edge] = l
		li.lineEdges[l] = append(li.lineEdges[l], v.Edge)
	}
}

// resizeInts returns buf resized to n, reallocating only when it is too
// small; the contents are unspecified.
func resizeInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// repairCut builds a sharing-aware cut for a stuck-at-1 fault at valve v.
// It tries two strategies: (a) a leak-path witness avoiding every
// shared-line edge, so no partner closure can touch it; (b) an
// unrestricted witness whose valves' entire control lines (including
// partners on the same line) are protected from entering the cut, so
// closing the cut cannot force any witness edge shut.
func (rs *repairScratch) repairCut(c *chip.Chip, sim *fault.Simulator, g *graphalg.Graph, srcNode, meterNode, src, meter, v int) (fault.Vector, bool) {
	edge := c.Valve(v).Edge
	anyChannel := func(e int) bool {
		_, okV := c.ValveOnEdge(e)
		return okV
	}
	channelUnshared := func(e int) bool {
		cv, okV := c.ValveOnEdge(e)
		if !okV {
			return false
		}
		return !rs.sharedLine[cv] || cv == v
	}
	for _, legFilter := range []func(int) bool{channelUnshared, anyChannel} {
		cutEdges, err := cutThroughWithLeakAvoiding(&rs.cutScratch, g, srcNode, meterNode, edge, legFilter, anyChannel, &rs.lines)
		if err != nil {
			continue
		}
		valves := make([]int, 0, len(cutEdges))
		okAll := true
		for _, e := range cutEdges {
			cv, okV := c.ValveOnEdge(e)
			if !okV {
				okAll = false
				break
			}
			valves = append(valves, cv)
		}
		if !okAll {
			continue
		}
		sort.Ints(valves)
		vec := fault.Vector{Kind: fault.CutVector, Valves: valves, Sources: []int{src}, Meters: []int{meter}}
		if sim.FaultFreeOK(vec) && sim.Detects(vec, fault.Fault{Kind: fault.StuckAt1, Valve: v}) {
			return vec, true
		}
	}
	return fault.Vector{}, false
}

// repairPath builds a sharing-immune path vector for a stuck-at-0 fault at
// valve v: the whole path uses unshared lines (apart from v), so no forced
// partner opening can build a bypass.
func repairPath(c *chip.Chip, sim *fault.Simulator, g *graphalg.Graph, srcNode, meterNode, src, meter, v int, sharedLine []bool) (fault.Vector, bool) {
	edge := c.Valve(v).Edge
	strict := func(e int) float64 {
		cv, okV := c.ValveOnEdge(e)
		if !okV {
			return -1
		}
		if sharedLine[cv] && cv != v {
			return -1
		}
		return 1
	}
	// Permissive fallback: shared edges allowed but expensive; the
	// simulator has the final word on whether a bypass masks the fault.
	permissive := func(e int) float64 {
		cv, okV := c.ValveOnEdge(e)
		if !okV {
			return -1
		}
		if sharedLine[cv] && cv != v {
			return 8
		}
		return 1
	}
	for _, cost := range []func(int) float64{strict, permissive} {
		pathEdges, err := routeThrough(c, srcNode, meterNode, edge, cost)
		if err != nil {
			continue
		}
		valves := make([]int, 0, len(pathEdges))
		for _, e := range pathEdges {
			cv, _ := c.ValveOnEdge(e)
			valves = append(valves, cv)
		}
		vec := fault.Vector{Kind: fault.PathVector, Valves: valves, Sources: []int{src}, Meters: []int{meter}}
		if sim.FaultFreeOK(vec) && sim.Detects(vec, fault.Fault{Kind: fault.StuckAt0, Valve: v}) {
			return vec, true
		}
	}
	return fault.Vector{}, false
}

// cutScratch holds the reusable buffers of the leak-preserving cut search.
// A generator keeps one for all of its queries (or takes one from the pool
// per query), so the search allocates nothing once its buffers have grown
// to the graph. One cutScratch must not be shared between goroutines.
type cutScratch struct {
	leg1, leg2 graphalg.Scratch // one per leg: leg 1's path must survive the leg-2 search
	net        graphalg.FlowNetwork
	onLeg1     []int // onLeg1[node] == epoch: the node lies on leg 1
	protect    []int // protect[edge] == epoch: the edge is protected from the cut
	epoch      int
	cut        []int
}

var cutScratchPool = sync.Pool{New: func() any { return new(cutScratch) }}

// cutThroughWithLeakAvoiding is cutThroughWithLeak with a separate filter
// for the leak-path witness legs (legAllow) and the cuttable edge set
// (allow). lines, if non-nil, widens the protected edge set before the
// min-cut to every edge whose valve shares a control line with a valve of
// the witness. The returned cut aliases the scratch and is overwritten by
// its next query.
func cutThroughWithLeakAvoiding(sc *cutScratch, g *graphalg.Graph, s, t, through int, legAllow, allow func(int) bool, lines *lineIndex) ([]int, error) {
	u, v := g.Endpoints(through)
	const big = 1 << 20
	legExcept := func(e int) bool { return e != through && legAllow(e) }
	sc.onLeg1 = growEpochs(sc.onLeg1, g.NumNodes())
	sc.protect = growEpochs(sc.protect, g.NumEdges())
	for _, orient := range [2][2]int{{u, v}, {v, u}} {
		a, b := orient[0], orient[1]
		nodes1, leg1, ok1 := g.ShortestPathScratch(&sc.leg1, s, a, legExcept)
		if !ok1 {
			continue
		}
		sc.epoch++
		epoch := sc.epoch
		for _, n := range nodes1 {
			sc.onLeg1[n] = epoch
		}
		disjoint := func(e int) bool {
			if !legExcept(e) {
				return false
			}
			x, y := g.Endpoints(e)
			return sc.onLeg1[x] != epoch && sc.onLeg1[y] != epoch
		}
		_, leg2, ok2 := g.ShortestPathScratch(&sc.leg2, b, t, disjoint)
		if !ok2 {
			_, leg2, ok2 = g.ShortestPathScratch(&sc.leg2, b, t, legExcept)
		}
		if !ok2 {
			continue
		}
		for _, leg := range [2][]int{leg1, leg2} {
			for _, e := range leg {
				sc.protect[e] = epoch
				if lines == nil {
					continue
				}
				if l := lines.edgeLine[e]; l >= 0 {
					for _, e2 := range lines.lineEdges[l] {
						sc.protect[e2] = epoch
					}
				}
			}
		}
		net := &sc.net
		net.Reset(g.NumNodes())
		for e := 0; e < g.NumEdges(); e++ {
			if e == through || !allow(e) {
				continue
			}
			capacity := 1
			if sc.protect[e] == epoch {
				capacity = big
			}
			x, y := g.Endpoints(e)
			net.AddArc(x, y, capacity, e)
			net.AddArc(y, x, capacity, e)
		}
		if net.MaxFlow(s, t) >= big {
			continue
		}
		cut := append(append(sc.cut[:0], net.MinCutArcs(s)...), through)
		sort.Ints(cut)
		sc.cut = cut
		return cut, nil
	}
	return nil, errNoLeakCut
}

// growEpochs returns marks with room for n entries. Fresh entries are
// zero, which no epoch of a cutScratch ever equals.
func growEpochs(marks []int, n int) []int {
	if len(marks) < n {
		return append(marks, make([]int, n-len(marks))...)
	}
	return marks
}
