package testgen

import (
	"math/bits"
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
	var probe fault.Probe
	if err := probe.Reset(c, ctrl, nil); err != nil {
		// A mismatched control assignment cannot certify coverage.
		return basePaths, baseCuts, false
	}
	all := append(append([]fault.Vector{}, basePaths...), baseCuts...)
	cov := fault.NewEngine(fault.MustSimulator(c, ctrl), 0).EvaluateCoverage(all, fault.AllFaults(c))
	rPaths, rCuts, remaining := RepairUndetected(c, ctrl, &probe, src, meter, cov.Undetected)
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
// probe must be reset to c under ctrl; every replacement is certified
// there (usable, and detects its own fault). It returns the replacement
// paths and cuts and the number of faults still undetected: those whose
// repair failed and that no replacement detects either. Since the base
// vectors miss every fault of undetected and each replacement detects
// its own, that count equals a coverage campaign over the base vectors
// plus the replacements.
func RepairUndetected(c *chip.Chip, ctrl *chip.Control, probe *fault.Probe, src, meter int, undetected []fault.Fault) (paths, cuts []fault.Vector, remaining int) {
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
			if vec, found = rs.repairCut(c, probe, g, srcNode, meterNode, src, meter, f.Valve); found {
				cuts = append(cuts, vec)
			}
		case fault.StuckAt0:
			var vec fault.Vector
			if vec, found = rs.repairPath(c, probe, g, srcNode, meterNode, src, meter, f.Valve); found {
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
	covered := make([]uint64, (len(failed)+63)/64)
	for _, set := range [2][]fault.Vector{paths, cuts} {
		for _, vec := range set {
			probe.Cover(vec, failed, covered)
		}
	}
	remaining = len(failed)
	for _, w := range covered {
		remaining -= bits.OnesCount64(w)
	}
	return paths, cuts, remaining
}

// repairScratch holds the repair loop's reusable buffers: the cut search's
// scratch plus the tables of the scheme under repair. A pool shares them
// across schemes, so a repair pass allocates little beyond the vectors it
// returns.
type repairScratch struct {
	cutScratch
	lines      lineIndex
	sharedLine []bool // sharedLine[v]: valve v's line actuates another valve too

	// Per-edge tables of the scheme, built once by index for all of its
	// faults. A fault's own valve is exempt from the sharing rules, but
	// its edge is the `through` edge, which both searches keep out of
	// their legs, so the tables need no per-fault entries apart from that
	// edge's cost in repairPath.
	anyChannel []bool    // the edge carries a valve
	unshared   []bool    // ... whose line actuates no other valve
	strict     []float64 // 1 on unshared channels, -1 elsewhere
	permissive []float64 // strict, with shared channels at 8
}

var repairScratchPool = sync.Pool{New: func() any { return new(repairScratch) }}

// index fills the control-line tables and the per-edge tables for ctrl on
// c.
func (rs *repairScratch) index(c *chip.Chip, ctrl *chip.Control) {
	rs.lines.build(c, ctrl)
	rs.sharedLine = resize(rs.sharedLine, c.NumValves())
	for v := range rs.sharedLine {
		rs.sharedLine[v] = len(rs.lines.lineEdges[ctrl.LineOf(v)]) > 1
	}
	nEdges := c.Grid.Graph().NumEdges()
	rs.anyChannel = resize(rs.anyChannel, nEdges)
	rs.unshared = resize(rs.unshared, nEdges)
	rs.strict = resize(rs.strict, nEdges)
	rs.permissive = resize(rs.permissive, nEdges)
	for e := 0; e < nEdges; e++ {
		cv, ok := c.ValveOnEdge(e)
		shared := ok && rs.sharedLine[cv]
		rs.anyChannel[e] = ok
		rs.unshared[e] = ok && !shared
		switch {
		case !ok:
			rs.strict[e], rs.permissive[e] = -1, -1
		case shared:
			rs.strict[e], rs.permissive[e] = -1, 8
		default:
			rs.strict[e], rs.permissive[e] = 1, 1
		}
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
	li.edgeLine = resize(li.edgeLine, c.Grid.Graph().NumEdges())
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

// resize returns buf resized to n, reallocating only when it is too
// small; the contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// repairCut builds a sharing-aware cut for a stuck-at-1 fault at valve v.
// It tries two strategies: (a) a leak-path witness avoiding every
// shared-line edge, so no partner closure can touch it; (b) an
// unrestricted witness whose valves' entire control lines (including
// partners on the same line) are protected from entering the cut, so
// closing the cut cannot force any witness edge shut.
func (rs *repairScratch) repairCut(c *chip.Chip, probe *fault.Probe, g *graphalg.Graph, srcNode, meterNode, src, meter, v int) (fault.Vector, bool) {
	edge := c.Valve(v).Edge
	for _, legAllow := range [2][]bool{rs.unshared, rs.anyChannel} {
		cutEdges, err := cutThroughWithLeakAvoiding(&rs.cutScratch, g, srcNode, meterNode, edge, legAllow, rs.anyChannel, &rs.lines)
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
		if probe.Certifies(vec, fault.Fault{Kind: fault.StuckAt1, Valve: v}) {
			return vec, true
		}
	}
	return fault.Vector{}, false
}

// repairPath builds a sharing-immune path vector for a stuck-at-0 fault at
// valve v: the whole path uses unshared lines (apart from v), so no forced
// partner opening can build a bypass. If no such path exists it falls back
// to a permissive routing, where shared edges are allowed but expensive;
// the probe has the final word on whether a bypass masks the fault.
func (rs *repairScratch) repairPath(c *chip.Chip, probe *fault.Probe, g *graphalg.Graph, srcNode, meterNode, src, meter, v int) (fault.Vector, bool) {
	edge := c.Valve(v).Edge
	for _, cost := range [2][]float64{rs.strict, rs.permissive} {
		// v's own edge costs 1 under both rules; routeThrough reads that
		// entry only for the path's total.
		saved := cost[edge]
		cost[edge] = 1
		pathEdges, err := routeThrough(g, srcNode, meterNode, edge, cost)
		cost[edge] = saved
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

// cutScratch holds the reusable buffers of the leak-preserving cut search.
// A generator keeps one for all of its queries (or takes one from the pool
// per query), so the search allocates nothing once its buffers have grown
// to the graph. One cutScratch must not be shared between goroutines.
type cutScratch struct {
	leg1, leg2 graphalg.Scratch // one per leg: leg 1's path must survive the leg-2 search
	net        graphalg.FlowNetwork
	legMask    []bool // the witness legs' edges: legAllow without `through`
	disjoint   []bool // legMask without the edges at leg-1 nodes
	protected  []bool // protected[e]: e is in the network and protected from the cut; all false between queries
	protList   []int  // the edges set in protected
	cut        []int
}

var cutScratchPool = sync.Pool{New: func() any { return new(cutScratch) }}

// cutThroughWithLeakAvoiding is cutThroughWithLeak with a separate edge
// mask for the leak-path witness legs (legAllow) and the cuttable edge set
// (allow). lines, if non-nil, widens the protected edge set before the
// min-cut to every edge whose valve shares a control line with a valve of
// the witness. The returned cut aliases the scratch and is overwritten by
// its next query.
//
// An orientation whose protected edges (those of the network, so allowed
// and not `through`) alone join s and t has no cut: the protected arcs
// carry a flow of big along that path, so the max flow would reach big
// and the orientation would be skipped. The search skips it without
// running the max flow. Every other orientation builds the same network
// in the same arc order as before and solves it, and MinCutArcs returns
// the source-minimal minimum cut — the same set for every maximum flow —
// so no cut changes.
func cutThroughWithLeakAvoiding(sc *cutScratch, g *graphalg.Graph, s, t, through int, legAllow, allow []bool, lines *lineIndex) ([]int, error) {
	u, v := g.Endpoints(through)
	const big = 1 << 20
	sc.legMask = append(sc.legMask[:0], legAllow...)
	sc.legMask[through] = false
	sc.protected = resize(sc.protected, g.NumEdges())
	for _, orient := range [2][2]int{{u, v}, {v, u}} {
		a, b := orient[0], orient[1]
		nodes1, leg1, ok1 := g.ShortestPathScratch(&sc.leg1, s, a, sc.legMask)
		if !ok1 {
			continue
		}
		sc.disjoint = append(sc.disjoint[:0], sc.legMask...)
		for _, n := range nodes1 {
			for _, arc := range g.Adjacency(n) {
				sc.disjoint[arc.Edge] = false
			}
		}
		_, leg2, ok2 := g.ShortestPathScratch(&sc.leg2, b, t, sc.disjoint)
		if !ok2 {
			_, leg2, ok2 = g.ShortestPathScratch(&sc.leg2, b, t, sc.legMask)
		}
		if !ok2 {
			continue
		}
		for _, leg := range [2][]int{leg1, leg2} {
			for _, e := range leg {
				sc.protect(e, through, allow)
				if lines == nil {
					continue
				}
				if l := lines.edgeLine[e]; l >= 0 {
					for _, e2 := range lines.lineEdges[l] {
						sc.protect(e2, through, allow)
					}
				}
			}
		}
		// Leg 1 is spent, so its scratch serves the reachability check.
		if _, _, joined := g.ShortestPathScratch(&sc.leg1, s, t, sc.protected); joined {
			sc.unprotect()
			continue
		}
		net := &sc.net
		net.Reset(g.NumNodes())
		for e := 0; e < g.NumEdges(); e++ {
			if e == through || !allow[e] {
				continue
			}
			capacity := 1
			if sc.protected[e] {
				capacity = big
			}
			x, y := g.Endpoints(e)
			net.AddArc(x, y, capacity, e)
			net.AddArc(y, x, capacity, e)
		}
		sc.unprotect()
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

// protect marks edge e protected from the cut when it belongs to the
// network (allowed and not `through`).
func (sc *cutScratch) protect(e, through int, allow []bool) {
	if e != through && allow[e] && !sc.protected[e] {
		sc.protected[e] = true
		sc.protList = append(sc.protList, e)
	}
}

// unprotect clears the protected marks.
func (sc *cutScratch) unprotect() {
	for _, e := range sc.protList {
		sc.protected[e] = false
	}
	sc.protList = sc.protList[:0]
}
