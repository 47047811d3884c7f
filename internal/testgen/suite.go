// Per-valve test suites: for every valve, one path vector certifying its
// stuck-at-0 fault and one cut vector certifying its stuck-at-1 fault,
// deduplicated in valve order. Both generators run one per-valve loop
// (generate). GenerateBaseline solves each valve from scratch (the
// reference); GenerateTemplates (template.go) first takes the closed-form
// vectors of the valve's straight grid line and solves only the valves and
// vectors the line recipe does not certify. Both produce equal coverage;
// the property tests in suite_test.go pin it.
package testgen

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/graphalg"
	"repro/internal/par"
)

// SuiteOptions configure suite generation.
type SuiteOptions struct {
	// Workers sizes the per-valve worker pool; <= 0 selects GOMAXPROCS.
	// Results are bit-identical for any worker count.
	Workers int
}

// Suite is a per-valve test suite over one chip.
type Suite struct {
	Chip *chip.Chip
	// Paths and Cuts are the deduplicated vectors, in first-use valve
	// order; vectors may share their valve and port slices, so treat them
	// as read-only. PathOf/CutOf map a valve to its vector's index, -1
	// when no certified vector exists for that valve (possible on
	// irregular chips where a valve lies on no simple port-port channel
	// path).
	Paths  []fault.Vector
	Cuts   []fault.Vector
	PathOf []int
	CutOf  []int
	// Uncovered lists valves missing a path or cut vector, ascending.
	Uncovered []int
	// Stats describe how the suite was produced; they are informational.
	Stats SuiteStats
}

// SuiteStats summarize the generation work. All fields are worker-count
// invariant.
type SuiteStats struct {
	Engine     string // "baseline" or "template"
	Valves     int
	RawVectors int // certified per-valve vectors before dedup

	// PathSolves/CutSolves count full combinatorial solve attempts
	// (route-through / leak-preserving-cut calls).
	PathSolves int64
	CutSolves  int64

	// Instantiated counts the vectors taken from a grid line's closed-form
	// recipe, Fallbacks the vectors found by the per-valve solve.
	Instantiated int64
	Fallbacks    int64
}

// Vectors returns the deduplicated suite vectors, paths before cuts — the
// campaign order shared by both engines.
func (s *Suite) Vectors() []fault.Vector {
	out := make([]fault.Vector, 0, len(s.Paths)+len(s.Cuts))
	out = append(out, s.Paths...)
	return append(out, s.Cuts...)
}

// Coverage runs the suite against every stuck-at fault of its chip under
// independent control.
func (s *Suite) Coverage() fault.Coverage {
	return fault.MustSimulator(s.Chip, chip.IndependentControl(s.Chip)).EvaluateCoverage(s.Vectors(), fault.AllFaults(s.Chip))
}

// valveVectors is one valve's solved (or line-recipe) vectors.
type valveVectors struct {
	path, cut       fault.Vector
	hasPath, hasCut bool
}

// suitePre holds the chip-wide state of one suite generation: the
// certification simulator, per-port BFS distance tables over the channel
// network, the line table of GenerateTemplates, and the work counters.
type suitePre struct {
	c   *chip.Chip
	g   *graphalg.Graph
	sim *fault.Simulator

	channelOnly []bool    // channelMask(c)
	cost        []float64 // channelCost(channelOnly)

	distOnce sync.Once
	portDist [][]int // see dists

	lines lineTable // GenerateTemplates only; see lineOf

	pathSolves, cutSolves   atomic.Int64
	instantiated, fallbacks atomic.Int64
}

func newSuitePre(sim *fault.Simulator) *suitePre {
	c := sim.Chip()
	p := &suitePre{c: c, g: c.Grid.Graph(), sim: sim}
	// Suite vectors use only existing channels: free lattice edges are
	// forbidden (negative weight), channel edges cost one hop.
	p.channelOnly = channelMask(c)
	p.cost = channelCost(p.channelOnly)
	return p
}

// dists returns the per-port BFS distance tables over the channel
// network, building them on the first call: only the per-valve solve
// reads them, and no valve of a square FPVA's template suite runs it.
func (p *suitePre) dists() [][]int {
	p.distOnce.Do(func() {
		channel := func(e int) bool { return p.channelOnly[e] }
		p.portDist = make([][]int, len(p.c.Ports))
		for i, port := range p.c.Ports {
			p.portDist[i] = p.g.BFSFrom(port.Node, channel)
		}
	})
	return p.portDist
}

// nearestPorts returns up to k ports reachable from node, nearest first,
// ties towards lower port IDs. Deterministic O(k·ports) selection.
func (p *suitePre) nearestPorts(node, k int) []int {
	portDist := p.dists()
	var out []int
	for len(out) < k {
		best, bestD := -1, -1
		for id := range portDist {
			d := portDist[id][node]
			if d < 0 || containsInt(out, id) {
				continue
			}
			if best < 0 || d < bestD {
				best, bestD = id, d
			}
		}
		if best < 0 {
			break
		}
		out = append(out, best)
	}
	return out
}

// candidatePairs returns the deterministic (source, meter) port pairs a
// valve solve tries, ordered by proximity to the valve's endpoints: the
// nearest ports to each endpoint in both orientations.
func (p *suitePre) candidatePairs(u, w int) [][2]int {
	var out [][2]int
	add := func(s, d int) {
		if s < 0 || d < 0 || s == d {
			return
		}
		for _, pr := range out {
			if pr[0] == s && pr[1] == d {
				return
			}
		}
		out = append(out, [2]int{s, d})
	}
	topU := p.nearestPorts(u, 3)
	topW := p.nearestPorts(w, 3)
	for _, s := range topU {
		for _, d := range topW {
			add(s, d)
		}
	}
	for _, s := range topW {
		for _, d := range topU {
			add(s, d)
		}
	}
	return out
}

// allPairsRanked returns every ordered reachable port pair, ranked by the
// best-orientation distance to the valve endpoints (then by IDs) — the
// exhaustive fallback when no proximity candidate solves.
func (p *suitePre) allPairsRanked(u, w int) [][2]int {
	portDist := p.dists()
	type ranked struct{ d, s, m int }
	var all []ranked
	for s := range portDist {
		for m := range portDist {
			if s == m {
				continue
			}
			du, dw := portDist[s][u], portDist[m][w]
			dw2, du2 := portDist[s][w], portDist[m][u]
			best := -1
			if du >= 0 && dw >= 0 {
				best = du + dw
			}
			if du2 >= 0 && dw2 >= 0 && (best < 0 || dw2+du2 < best) {
				best = dw2 + du2
			}
			if best < 0 {
				continue
			}
			all = append(all, ranked{best, s, m})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].d != all[j].d {
			return all[i].d < all[j].d
		}
		if all[i].s != all[j].s {
			return all[i].s < all[j].s
		}
		return all[i].m < all[j].m
	})
	out := make([][2]int, len(all))
	for i, r := range all {
		out[i] = [2]int{r.s, r.m}
	}
	return out
}

// certify reports whether a candidate vector behaves fault-free as
// specified and detects the target stuck-at fault of the valve it is
// stamped for — the acceptance check of every suite vector, solved or
// taken from a line.
func (p *suitePre) certify(vec fault.Vector, kind fault.VectorKind, valve int) bool {
	target := fault.Fault{Kind: fault.StuckAt0, Valve: valve}
	if kind == fault.CutVector {
		target = fault.Fault{Kind: fault.StuckAt1, Valve: valve}
	}
	return p.sim.Certifies(vec, target)
}

// solvePathAt routes a simple src→dst channel path through the valve's
// edge and certifies that the resulting vector detects the valve's
// stuck-at-0 fault.
func (p *suitePre) solvePathAt(valve, src, dst int) (fault.Vector, bool) {
	p.pathSolves.Add(1)
	edge := p.c.Valve(valve).Edge
	edges, err := routeThrough(p.g, p.c.Ports[src].Node, p.c.Ports[dst].Node, edge, p.cost)
	if err != nil {
		return fault.Vector{}, false
	}
	valves := make([]int, 0, len(edges))
	for _, e := range edges {
		v, ok := p.c.ValveOnEdge(e)
		if !ok {
			return fault.Vector{}, false
		}
		valves = append(valves, v)
	}
	sort.Ints(valves)
	vec := fault.Vector{Kind: fault.PathVector, Valves: valves, Sources: []int{src}, Meters: []int{dst}}
	if !p.certify(vec, fault.PathVector, valve) {
		return fault.Vector{}, false
	}
	return vec, true
}

// solveCutAt finds a leak-preserving separating valve set through the
// valve's edge and certifies detection of its stuck-at-1 fault.
func (p *suitePre) solveCutAt(valve, src, dst int) (fault.Vector, bool) {
	p.cutSolves.Add(1)
	edge := p.c.Valve(valve).Edge
	sc := cutScratchPool.Get().(*cutScratch)
	defer cutScratchPool.Put(sc)
	cutEdges, err := cutThroughWithLeak(sc, p.g, p.c.Ports[src].Node, p.c.Ports[dst].Node, edge, p.channelOnly)
	if err != nil {
		return fault.Vector{}, false
	}
	valves := make([]int, 0, len(cutEdges))
	for _, e := range cutEdges {
		v, ok := p.c.ValveOnEdge(e)
		if !ok {
			return fault.Vector{}, false
		}
		valves = append(valves, v)
	}
	sort.Ints(valves)
	vec := fault.Vector{Kind: fault.CutVector, Valves: valves, Sources: []int{src}, Meters: []int{dst}}
	if !p.certify(vec, fault.CutVector, valve) {
		return fault.Vector{}, false
	}
	return vec, true
}

// solvePathFor tries the proximity candidates, then the exhaustive pair
// ranking.
func (p *suitePre) solvePathFor(valve int) (fault.Vector, bool) {
	u, w := p.g.Endpoints(p.c.Valve(valve).Edge)
	for _, pr := range p.candidatePairs(u, w) {
		if vec, ok := p.solvePathAt(valve, pr[0], pr[1]); ok {
			return vec, true
		}
	}
	for _, pr := range p.allPairsRanked(u, w) {
		if vec, ok := p.solvePathAt(valve, pr[0], pr[1]); ok {
			return vec, true
		}
	}
	return fault.Vector{}, false
}

func (p *suitePre) solveCutFor(valve int) (fault.Vector, bool) {
	u, w := p.g.Endpoints(p.c.Valve(valve).Edge)
	for _, pr := range p.candidatePairs(u, w) {
		if vec, ok := p.solveCutAt(valve, pr[0], pr[1]); ok {
			return vec, true
		}
	}
	for _, pr := range p.allPairsRanked(u, w) {
		if vec, ok := p.solveCutAt(valve, pr[0], pr[1]); ok {
			return vec, true
		}
	}
	return fault.Vector{}, false
}

// solveValve finds one certified path and one certified cut vector for a
// valve (either may be absent on irregular chips): the valve's line vector
// when lines is set and it certifies, the per-valve solve otherwise.
func (p *suitePre) solveValve(valve int, lines bool) valveVectors {
	var vv valveVectors
	vv.path, vv.hasPath = p.vectorFor(valve, fault.PathVector, lines)
	vv.cut, vv.hasCut = p.vectorFor(valve, fault.CutVector, lines)
	return vv
}

// vectorFor returns one vector of solveValve and counts where it came
// from.
func (p *suitePre) vectorFor(valve int, kind fault.VectorKind, lines bool) (fault.Vector, bool) {
	if lines {
		if vec, ok := p.instantiateLine(valve, kind); ok {
			p.instantiated.Add(1)
			return vec, true
		}
	}
	solve := p.solvePathFor
	if kind == fault.CutVector {
		solve = p.solveCutFor
	}
	vec, ok := solve(valve)
	if ok {
		p.fallbacks.Add(1)
	}
	return vec, ok
}

// assembleSuite dedups the per-valve vectors in valve order.
func assembleSuite(c *chip.Chip, slots []valveVectors) *Suite {
	s := &Suite{
		Chip:   c,
		PathOf: make([]int, len(slots)),
		CutOf:  make([]int, len(slots)),
	}
	seenP := map[string]int{}
	seenC := map[string]int{}
	for v, vv := range slots {
		s.PathOf[v], s.CutOf[v] = -1, -1
		if vv.hasPath {
			s.Stats.RawVectors++
			key := fault.VectorKey(vv.path)
			idx, ok := seenP[key]
			if !ok {
				idx = len(s.Paths)
				s.Paths = append(s.Paths, vv.path)
				seenP[key] = idx
			}
			s.PathOf[v] = idx
		}
		if vv.hasCut {
			s.Stats.RawVectors++
			key := fault.VectorKey(vv.cut)
			idx, ok := seenC[key]
			if !ok {
				idx = len(s.Cuts)
				s.Cuts = append(s.Cuts, vv.cut)
				seenC[key] = idx
			}
			s.CutOf[v] = idx
		}
		if !vv.hasPath || !vv.hasCut {
			s.Uncovered = append(s.Uncovered, v)
		}
	}
	s.Stats.Valves = len(slots)
	return s
}

// GenerateBaseline builds the suite with one full solve per valve — the
// reference GenerateTemplates is measured and property-tested against. It
// certifies on a fresh simulator under independent control.
func GenerateBaseline(c *chip.Chip, opts SuiteOptions) (*Suite, error) {
	return GenerateBaselineCtx(context.Background(), fault.MustSimulator(c, chip.IndependentControl(c)), opts)
}

// GenerateBaselineCtx is GenerateBaseline with cooperative cancellation,
// checked once per valve, certifying on sim (see generate).
func GenerateBaselineCtx(ctx context.Context, sim *fault.Simulator, opts SuiteOptions) (*Suite, error) {
	return generate(ctx, sim, opts, false)
}

// generate runs the per-valve loop of both generators over sim's chip;
// lines selects GenerateTemplates' line shortcut. The suite is certified
// under sim's control (independent control for a per-valve suite), and
// every analysis stays in sim's memo, so a coverage campaign of the suite
// on the same simulator re-derives none of them.
func generate(ctx context.Context, sim *fault.Simulator, opts SuiteOptions, lines bool) (*Suite, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	pre := newSuitePre(sim)
	workers := par.Workers(opts.Workers)
	if lines {
		pre.buildLines()
		// Analyse each line state once, spread over the pool, so the
		// per-valve certifications below are memo hits and no two workers
		// analyse one state.
		states := pre.lineStates()
		if err := par.For(ctx, workers, len(states), func(i int) { sim.FaultFreeOK(states[i]) }); err != nil {
			return nil, err
		}
	}
	slots := make([]valveVectors, pre.c.NumValves())
	err := par.For(ctx, workers, len(slots), func(v int) {
		slots[v] = pre.solveValve(v, lines)
	})
	if err != nil {
		return nil, err
	}
	s := assembleSuite(pre.c, slots)
	s.Stats.Engine = "baseline"
	if lines {
		s.Stats.Engine = "template"
	}
	s.Stats.PathSolves = pre.pathSolves.Load()
	s.Stats.CutSolves = pre.cutSolves.Load()
	s.Stats.Instantiated = pre.instantiated.Load()
	s.Stats.Fallbacks = pre.fallbacks.Load()
	return s, nil
}
