// Per-valve test suites: for every valve, one path vector certifying its
// stuck-at-0 fault and one cut vector certifying its stuck-at-1 fault,
// deduplicated in valve order. GenerateBaseline solves each valve from
// scratch (the reference engine); the TemplateEngine in template.go solves
// one representative per translation-equivalence class and instantiates
// the rest by index translation, falling back to the full solve when the
// structural validation fails. Both engines produce equal coverage; the
// property tests in suite_test.go pin it.
package testgen

import (
	"context"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/graphalg"
)

// SuiteOptions configure suite generation.
type SuiteOptions struct {
	// Workers sizes the per-valve worker pool; <= 0 selects GOMAXPROCS.
	// Results are bit-identical for any worker count.
	Workers int
}

func (o SuiteOptions) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Suite is a per-valve test suite over one chip.
type Suite struct {
	Chip *chip.Chip
	// Paths and Cuts are the deduplicated vectors, in first-use valve
	// order. PathOf/CutOf map a valve to its vector's index, -1 when no
	// certified vector exists for that valve (possible on irregular chips
	// where a valve lies on no simple port-port channel path).
	Paths  []fault.Vector
	Cuts   []fault.Vector
	PathOf []int
	CutOf  []int
	// Uncovered lists valves missing a path or cut vector, ascending.
	Uncovered []int
	// Stats describe how the suite was produced. Stats are informational
	// and may depend on cache warmth; the vectors above never do.
	Stats SuiteStats
}

// SuiteStats summarize the generation work. All fields except SimEvals are
// worker-count invariant.
type SuiteStats struct {
	Engine     string // "baseline" or "template"
	Valves     int
	RawVectors int // certified per-valve vectors before dedup

	// PathSolves/CutSolves count full combinatorial solve attempts
	// (route-through / leak-preserving-cut calls).
	PathSolves int64
	CutSolves  int64

	// Template-engine only: distinct symmetry classes (LineClasses of them
	// closed-form line classes, the rest combinatorially solved tile
	// classes), template-cache hits (classes reused from an earlier run of
	// the same engine), vectors instantiated from a class, and
	// instantiations that failed validation and fell back to a full solve.
	Classes      int
	LineClasses  int
	TemplateHits int64
	// TemplateDiskHits counts classes loaded from a persistent artifact
	// store (SetStore) instead of solved.
	TemplateDiskHits int64
	Instantiated     int64
	Fallbacks        int64

	// SimEvals counts distinct fault-free vector evaluations (the
	// pressure solves of certification). Not worker-count invariant:
	// racing workers may both miss the simulator's memo cache.
	SimEvals int64
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
func (s *Suite) Coverage(workers int) fault.Coverage {
	sim := fault.MustSimulator(s.Chip, chip.IndependentControl(s.Chip))
	return fault.NewEngine(sim, workers).EvaluateCoverage(s.Vectors(), fault.AllFaults(s.Chip))
}

// valveVectors is one valve's solved (or instantiated) vectors.
type valveVectors struct {
	path, cut       fault.Vector
	hasPath, hasCut bool
}

// suitePre holds the chip-wide precomputed state both suite engines share:
// per-port BFS distance tables over the channel network, the node→port
// index, and a certification simulator under independent control.
type suitePre struct {
	c       *chip.Chip
	g       *graphalg.Graph
	sim     *fault.Simulator
	metrics *fault.Metrics

	channelOnly func(int) bool
	cost        func(int) float64
	portDist    [][]int
	portAt      []int

	pathSolves, cutSolves atomic.Int64
}

func newSuitePre(c *chip.Chip) *suitePre {
	p := &suitePre{c: c, g: c.Grid.Graph(), metrics: fault.NewMetrics()}
	p.sim = fault.MustSimulator(c, chip.IndependentControl(c))
	p.sim.SetMetrics(p.metrics)
	p.channelOnly = func(e int) bool {
		_, ok := c.ValveOnEdge(e)
		return ok
	}
	// Suite vectors use only existing channels: free lattice edges are
	// forbidden (negative weight), channel edges cost one hop.
	p.cost = func(e int) float64 {
		if p.channelOnly(e) {
			return 1
		}
		return -1
	}
	p.portDist = make([][]int, len(c.Ports))
	for i, port := range c.Ports {
		p.portDist[i] = p.g.BFSFrom(port.Node, p.channelOnly)
	}
	p.portAt = make([]int, p.g.NumNodes())
	for i := range p.portAt {
		p.portAt[i] = -1
	}
	for _, port := range c.Ports {
		p.portAt[port.Node] = port.ID
	}
	return p
}

// nearestPorts returns up to k ports reachable from node, nearest first,
// ties towards lower port IDs. Deterministic O(k·ports) selection.
func (p *suitePre) nearestPorts(node, k int) []int {
	var out []int
	for len(out) < k {
		best, bestD := -1, -1
		for id := range p.portDist {
			d := p.portDist[id][node]
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
// nearest ports to each endpoint in both orientations. Every valve whose
// tile class matches shares the same pairs relative to its anchor, which
// is what lets one solved template serve the whole class.
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
	type ranked struct{ d, s, m int }
	var all []ranked
	for s := range p.portDist {
		for m := range p.portDist {
			if s == m {
				continue
			}
			du, dw := p.portDist[s][u], p.portDist[m][w]
			dw2, du2 := p.portDist[s][w], p.portDist[m][u]
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
// stamped for — the shared acceptance check of every engine and class
// family.
func (p *suitePre) certify(vec fault.Vector, kind fault.VectorKind, valve int) bool {
	target := fault.Fault{Kind: fault.StuckAt0, Valve: valve}
	if kind == fault.CutVector {
		target = fault.Fault{Kind: fault.StuckAt1, Valve: valve}
	}
	return p.sim.FaultFreeOK(vec) && p.sim.Detects(vec, target)
}

// solvePathAt routes a simple src→dst channel path through the valve's
// edge and certifies that the resulting vector detects the valve's
// stuck-at-0 fault.
func (p *suitePre) solvePathAt(valve, src, dst int) (fault.Vector, bool) {
	p.pathSolves.Add(1)
	edge := p.c.Valve(valve).Edge
	edges, err := routeThrough(p.c, p.c.Ports[src].Node, p.c.Ports[dst].Node, edge, p.cost)
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

// solveValve runs the full per-valve solve: one certified path and one
// certified cut vector (either may be absent on irregular chips).
func (p *suitePre) solveValve(valve int) valveVectors {
	var vv valveVectors
	vv.path, vv.hasPath = p.solvePathFor(valve)
	vv.cut, vv.hasCut = p.solveCutFor(valve)
	return vv
}

// forEachIndex fans fn over [0, n) with an atomic index claim, exactly the
// fault engine's pool shape: results keyed by index are bit-identical for
// any worker count.
func forEachIndex(ctx context.Context, workers, n int, fn func(int)) error {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	var next atomic.Int64
	var stopped atomic.Bool
	done := ctx.Done()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					stopped.Store(true)
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if stopped.Load() {
		return ctx.Err()
	}
	return nil
}

// suiteKey is the content key a suite dedups vectors by.
func suiteKey(v fault.Vector) string {
	buf := make([]byte, 0, 8+4*(len(v.Valves)+2))
	buf = strconv.AppendInt(buf, int64(v.Kind), 10)
	for _, x := range v.Valves {
		buf = append(buf, 'v')
		buf = strconv.AppendInt(buf, int64(x), 10)
	}
	for _, x := range v.Sources {
		buf = append(buf, 's')
		buf = strconv.AppendInt(buf, int64(x), 10)
	}
	for _, x := range v.Meters {
		buf = append(buf, 'm')
		buf = strconv.AppendInt(buf, int64(x), 10)
	}
	return string(buf)
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
			key := suiteKey(vv.path)
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
			key := suiteKey(vv.cut)
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
// reference engine the template engine is measured and property-tested
// against.
func GenerateBaseline(c *chip.Chip, opts SuiteOptions) (*Suite, error) {
	return GenerateBaselineCtx(context.Background(), c, opts)
}

// GenerateBaselineCtx is GenerateBaseline with cooperative cancellation,
// checked once per valve.
func GenerateBaselineCtx(ctx context.Context, c *chip.Chip, opts SuiteOptions) (*Suite, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	pre := newSuitePre(c)
	slots := make([]valveVectors, c.NumValves())
	err := forEachIndex(ctx, opts.workers(len(slots)), len(slots), func(v int) {
		slots[v] = pre.solveValve(v)
	})
	if err != nil {
		return nil, err
	}
	s := assembleSuite(c, slots)
	s.Stats.Engine = "baseline"
	s.Stats.PathSolves = pre.pathSolves.Load()
	s.Stats.CutSolves = pre.cutSolves.Load()
	s.Stats.SimEvals = pre.metrics.Snapshot().MemoMisses
	return s, nil
}
