// Engine is the warm-start scheduler: everything that depends only on the
// chip, the assay and the fault ban-set — channel adjacency, valve lookup,
// critical-path priorities, storage doorsteps, pristine candidate paths —
// is computed once in NewEngine, and each Engine.Run performs only the
// control-dependent work: event simulation and per-snapshot valve-state
// validation. Run state lives in a sync.Pool so the hot loop is
// allocation-free. testdata/sched_fixture.txt pins the schedules bit for
// bit: it was recorded from the seed scheduler, which rebuilt all of this
// state on every call (fixture_test.go).
package sched

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/graphalg"
)

// Engine schedules one (chip, assay, ban-set) combination under many
// control assignments. It is safe for concurrent Run calls — the PSO
// fitness workers share one engine per configuration.
type Engine struct {
	chip  *chip.Chip
	graph *assay.Graph
	grid  *graphalg.Graph

	// Canonical ban-set the engine was built for (sorted, deduplicated,
	// clipped to the valve range). Run rejects params naming a different
	// set: the precomputed routing state below bakes the bans in.
	banClosed, banOpen []int

	// Per-valve ban flags, and the per-edge ban they derive: a banned
	// valve's segment can store no fluid.
	stuckClosed, stuckOpen []bool
	bannedEdge             []bool

	// valveOf caches chip.ValveOnEdge per edge (-1 = unvalved).
	valveOf []int
	// baseWeight is the routing weight of each edge in a pristine snapshot
	// (no transport in flight, no stored product, no penalty): 1 for a
	// conducting channel, -1 for unvalved or stuck-closed segments. When a
	// run is in that snapshot, dynamic Dijkstra provably equals a search
	// under baseWeight, which is what makes the candidate cache sound.
	baseWeight []float64
	// incident[u] lists the edge IDs at node u, sorted ascending —
	// the per-snapshot contamination guard walks these instead of
	// allocating IncidentEdges on every validation attempt.
	incident [][]int
	// doorstep marks edges with an endpoint on a device or port node;
	// portOfNode inverts chip.PortAt (-1 = no port).
	doorstep   []bool
	portOfNode []int
	// priority is the critical-path list-scheduling priority per op.
	priority []int

	numOps, numEdges, numValves int

	metrics *Metrics

	// indep is the lazily built all-independent control used when Run is
	// given a nil assignment.
	indepOnce sync.Once
	indep     *chip.Control

	// cand caches pristine candidate paths per (from, to) location pair,
	// filled lazily by the runs (candMu guards the map; entries are
	// immutable once stored).
	candMu sync.RWMutex
	cand   map[uint64]candidate

	pool sync.Pool // *runState
}

// candidate is one cached pristine path: the full edge list (including
// stored-segment entry/exit adjustments) or a cached routing failure.
type candidate struct {
	edges []int
	ok    bool
}

// NewEngine validates the assay graph and precomputes the
// control-independent scheduling state for one (chip, assay, ban-set)
// combination. The ban-set is taken from params.BanClosed/BanOpen; every
// subsequent Run must name the same set (the other Params fields remain
// free per call).
func NewEngine(c *chip.Chip, g *assay.Graph, params Params) (*Engine, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	grid := c.Grid.Graph()
	e := &Engine{
		chip:      c,
		graph:     g,
		grid:      grid,
		banClosed: canonicalBans(params.BanClosed, c.NumValves()),
		banOpen:   canonicalBans(params.BanOpen, c.NumValves()),
		numOps:    g.NumOps(),
		numEdges:  grid.NumEdges(),
		numValves: c.NumValves(),
		cand:      make(map[uint64]candidate),
	}
	e.stuckClosed = make([]bool, e.numValves)
	e.stuckOpen = make([]bool, e.numValves)
	e.bannedEdge = make([]bool, e.numEdges)
	for _, v := range e.banClosed {
		e.stuckClosed[v] = true
		e.bannedEdge[c.Valve(v).Edge] = true
	}
	for _, v := range e.banOpen {
		e.stuckOpen[v] = true
		e.bannedEdge[c.Valve(v).Edge] = true
	}
	e.valveOf = make([]int, e.numEdges)
	e.baseWeight = make([]float64, e.numEdges)
	for ed := 0; ed < e.numEdges; ed++ {
		v, ok := c.ValveOnEdge(ed)
		if !ok {
			e.valveOf[ed] = -1
			e.baseWeight[ed] = -1
			continue
		}
		e.valveOf[ed] = v
		if e.stuckClosed[v] {
			e.baseWeight[ed] = -1
		} else {
			e.baseWeight[ed] = 1
		}
	}
	e.incident = make([][]int, grid.NumNodes())
	for u := 0; u < grid.NumNodes(); u++ {
		e.incident[u] = grid.IncidentEdges(u)
	}
	e.doorstep = make([]bool, e.numEdges)
	e.portOfNode = make([]int, grid.NumNodes())
	for u := range e.portOfNode {
		e.portOfNode[u] = -1
	}
	resource := make([]bool, grid.NumNodes())
	for _, d := range c.Devices {
		resource[d.Node] = true
	}
	for _, p := range c.Ports {
		resource[p.Node] = true
		e.portOfNode[p.Node] = p.ID
	}
	for ed := 0; ed < e.numEdges; ed++ {
		u, v := grid.Endpoints(ed)
		e.doorstep[ed] = resource[u] || resource[v]
	}
	// Critical-path priorities: an op's duration plus its longest
	// successor chain.
	e.priority = make([]int, e.numOps)
	order, _ := g.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		u := order[i]
		best := 0
		for _, v := range g.Succs(u) {
			if e.priority[v] > best {
				best = e.priority[v]
			}
		}
		e.priority[u] = best + g.Op(u).Duration
	}
	e.pool.New = func() any { return newRunState(e) }
	return e, nil
}

// independent returns the cached all-independent control assignment.
func (e *Engine) independent() *chip.Control {
	e.indepOnce.Do(func() { e.indep = chip.IndependentControl(e.chip) })
	return e.indep
}

// Run schedules the assay under the control assignment (nil = independent
// control). Safe for concurrent use.
func (e *Engine) Run(ctrl *chip.Control, params Params) (*Schedule, error) {
	sch, _, err := e.RunProgress(ctrl, params)
	return sch, err
}

// RunCtx is Run with cooperative cancellation.
func (e *Engine) RunCtx(ctx context.Context, ctrl *chip.Control, params Params) (*Schedule, error) {
	sch, _, err := e.RunProgressCtx(ctx, ctrl, params)
	return sch, err
}

// RunProgress is Run that also reports how many operations completed; on
// failure the count tells how far the schedule got before wedging, which
// the PSO uses to grade nearly-schedulable sharing schemes.
func (e *Engine) RunProgress(ctrl *chip.Control, params Params) (*Schedule, int, error) {
	return e.RunProgressCtx(context.Background(), ctrl, params)
}

// RunProgressCtx runs one control-dependent simulation with cooperative
// cancellation: the context is polled at every simulated event time and,
// on expiry, the run stops with the context's error and the
// operations-completed count reached so far. The schedule does not depend
// on the runs before it or running beside it.
func (e *Engine) RunProgressCtx(ctx context.Context, ctrl *chip.Control, params Params) (*Schedule, int, error) {
	params = params.withDefaults()
	if err := e.checkBans(params); err != nil {
		return nil, 0, err
	}
	if ctrl == nil {
		ctrl = e.independent()
	}
	if ctrl.Chip() != e.chip {
		return nil, 0, fmt.Errorf("sched: control assignment belongs to a different chip")
	}
	e.metrics.noteRun()
	rs := e.pool.Get().(*runState)
	rs.reset(ctrl, params, ctx)
	sch, done, err := rs.run()
	e.pool.Put(rs)
	return sch, done, err
}

// checkBans rejects Run params whose ban-set differs from the engine's —
// the precomputed routing state bakes the bans in, so a different set
// needs a different engine.
func (e *Engine) checkBans(params Params) error {
	if !equalInts(canonicalBans(params.BanClosed, e.numValves), e.banClosed) ||
		!equalInts(canonicalBans(params.BanOpen, e.numValves), e.banOpen) {
		return fmt.Errorf("sched: engine built for ban set closed=%v open=%v, run requested closed=%v open=%v",
			e.banClosed, e.banOpen, params.BanClosed, params.BanOpen)
	}
	return nil
}

// canonicalBans sorts, deduplicates and range-clips a ban list: duplicate
// and out-of-range valves are tolerated, not rejected.
func canonicalBans(valves []int, numValves int) []int {
	out := make([]int, 0, len(valves))
	for _, v := range valves {
		if v >= 0 && v < numValves {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	n := 0
	for i, v := range out {
		if i == 0 || v != out[n-1] {
			out[n] = v
			n++
		}
	}
	return out[:n]
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// candKey packs a (from, to) location pair into the candidate-cache key.
// Location IDs are grid node or edge IDs — far below 2^30 — so the pair
// packs losslessly.
func candKey(from, to location) uint64 {
	return uint64(from.kind)<<63 | uint64(to.kind)<<62 | uint64(from.id)<<31 | uint64(to.id)
}

// lookupCandidate returns the cached pristine path for a location pair.
func (e *Engine) lookupCandidate(key uint64) (candidate, bool) {
	e.candMu.RLock()
	c, ok := e.cand[key]
	e.candMu.RUnlock()
	return c, ok
}

// storeCandidate publishes a computed pristine path. Concurrent runs may
// race on a key; both compute the identical pure-function value, so the
// first store wins and the rest are dropped.
func (e *Engine) storeCandidate(key uint64, c candidate) {
	e.candMu.Lock()
	if _, ok := e.cand[key]; !ok {
		e.cand[key] = c
	}
	e.candMu.Unlock()
}
