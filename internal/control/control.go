// Package control synthesizes and analyzes the control layer of a
// continuous-flow biochip: the air channels that actuate each microvalve
// from off-chip control ports. The paper's valve-sharing scheme claims "no
// additional control ports are required"; this package quantifies that
// claim by actually routing the control channels — one boundary control
// port and one channel tree per control line — and reporting channel
// length, actuation delay (the concern of ref. [12]) and the skew between
// valves that share a line (the length-matching concern of ref. [14]).
//
// The control layer lives on its own routing grid of the same dimensions
// as the flow layer (the two layers are separate PDMS levels; a valve
// forms where a control channel crosses above its flow channel). Control
// channels of different lines must not overlap; they may touch at nodes
// (cross in separate sub-layers).
package control

import (
	"fmt"
	"sort"

	"repro/internal/chip"
	"repro/internal/grid"
)

// Params tunes the synthesis.
type Params struct {
	// DelayPerEdge is the pressure-propagation delay per control channel
	// segment, in microseconds (default 5).
	DelayPerEdge int
}

// portTries bounds how many candidate boundary ports are tried per line
// before reporting it unroutable.
const portTries = 8

func (p Params) withDefaults() Params {
	if p.DelayPerEdge <= 0 {
		p.DelayPerEdge = 5
	}
	return p
}

// LineRoute is the synthesized control tree of one control line.
type LineRoute struct {
	Line     int
	PortNode int   // boundary node carrying the external control port
	Edges    []int // control-grid edges of the routed tree
	// Valves lists the actuated valves with their terminal nodes and
	// delays.
	Valves []ValveTap
}

// ValveTap is one valve actuated by a line.
type ValveTap struct {
	Valve    int
	Terminal int // control-grid node above the valve's flow segment
	Delay    int // port-to-valve pressure propagation delay
}

// Layer is a synthesized control layer. GridW/GridH are the dimensions of
// the control routing grid (twice the flow pitch).
type Layer struct {
	Routes     []LineRoute
	Unroutable []int // control lines that could not be routed
	GridW      int
	GridH      int
	params     Params
}

// Stats summarizes a layer for reports and experiments.
type Stats struct {
	Lines         int
	Ports         int
	TotalLength   int // total control channel segments
	MaxDelay      int
	MaxSkew       int // worst delay difference within a shared line
	UnroutedLines int
}

// Stats computes summary statistics.
func (l *Layer) Stats() Stats {
	s := Stats{Lines: len(l.Routes) + len(l.Unroutable), Ports: len(l.Routes), UnroutedLines: len(l.Unroutable)}
	for _, r := range l.Routes {
		s.TotalLength += len(r.Edges)
		lo, hi := -1, -1
		for _, t := range r.Valves {
			if t.Delay > s.MaxDelay {
				s.MaxDelay = t.Delay
			}
			if lo < 0 || t.Delay < lo {
				lo = t.Delay
			}
			if t.Delay > hi {
				hi = t.Delay
			}
		}
		if len(r.Valves) > 1 && hi-lo > s.MaxSkew {
			s.MaxSkew = hi - lo
		}
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("control layer: %d lines on %d ports, %d segments, max delay %d, max skew %d, %d unrouted",
		s.Lines, s.Ports, s.TotalLength, s.MaxDelay, s.MaxSkew, s.UnroutedLines)
}

// Synthesize routes the control layer for a chip under a control
// assignment. Lines with more taps (shared lines) are routed first; each
// line gets the nearest free boundary port and a BFS-grown tree reaching
// every valve it actuates. An error is returned only for structural
// impossibilities; lines that simply cannot be routed in the remaining
// space are reported in Layer.Unroutable.
func Synthesize(c *chip.Chip, ctrl *chip.Control, params Params) (*Layer, error) {
	if ctrl.Chip() != c {
		return nil, fmt.Errorf("control: assignment belongs to a different chip")
	}
	params = params.withDefaults()
	// The control layer is routed at twice the flow-layer pitch (control
	// channels are much thinner than flow channels), which gives the
	// router room for the one-tree-per-line wiring.
	cw, ch := 2*c.Grid.W-1, 2*c.Grid.H-1
	g := grid.New(cw, ch)
	layer := &Layer{params: params, GridW: cw, GridH: ch}

	// Group valves by line; the terminal of a valve sits directly above
	// the midpoint of its flow segment (where the membrane forms).
	taps := map[int][]ValveTap{}
	for _, v := range c.Valves() {
		u, w := c.Grid.Graph().Endpoints(v.Edge)
		cu, cwd := c.Grid.CoordOf(u), c.Grid.CoordOf(w)
		mid := grid.Coord{X: cu.X + cwd.X, Y: cu.Y + cwd.Y} // doubled coords: midpoint
		term := g.NodeAt(mid)
		line := ctrl.LineOf(v.ID)
		taps[line] = append(taps[line], ValveTap{Valve: v.ID, Terminal: term})
	}
	lines := make([]int, 0, len(taps))
	for l := range taps {
		lines = append(lines, l)
	}
	sort.Slice(lines, func(i, j int) bool {
		if len(taps[lines[i]]) != len(taps[lines[j]]) {
			return len(taps[lines[i]]) > len(taps[lines[j]])
		}
		return lines[i] < lines[j]
	})

	occupied := make([]int, g.NumEdges()) // edge -> line+1, 0 free
	portUsed := map[int]bool{}

	for _, line := range lines {
		route, ok := routeLine(g, line, taps[line], occupied, portUsed, params)
		if !ok {
			layer.Unroutable = append(layer.Unroutable, line)
			continue
		}
		for _, e := range route.Edges {
			occupied[e] = line + 1
		}
		portUsed[route.PortNode] = true
		layer.Routes = append(layer.Routes, route)
	}
	sort.Slice(layer.Routes, func(i, j int) bool { return layer.Routes[i].Line < layer.Routes[j].Line })
	sort.Ints(layer.Unroutable)
	return layer, nil
}

// routeLine grows a tree from a boundary port to every terminal of a line.
func routeLine(g *grid.Grid, line int, valveTaps []ValveTap, occupied []int, portUsed map[int]bool, params Params) (LineRoute, bool) {
	gg := g.Graph()
	free := func(e int) bool { return occupied[e] == 0 }

	// Candidate boundary ports, nearest to the first terminal first.
	first := valveTaps[0].Terminal
	type cand struct {
		node, dist int
	}
	var cands []cand
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			c := grid.Coord{X: x, Y: y}
			if !g.OnBoundary(c) {
				continue
			}
			n := g.NodeAt(c)
			if portUsed[n] {
				continue
			}
			cands = append(cands, cand{n, grid.Manhattan(c, g.CoordOf(first))})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist < cands[j].dist
		}
		return cands[i].node < cands[j].node
	})
	tries := portTries
	if tries > len(cands) {
		tries = len(cands)
	}

	for t := 0; t < tries; t++ {
		port := cands[t].node
		treeNodes := map[int]bool{port: true}
		var treeEdges []int
		ok := true
		// Connect terminals one at a time, each via the nearest tree node
		// (a BFS Steiner heuristic).
		for _, tap := range valveTaps {
			if treeNodes[tap.Terminal] {
				continue
			}
			edges, found := connectToTree(gg, treeNodes, tap.Terminal, func(e int) bool {
				return free(e) || containsEdge(treeEdges, e)
			})
			if !found {
				ok = false
				break
			}
			for _, e := range edges {
				if !containsEdge(treeEdges, e) {
					treeEdges = append(treeEdges, e)
				}
				u, v := gg.Endpoints(e)
				treeNodes[u] = true
				treeNodes[v] = true
			}
		}
		if !ok {
			continue
		}
		// Delays: BFS over the tree from the port.
		route := LineRoute{Line: line, PortNode: port, Edges: treeEdges}
		inTree := map[int]bool{}
		for _, e := range treeEdges {
			inTree[e] = true
		}
		dist := gg.BFSFrom(port, func(e int) bool { return inTree[e] })
		for _, tap := range valveTaps {
			d := dist[tap.Terminal]
			if d < 0 {
				ok = false
				break
			}
			tap.Delay = d * params.DelayPerEdge
			route.Valves = append(route.Valves, tap)
		}
		if !ok {
			continue
		}
		return route, true
	}
	return LineRoute{}, false
}

// connectToTree finds the shortest path from any tree node to target over
// allowed edges.
func connectToTree(gg interface {
	BFSFrom(int, func(int) bool) []int
	ShortestPath(int, int, func(int) bool) ([]int, []int, bool)
}, treeNodes map[int]bool, target int, allow func(int) bool) ([]int, bool) {
	bestLen := -1
	var best []int
	for n := range treeNodes {
		_, edges, ok := gg.ShortestPath(n, target, allow)
		if !ok {
			continue
		}
		if bestLen < 0 || len(edges) < bestLen {
			bestLen = len(edges)
			best = edges
		}
	}
	return best, bestLen >= 0
}

func containsEdge(s []int, e int) bool {
	for _, v := range s {
		if v == e {
			return true
		}
	}
	return false
}

// CompareSharingOverhead synthesizes the control layer twice — once with
// the given sharing assignment and once with independent control — and
// returns both stats. This quantifies the paper's "no additional control
// ports" claim: sharing keeps the port count at the original valve count,
// while independent control needs one extra port and channel per DFT
// valve.
func CompareSharingOverhead(c *chip.Chip, shared *chip.Control, params Params) (sharedStats, indepStats Stats, err error) {
	sl, err := Synthesize(c, shared, params)
	if err != nil {
		return Stats{}, Stats{}, err
	}
	il, err := Synthesize(c, chip.IndependentControl(c), params)
	if err != nil {
		return Stats{}, Stats{}, err
	}
	return sl.Stats(), il.Stats(), nil
}
