// Package grid implements the virtual connection grid of the DAC'18 DFT
// paper (Fig. 5): a W×H lattice of nodes connected by unit edges. A chip is
// mapped onto the grid by assigning devices to nodes and channels to edges;
// the unoccupied nodes and edges are the candidate locations for DFT
// channels and valves.
package grid

import (
	"fmt"

	"repro/internal/graphalg"
)

// Coord is a lattice coordinate. X grows rightwards, Y downwards.
type Coord struct {
	X, Y int
}

func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Manhattan returns the L1 distance between two coordinates.
func Manhattan(a, b Coord) int { return abs(a.X-b.X) + abs(a.Y-b.Y) }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Grid is a W×H connection grid. Node IDs are dense (y*W + x); edge IDs are
// dense and shared with the embedded graphalg.Graph, which exposes the full
// lattice (all edges live).
type Grid struct {
	W, H  int
	graph *graphalg.Graph
	// right[n] and down[n] are the IDs of the edges from node n to its
	// right and lower neighbours, -1 on the last column or row.
	right, down []int
}

// New constructs a W×H grid with all lattice edges present.
func New(w, h int) *Grid {
	if w < 2 || h < 2 {
		panic("grid: dimensions must be at least 2x2")
	}
	g := &Grid{W: w, H: h, graph: graphalg.NewGraph(w * h), right: make([]int, w*h), down: make([]int, w*h)}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			u := g.NodeAt(Coord{x, y})
			g.right[u], g.down[u] = -1, -1
			if x+1 < w {
				g.right[u] = g.graph.AddEdge(u, u+1)
			}
			if y+1 < h {
				g.down[u] = g.graph.AddEdge(u, u+w)
			}
		}
	}
	return g
}

// Graph exposes the underlying lattice graph. Callers must not delete
// edges; use allow-filters instead.
func (g *Grid) Graph() *graphalg.Graph { return g.graph }

// NumNodes returns W*H.
func (g *Grid) NumNodes() int { return g.W * g.H }

// NumEdges returns the number of lattice edges.
func (g *Grid) NumEdges() int { return g.graph.NumEdges() }

// NodeAt maps a coordinate to its node ID.
func (g *Grid) NodeAt(c Coord) int {
	if !g.InBounds(c) {
		panic(fmt.Sprintf("grid: coordinate %v outside %dx%d", c, g.W, g.H))
	}
	return c.Y*g.W + c.X
}

// CoordOf maps a node ID back to its coordinate.
func (g *Grid) CoordOf(node int) Coord {
	if node < 0 || node >= g.NumNodes() {
		panic(fmt.Sprintf("grid: node %d outside %dx%d", node, g.W, g.H))
	}
	return Coord{X: node % g.W, Y: node / g.W}
}

// InBounds reports whether c lies on the grid.
func (g *Grid) InBounds(c Coord) bool {
	return c.X >= 0 && c.X < g.W && c.Y >= 0 && c.Y < g.H
}

// OnBoundary reports whether c lies on the grid boundary (where external
// ports may be placed).
func (g *Grid) OnBoundary(c Coord) bool {
	return c.X == 0 || c.Y == 0 || c.X == g.W-1 || c.Y == g.H-1
}

// EdgeBetween returns the edge ID connecting two adjacent nodes; ok is
// false for nodes that are not lattice neighbours or not on the grid.
func (g *Grid) EdgeBetween(u, v int) (int, bool) {
	if u > v {
		u, v = v, u
	}
	if u < 0 || v >= g.NumNodes() {
		return 0, false
	}
	e := -1
	switch v - u {
	case 1:
		e = g.right[u] // -1 across a row wrap
	case g.W:
		e = g.down[u]
	}
	if e < 0 {
		return 0, false
	}
	return e, true
}

// EdgeBetweenCoords returns the edge ID connecting two adjacent coordinates.
func (g *Grid) EdgeBetweenCoords(a, b Coord) (int, bool) {
	return g.EdgeBetween(g.NodeAt(a), g.NodeAt(b))
}

// EdgeEndpoints returns the coordinates of edge id's endpoints.
func (g *Grid) EdgeEndpoints(id int) (Coord, Coord) {
	u, v := g.graph.Endpoints(id)
	return g.CoordOf(u), g.CoordOf(v)
}

// IncidentEdges returns the lattice edges incident to a node.
func (g *Grid) IncidentEdges(node int) []int {
	return g.graph.IncidentEdges(node)
}

// PathEdges converts a coordinate walk into edge IDs, validating adjacency.
func (g *Grid) PathEdges(walk []Coord) ([]int, error) {
	if len(walk) < 2 {
		return nil, fmt.Errorf("grid: walk needs at least 2 coordinates, got %d", len(walk))
	}
	edges := make([]int, 0, len(walk)-1)
	for i := 1; i < len(walk); i++ {
		if Manhattan(walk[i-1], walk[i]) != 1 {
			return nil, fmt.Errorf("grid: walk step %v -> %v is not a unit move", walk[i-1], walk[i])
		}
		e, ok := g.EdgeBetweenCoords(walk[i-1], walk[i])
		if !ok {
			return nil, fmt.Errorf("grid: no edge between %v and %v", walk[i-1], walk[i])
		}
		edges = append(edges, e)
	}
	return edges, nil
}
