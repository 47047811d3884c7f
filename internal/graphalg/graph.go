// Package graphalg provides the graph-algorithm substrate used across the
// DFT flow: undirected graphs over dense integer node IDs, reachability,
// shortest paths, connectivity, cycle decomposition, and max-flow/min-cut
// (including vertex cuts via node splitting).
//
// The package is deliberately minimal and allocation-conscious: the fault
// simulator calls reachability once per (vector, fault) pair and the
// schedulers call shortest-path routing once per transport, so these
// routines sit on the hot path of every experiment in the paper.
package graphalg

import (
	"fmt"
	"sort"
)

// Graph is an undirected multigraph over nodes 0..N-1. Edges carry integer
// IDs so callers can attach attributes (valves, channels) externally.
type Graph struct {
	n     int
	adj   [][]Arc // adj[u] lists arcs leaving u
	edges []edgeRec
}

// Arc is one direction of an undirected edge.
type Arc struct {
	To   int // head node
	Edge int // edge ID shared by both directions
}

type edgeRec struct {
	u, v    int
	deleted bool
}

// NewGraph returns an empty graph with n nodes and no edges.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic("graphalg: negative node count")
	}
	return &Graph{n: n, adj: make([][]Arc, n)}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of edges ever added, including deleted ones.
// Edge IDs are dense in [0, NumEdges()).
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddNode appends a new node and returns its ID.
func (g *Graph) AddNode() int {
	g.adj = append(g.adj, nil)
	g.n++
	return g.n - 1
}

// AddEdge adds an undirected edge between u and v and returns its edge ID.
// Self-loops and parallel edges are allowed.
func (g *Graph) AddEdge(u, v int) int {
	g.checkNode(u)
	g.checkNode(v)
	id := len(g.edges)
	g.edges = append(g.edges, edgeRec{u: u, v: v})
	g.adj[u] = append(g.adj[u], Arc{To: v, Edge: id})
	if u != v {
		g.adj[v] = append(g.adj[v], Arc{To: u, Edge: id})
	}
	return id
}

// Endpoints returns the two endpoints of edge id.
func (g *Graph) Endpoints(id int) (u, v int) {
	e := g.edges[id]
	return e.u, e.v
}

// EdgeDeleted reports whether edge id has been marked deleted.
func (g *Graph) EdgeDeleted(id int) bool { return g.edges[id].deleted }

// DeleteEdge marks edge id deleted. Traversals skip deleted edges.
// Deletion is reversible with RestoreEdge; this supports the fault
// simulator's inject/heal cycle without rebuilding adjacency.
func (g *Graph) DeleteEdge(id int) { g.edges[id].deleted = true }

// RestoreEdge undoes DeleteEdge.
func (g *Graph) RestoreEdge(id int) { g.edges[id].deleted = false }

// Degree returns the number of live (non-deleted) edges incident to u.
// A self-loop counts once.
func (g *Graph) Degree(u int) int {
	g.checkNode(u)
	d := 0
	for _, a := range g.adj[u] {
		if !g.edges[a.Edge].deleted {
			d++
		}
	}
	return d
}

// Neighbors returns the arcs incident to u over live edges. The returned
// slice is freshly allocated.
func (g *Graph) Neighbors(u int) []Arc {
	g.checkNode(u)
	var out []Arc
	for _, a := range g.adj[u] {
		if !g.edges[a.Edge].deleted {
			out = append(out, a)
		}
	}
	return out
}

// Adjacency returns u's internal arc slice, including arcs of deleted
// edges — callers must filter with EdgeDeleted. The returned slice must
// not be modified and is valid until the next AddEdge or AddNode. It
// exists for allocation-free traversals (Neighbors copies).
func (g *Graph) Adjacency(u int) []Arc {
	g.checkNode(u)
	return g.adj[u]
}

// IncidentEdges returns the live edge IDs incident to u, sorted ascending.
func (g *Graph) IncidentEdges(u int) []int {
	arcs := g.Neighbors(u)
	out := make([]int, 0, len(arcs))
	for _, a := range arcs {
		out = append(out, a.Edge)
	}
	sort.Ints(out)
	return out
}

// Clone returns a deep copy of the graph, including deletion marks.
func (g *Graph) Clone() *Graph {
	ng := &Graph{n: g.n, adj: make([][]Arc, g.n), edges: append([]edgeRec(nil), g.edges...)}
	for u, arcs := range g.adj {
		ng.adj[u] = append([]Arc(nil), arcs...)
	}
	return ng
}

func (g *Graph) checkNode(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graphalg: node %d out of range [0,%d)", u, g.n))
	}
}

// BFSFrom runs a breadth-first search from src over live edges, restricted
// to edges for which allow(edgeID) is true (nil allow means all live edges).
// It returns dist with dist[u] = hop count, or -1 if unreachable.
func (g *Graph) BFSFrom(src int, allow func(edge int) bool) []int {
	g.checkNode(src)
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int, 0, g.n)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range g.adj[u] {
			if g.edges[a.Edge].deleted {
				continue
			}
			if allow != nil && !allow(a.Edge) {
				continue
			}
			if dist[a.To] < 0 {
				dist[a.To] = dist[u] + 1
				queue = append(queue, a.To)
			}
		}
	}
	return dist
}

// Reachable reports whether dst is reachable from src over live edges
// permitted by allow (nil allow means all live edges).
func (g *Graph) Reachable(src, dst int, allow func(edge int) bool) bool {
	if src == dst {
		return true
	}
	return g.BFSFrom(src, allow)[dst] >= 0
}

// Scratch holds reusable BFS buffers for repeated reachability and
// shortest-path queries on graphs of similar size. The zero value is ready
// to use. A Scratch may be reused across graphs but must not be shared
// between goroutines.
type Scratch struct {
	seen  []int // seen[u] == epoch means u was visited this query
	epoch int
	queue []int

	// ShortestPathScratch's BFS tree (valid for visited nodes only) and
	// its result buffers.
	prevNode, prevEdge []int
	nodes, edges       []int
}

// visit starts a new query over a graph of n nodes: it grows the visit
// marks when needed and returns the fresh epoch.
func (s *Scratch) visit(n int) int {
	if len(s.seen) < n {
		s.seen = make([]int, n)
		s.epoch = 0
	}
	s.epoch++
	return s.epoch
}

// ReachableScratch is Reachable with caller-owned scratch buffers: repeated
// queries allocate nothing once the scratch has grown to the graph size.
// It also stops as soon as dst is dequeued, so it never does more work than
// Reachable.
func (g *Graph) ReachableScratch(s *Scratch, src, dst int, allow func(edge int) bool) bool {
	g.checkNode(src)
	g.checkNode(dst)
	if src == dst {
		return true
	}
	epoch := s.visit(g.n)
	seen := s.seen
	queue := s.queue[:0]
	seen[src] = epoch
	queue = append(queue, src)
	found := false
	for head := 0; head < len(queue) && !found; head++ {
		u := queue[head]
		for _, a := range g.adj[u] {
			if g.edges[a.Edge].deleted {
				continue
			}
			if allow != nil && !allow(a.Edge) {
				continue
			}
			if seen[a.To] == epoch {
				continue
			}
			if a.To == dst {
				found = true
				break
			}
			seen[a.To] = epoch
			queue = append(queue, a.To)
		}
	}
	s.queue = queue
	return found
}

// ShortestPath returns a minimum-hop path from src to dst over live edges
// permitted by allow, as (nodes, edges); nodes has one more element than
// edges. ok is false if dst is unreachable.
func (g *Graph) ShortestPath(src, dst int, allow func(edge int) bool) (nodes, edges []int, ok bool) {
	g.checkNode(src)
	g.checkNode(dst)
	prevNode := make([]int, g.n)
	prevEdge := make([]int, g.n)
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
		prevNode[i] = -1
		prevEdge[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 && dist[dst] < 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range g.adj[u] {
			if g.edges[a.Edge].deleted {
				continue
			}
			if allow != nil && !allow(a.Edge) {
				continue
			}
			if dist[a.To] < 0 {
				dist[a.To] = dist[u] + 1
				prevNode[a.To] = u
				prevEdge[a.To] = a.Edge
				queue = append(queue, a.To)
			}
		}
	}
	if src != dst && dist[dst] < 0 {
		return nil, nil, false
	}
	for u := dst; u != src; u = prevNode[u] {
		nodes = append(nodes, u)
		edges = append(edges, prevEdge[u])
	}
	nodes = append(nodes, src)
	reverseInts(nodes)
	reverseInts(edges)
	return nodes, edges, true
}

// ShortestPathScratch is ShortestPath with caller-owned buffers: repeated
// queries allocate nothing once the scratch has grown to the graph size.
// It visits nodes in ShortestPath's BFS order and stops at the same point,
// so it returns the same path node for node and edge for edge. The
// returned slices alias the scratch and are overwritten by its next query;
// a caller that needs two paths at once uses two scratches.
func (g *Graph) ShortestPathScratch(s *Scratch, src, dst int, allow func(edge int) bool) (nodes, edges []int, ok bool) {
	g.checkNode(src)
	g.checkNode(dst)
	epoch := s.visit(g.n)
	if len(s.prevNode) < g.n {
		s.prevNode = make([]int, g.n)
		s.prevEdge = make([]int, g.n)
	}
	seen, prevNode, prevEdge := s.seen, s.prevNode, s.prevEdge
	queue := s.queue[:0]
	seen[src] = epoch
	queue = append(queue, src)
	for head := 0; head < len(queue) && seen[dst] != epoch; head++ {
		u := queue[head]
		for _, a := range g.adj[u] {
			if g.edges[a.Edge].deleted {
				continue
			}
			if allow != nil && !allow(a.Edge) {
				continue
			}
			if seen[a.To] != epoch {
				seen[a.To] = epoch
				prevNode[a.To] = u
				prevEdge[a.To] = a.Edge
				queue = append(queue, a.To)
			}
		}
	}
	s.queue = queue
	if seen[dst] != epoch {
		return nil, nil, false
	}
	nodes, edges = s.nodes[:0], s.edges[:0]
	for u := dst; u != src; u = prevNode[u] {
		nodes = append(nodes, u)
		edges = append(edges, prevEdge[u])
	}
	nodes = append(nodes, src)
	reverseInts(nodes)
	reverseInts(edges)
	s.nodes, s.edges = nodes, edges
	return nodes, edges, true
}

// WeightedShortestPath runs Dijkstra with nonnegative per-edge weights
// (weight(edgeID) < 0 means the edge is forbidden) and returns the path as
// (nodes, edges, totalWeight). ok is false if dst is unreachable.
func (g *Graph) WeightedShortestPath(src, dst int, weight func(edge int) float64) (nodes, edges []int, total float64, ok bool) {
	g.checkNode(src)
	g.checkNode(dst)
	const inf = 1e308
	dist := make([]float64, g.n)
	prevNode := make([]int, g.n)
	prevEdge := make([]int, g.n)
	done := make([]bool, g.n)
	for i := range dist {
		dist[i] = inf
		prevNode[i] = -1
		prevEdge[i] = -1
	}
	dist[src] = 0
	h := &nodeHeap{}
	h.push(heapItem{node: src, dist: 0})
	for h.len() > 0 {
		it := h.pop()
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		if u == dst {
			break
		}
		for _, a := range g.adj[u] {
			if g.edges[a.Edge].deleted {
				continue
			}
			w := weight(a.Edge)
			if w < 0 {
				continue
			}
			nd := dist[u] + w
			if nd < dist[a.To] {
				dist[a.To] = nd
				prevNode[a.To] = u
				prevEdge[a.To] = a.Edge
				h.push(heapItem{node: a.To, dist: nd})
			}
		}
	}
	if dist[dst] >= inf {
		return nil, nil, 0, false
	}
	for u := dst; u != src; u = prevNode[u] {
		nodes = append(nodes, u)
		edges = append(edges, prevEdge[u])
	}
	nodes = append(nodes, src)
	reverseInts(nodes)
	reverseInts(edges)
	return nodes, edges, dist[dst], true
}

// BFSDistScratch is BFSFrom with caller-owned buffers: dist is resized (and
// returned) to the node count and filled exactly like BFSFrom's result, and
// repeated calls allocate nothing once the scratch queue has grown to the
// graph size. The traversal order — and therefore every distance — is
// identical to BFSFrom's.
func (g *Graph) BFSDistScratch(s *Scratch, dist []int, src int, allow func(edge int) bool) []int {
	g.checkNode(src)
	if cap(dist) < g.n {
		dist = make([]int, g.n)
	}
	dist = dist[:g.n]
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := s.queue[:0]
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, a := range g.adj[u] {
			if g.edges[a.Edge].deleted {
				continue
			}
			if allow != nil && !allow(a.Edge) {
				continue
			}
			if dist[a.To] < 0 {
				dist[a.To] = dist[u] + 1
				queue = append(queue, a.To)
			}
		}
	}
	s.queue = queue
	return dist
}

// PathScratch holds the reusable buffers of repeated weighted shortest-path
// queries. The zero value is ready to use; one PathScratch must not be
// shared between goroutines. The edge slice returned by
// WeightedShortestPathScratch aliases the scratch and is overwritten by the
// next query — callers that keep a path must copy it.
type PathScratch struct {
	dist     []float64
	prevNode []int
	prevEdge []int
	done     []bool
	heap     nodeHeap
	edges    []int
}

// WeightedShortestPathScratch is WeightedShortestPath restricted to the
// edge list (the schedulers never need the node list), with caller-owned
// scratch buffers: repeated queries allocate nothing once the scratch has
// grown to the graph size. The relaxation and heap order are identical to
// WeightedShortestPath's, so the returned path (not just its cost) matches
// it edge for edge.
func (g *Graph) WeightedShortestPathScratch(s *PathScratch, src, dst int, weight func(edge int) float64) (edges []int, total float64, ok bool) {
	g.checkNode(src)
	g.checkNode(dst)
	const inf = 1e308
	if len(s.dist) < g.n {
		s.dist = make([]float64, g.n)
		s.prevNode = make([]int, g.n)
		s.prevEdge = make([]int, g.n)
		s.done = make([]bool, g.n)
	}
	dist, prevNode, prevEdge, done := s.dist[:g.n], s.prevNode[:g.n], s.prevEdge[:g.n], s.done[:g.n]
	for i := 0; i < g.n; i++ {
		dist[i] = inf
		prevNode[i] = -1
		prevEdge[i] = -1
		done[i] = false
	}
	dist[src] = 0
	h := &s.heap
	h.items = h.items[:0]
	h.push(heapItem{node: src, dist: 0})
	for h.len() > 0 {
		it := h.pop()
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		if u == dst {
			break
		}
		for _, a := range g.adj[u] {
			if g.edges[a.Edge].deleted {
				continue
			}
			w := weight(a.Edge)
			if w < 0 {
				continue
			}
			nd := dist[u] + w
			if nd < dist[a.To] {
				dist[a.To] = nd
				prevNode[a.To] = u
				prevEdge[a.To] = a.Edge
				h.push(heapItem{node: a.To, dist: nd})
			}
		}
	}
	if dist[dst] >= inf {
		return nil, 0, false
	}
	out := s.edges[:0]
	for u := dst; u != src; u = prevNode[u] {
		out = append(out, prevEdge[u])
	}
	reverseInts(out)
	s.edges = out
	return out, dist[dst], true
}

// ConnectedComponents labels each node with a component ID in [0, k) and
// returns (labels, k), considering live edges only.
func (g *Graph) ConnectedComponents() ([]int, int) {
	label := make([]int, g.n)
	for i := range label {
		label[i] = -1
	}
	k := 0
	for s := 0; s < g.n; s++ {
		if label[s] >= 0 {
			continue
		}
		label[s] = k
		stack := []int{s}
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, a := range g.adj[u] {
				if g.edges[a.Edge].deleted {
					continue
				}
				if label[a.To] < 0 {
					label[a.To] = k
					stack = append(stack, a.To)
				}
			}
		}
		k++
	}
	return label, k
}

func reverseInts(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}

// --- tiny binary heap for Dijkstra -----------------------------------------

type heapItem struct {
	node int
	dist float64
}

type nodeHeap struct{ items []heapItem }

func (h *nodeHeap) len() int { return len(h.items) }

func (h *nodeHeap) push(it heapItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].dist <= h.items[i].dist {
			break
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

func (h *nodeHeap) pop() heapItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.items) && h.items[l].dist < h.items[small].dist {
			small = l
		}
		if r < len(h.items) && h.items[r].dist < h.items[small].dist {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}
