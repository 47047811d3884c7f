// Package graphalg provides the graph-algorithm substrate used across the
// DFT flow: undirected graphs over dense integer node IDs, reachability,
// shortest paths, connectivity, cycle decomposition, and max-flow/min-cut
// (including vertex cuts via node splitting).
//
// The package is deliberately minimal and allocation-conscious: the fault
// simulator calls reachability once per (vector, fault) pair and the
// schedulers call shortest-path routing once per transport, so these
// routines sit on the hot path of every experiment in the paper. The
// weighted and filtered searches the flow runs read per-edge tables — a
// weight per edge, or an edge mask — instead of calling a function per
// relaxation.
package graphalg

import (
	"fmt"
	"math"
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
	u, v int
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

// NumEdges returns the number of edges. Edge IDs are dense in
// [0, NumEdges()).
func (g *Graph) NumEdges() int { return len(g.edges) }

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

// Neighbors returns the arcs incident to u. The returned slice is freshly
// allocated.
func (g *Graph) Neighbors(u int) []Arc {
	g.checkNode(u)
	return append([]Arc(nil), g.adj[u]...)
}

// Adjacency returns u's internal arc slice. The returned slice must not be
// modified and is valid until the next AddEdge. It exists for
// allocation-free traversals (Neighbors copies).
func (g *Graph) Adjacency(u int) []Arc {
	g.checkNode(u)
	return g.adj[u]
}

// IncidentEdges returns the edge IDs incident to u, sorted ascending.
func (g *Graph) IncidentEdges(u int) []int {
	arcs := g.Neighbors(u)
	out := make([]int, 0, len(arcs))
	for _, a := range arcs {
		out = append(out, a.Edge)
	}
	sort.Ints(out)
	return out
}

func (g *Graph) checkNode(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graphalg: node %d out of range [0,%d)", u, g.n))
	}
}

// BFSFrom runs a breadth-first search from src, restricted to edges for
// which allow(edgeID) is true (nil allow means all edges).
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

// Reachable reports whether dst is reachable from src over edges permitted
// by allow (nil allow means all edges).
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

// ShortestPath returns a minimum-hop path from src to dst over edges
// permitted by allow, as (nodes, edges); nodes has one more element than
// edges. ok is false if dst is unreachable. It allocates per call and is
// the reference ShortestPathScratch is tested against.
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

// ShortestPathScratch is ShortestPath over an edge mask, with caller-owned
// buffers: allowed[e] admits edge e (a nil mask admits every edge), and
// repeated queries allocate nothing once the scratch has grown to the
// graph size. It visits nodes in ShortestPath's BFS order and stops at the
// same point, so it returns the same path node for node and edge for edge
// as ShortestPath with the filter allow(e) = allowed[e]. The returned
// slices alias the scratch and are overwritten by its next query; a caller
// that needs two paths at once uses two scratches.
func (g *Graph) ShortestPathScratch(s *Scratch, src, dst int, allowed []bool) (nodes, edges []int, ok bool) {
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
			if allowed != nil && !allowed[a.Edge] {
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
// (nodes, edges, totalWeight). ok is false if dst is unreachable. It
// allocates per call and is the reference the table-driven
// BoundedPathScratch and ShortestPathTreeScratch are tested against.
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
// queries and the shortest-path tree of the last one. The zero value is
// ready to use; one PathScratch must not be shared between goroutines. The
// edge slices returned by its queries and by PathTo alias the scratch and
// are overwritten by the next query or PathTo call — callers that keep a
// path must copy it.
type PathScratch struct {
	src      int
	dist     []float64
	prevNode []int
	prevEdge []int
	done     []bool
	heap     nodeHeap
	edges    []int
}

// BoundedPathScratch is WeightedShortestPath restricted to the edge list
// (the callers never need the node list), over a weight table instead of
// a weight function, for a caller that only wants the path when off + its
// cost < limit. w[e] is edge e's weight, and w[e] < 0 forbids the edge.
// Repeated queries allocate nothing once the scratch has grown to the
// graph size. The search gives up at the first node it settles at a
// distance d with off + d >= limit. Dijkstra settles nodes in
// nondecreasing distance and IEEE addition is monotone, so every node
// settled before dst has off + d <= off + cost(dst). Hence the search
// returns a path exactly when WeightedShortestPath does and off + cost <
// limit, and then the same path, edge for edge: until it gives up it
// performs WeightedShortestPath's relaxations and heap operations with
// weight(e) = w[e] in the same order. With off 0 and an infinite limit it
// is the unbounded search.
func (g *Graph) BoundedPathScratch(s *PathScratch, src, dst int, w []float64, off, limit float64) (edges []int, total float64, ok bool) {
	g.dijkstra(s, src, dst, dst, w, off, limit)
	return s.PathTo(dst)
}

// ShortestPathTreeScratch runs one search from src that settles both dst1
// and dst2 (it stops once both are settled or nothing is left to settle);
// PathTo then reads the path to either. A settled node's distance and
// predecessor never change again (weights are nonnegative and a relaxation
// must strictly improve), and until the later target is settled the search
// performs the heap operations of a single-target search for it, so PathTo
// returns, for each target, the path an unbounded BoundedPathScratch
// returns for it alone.
func (g *Graph) ShortestPathTreeScratch(s *PathScratch, src, dst1, dst2 int, w []float64) {
	g.dijkstra(s, src, dst1, dst2, w, 0, math.Inf(1))
}

// PathTo returns the path from the last search's source to dst as edges,
// with its cost. ok is false unless that search settled dst, so it holds
// for the targets of a search that reached them and may fail for any
// other node.
func (s *PathScratch) PathTo(dst int) (edges []int, total float64, ok bool) {
	if dst < 0 || dst >= len(s.done) || !s.done[dst] {
		return nil, 0, false
	}
	out := s.edges[:0]
	for u := dst; u != s.src; u = s.prevNode[u] {
		out = append(out, s.prevEdge[u])
	}
	reverseInts(out)
	s.edges = out
	return out, s.dist[dst], true
}

// dijkstra is the search behind the scratch queries: WeightedShortestPath's
// relaxation and heap order over the weight table w. It settles nodes from
// src until dst1 and dst2 are both settled or the heap is empty, and gives
// up at the first node settled at a distance d with off + d >= limit.
func (g *Graph) dijkstra(s *PathScratch, src, dst1, dst2 int, w []float64, off, limit float64) {
	g.checkNode(src)
	g.checkNode(dst1)
	g.checkNode(dst2)
	const inf = 1e308
	if cap(s.dist) < g.n {
		s.dist = make([]float64, g.n)
		s.prevNode = make([]int, g.n)
		s.prevEdge = make([]int, g.n)
		s.done = make([]bool, g.n)
	}
	s.src = src
	s.dist, s.prevNode, s.prevEdge, s.done = s.dist[:g.n], s.prevNode[:g.n], s.prevEdge[:g.n], s.done[:g.n]
	dist, prevNode, prevEdge, done := s.dist, s.prevNode, s.prevEdge, s.done
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
	left := 2 // targets still to settle
	if dst1 == dst2 {
		left = 1
	}
	for h.len() > 0 {
		it := h.pop()
		u := it.node
		if done[u] {
			continue
		}
		if off+dist[u] >= limit {
			return
		}
		done[u] = true
		if u == dst1 || u == dst2 {
			if left--; left == 0 {
				return
			}
		}
		for _, a := range g.adj[u] {
			wt := w[a.Edge]
			if wt < 0 {
				continue
			}
			nd := dist[u] + wt
			if nd < dist[a.To] {
				dist[a.To] = nd
				prevNode[a.To] = u
				prevEdge[a.To] = a.Edge
				h.push(heapItem{node: a.To, dist: nd})
			}
		}
	}
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
