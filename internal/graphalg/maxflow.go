package graphalg

import "sort"

// FlowNetwork is a directed flow network with integer capacities, used for
// minimum-cut computations in test-cut generation. It implements Dinic's
// algorithm, which is more than fast enough for biochip-sized instances
// (tens of nodes).
//
// A network can be reused across queries: Reset empties it but keeps its
// adjacency, arc and traversal buffers, so a caller that rebuilds and
// solves many networks of similar size allocates nothing once the buffers
// have grown. The zero value is an empty network ready for Reset. A
// FlowNetwork must not be shared between goroutines.
type FlowNetwork struct {
	n    int
	head [][]int // head[u] = indices into arcs
	arcs []flowArc

	// Reusable query buffers: Dinic's levels and per-node arc iterators,
	// the BFS queue, the residual reach set and the cut's tag list.
	level []int
	iter  []int
	queue []int
	reach []bool
	tags  []int
}

type flowArc struct {
	to, rev int // rev = index of reverse arc in arcs
	cap     int
	tag     int // caller tag (e.g. valve ID); -1 for plumbing arcs
}

// NewFlowNetwork returns a flow network with n nodes.
func NewFlowNetwork(n int) *FlowNetwork {
	return &FlowNetwork{n: n, head: make([][]int, n)}
}

// Reset empties the network to n nodes and no arcs. It keeps every buffer
// (per-node adjacency lists included), so rebuilding a network of similar
// size allocates nothing.
func (f *FlowNetwork) Reset(n int) {
	if n > cap(f.head) {
		// Keep the adjacency buffers of the nodes that already exist.
		head := make([][]int, n)
		copy(head, f.head[:cap(f.head)])
		f.head = head
	}
	f.head = f.head[:n]
	for u := range f.head {
		f.head[u] = f.head[u][:0]
	}
	f.arcs = f.arcs[:0]
	f.n = n
}

// AddArc adds a directed arc u->v with the given capacity and caller tag.
// A residual arc with zero capacity is added automatically.
func (f *FlowNetwork) AddArc(u, v, capacity, tag int) {
	f.head[u] = append(f.head[u], len(f.arcs))
	f.arcs = append(f.arcs, flowArc{to: v, rev: len(f.arcs) + 1, cap: capacity, tag: tag})
	f.head[v] = append(f.head[v], len(f.arcs))
	f.arcs = append(f.arcs, flowArc{to: u, rev: len(f.arcs) - 1, cap: 0, tag: -1})
}

// MaxFlow computes the maximum s-t flow (Dinic). It consumes the residual
// capacities, so it answers one query per build: Reset and re-add the
// arcs before the next MaxFlow.
func (f *FlowNetwork) MaxFlow(s, t int) int {
	const inf = int(^uint(0) >> 1)
	f.level = resizeInts(f.level, f.n)
	f.iter = resizeInts(f.iter, f.n)
	total := 0
	for {
		f.bfsLevel(s)
		if f.level[t] < 0 {
			return total
		}
		clear(f.iter)
		for {
			pushed := f.dfsAugment(s, t, inf)
			if pushed == 0 {
				break
			}
			total += pushed
		}
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

func (f *FlowNetwork) bfsLevel(s int) {
	level := f.level
	for i := range level {
		level[i] = -1
	}
	level[s] = 0
	queue := append(f.queue[:0], s)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, ai := range f.head[u] {
			a := f.arcs[ai]
			if a.cap > 0 && level[a.to] < 0 {
				level[a.to] = level[u] + 1
				queue = append(queue, a.to)
			}
		}
	}
	f.queue = queue
}

func (f *FlowNetwork) dfsAugment(u, t, limit int) int {
	if u == t {
		return limit
	}
	level, iter := f.level, f.iter
	for ; iter[u] < len(f.head[u]); iter[u]++ {
		ai := f.head[u][iter[u]]
		a := &f.arcs[ai]
		if a.cap <= 0 || level[a.to] != level[u]+1 {
			continue
		}
		d := limit
		if a.cap < d {
			d = a.cap
		}
		pushed := f.dfsAugment(a.to, t, d)
		if pushed > 0 {
			a.cap -= pushed
			f.arcs[a.rev].cap += pushed
			return pushed
		}
	}
	return 0
}

// MinCutArcs returns, after MaxFlow has run, the tags of saturated arcs that
// cross the residual s-side/t-side partition. Tags of plumbing arcs (-1) are
// skipped; duplicate tags are deduplicated and the result is sorted. The
// returned slice belongs to the network: it is overwritten by the next
// MinCutArcs call, so a caller that keeps it past that must copy it.
func (f *FlowNetwork) MinCutArcs(s int) []int {
	// Residual reachability from s.
	if cap(f.reach) < f.n {
		f.reach = make([]bool, f.n)
	}
	reach := f.reach[:f.n]
	clear(reach)
	reach[s] = true
	queue := append(f.queue[:0], s)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, ai := range f.head[u] {
			a := f.arcs[ai]
			if a.cap > 0 && !reach[a.to] {
				reach[a.to] = true
				queue = append(queue, a.to)
			}
		}
	}
	f.queue = queue
	tags := f.tags[:0]
	for u := 0; u < f.n; u++ {
		if !reach[u] {
			continue
		}
		for _, ai := range f.head[u] {
			a := f.arcs[ai]
			if a.tag >= 0 && a.cap == 0 && !reach[a.to] {
				tags = append(tags, a.tag)
			}
		}
	}
	sort.Ints(tags)
	out := tags[:0]
	for _, tag := range tags {
		if len(out) == 0 || tag != out[len(out)-1] {
			out = append(out, tag)
		}
	}
	f.tags = out
	return out
}

// MinEdgeCut computes a minimum s-t cut of an undirected Graph where each
// edge has unit capacity. It returns the cut's edge IDs (sorted) and the
// cut size. allow restricts the edges considered (nil = all).
func MinEdgeCut(g *Graph, s, t int, allow func(edge int) bool) ([]int, int) {
	f := NewFlowNetwork(g.NumNodes())
	for id := 0; id < g.NumEdges(); id++ {
		if allow != nil && !allow(id) {
			continue
		}
		u, v := g.Endpoints(id)
		// Undirected unit edge = two directed unit arcs with the same tag.
		f.AddArc(u, v, 1, id)
		f.AddArc(v, u, 1, id)
	}
	size := f.MaxFlow(s, t)
	return f.MinCutArcs(s), size
}
