package graphalg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// grid builds a w×h grid graph and returns it plus a node indexer.
func grid(w, h int) (*Graph, func(x, y int) int) {
	g := NewGraph(w * h)
	at := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				g.AddEdge(at(x, y), at(x+1, y))
			}
			if y+1 < h {
				g.AddEdge(at(x, y), at(x, y+1))
			}
		}
	}
	return g, at
}

func TestAddEdgeEndpoints(t *testing.T) {
	g := NewGraph(3)
	id := g.AddEdge(0, 2)
	u, v := g.Endpoints(id)
	if u != 0 || v != 2 {
		t.Fatalf("Endpoints(%d) = (%d,%d), want (0,2)", id, u, v)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestDegreeAndDeletion(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if got := len(g.Adjacency(1)); got != 2 {
		t.Fatalf("degree of 1 = %d, want 2", got)
	}
	if got := len(g.Adjacency(0)); got != 1 {
		t.Fatalf("degree of 0 = %d, want 1", got)
	}
}

func TestSelfLoopDegree(t *testing.T) {
	g := NewGraph(1)
	g.AddEdge(0, 0)
	if got := len(g.Adjacency(0)); got != 1 {
		t.Fatalf("self-loop degree = %d, want 1", got)
	}
}

func TestBFSDistancesOnGrid(t *testing.T) {
	g, at := grid(4, 4)
	dist := g.BFSFrom(at(0, 0), nil)
	if dist[at(3, 3)] != 6 {
		t.Fatalf("dist corner-to-corner = %d, want 6", dist[at(3, 3)])
	}
	if dist[at(2, 1)] != 3 {
		t.Fatalf("dist to (2,1) = %d, want 3", dist[at(2, 1)])
	}
}

func TestBFSAllowFilter(t *testing.T) {
	g := NewGraph(3)
	e01 := g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	dist := g.BFSFrom(0, func(e int) bool { return e != e01 })
	if dist[1] != -1 || dist[2] != -1 {
		t.Fatalf("allow filter not honored: dist = %v", dist)
	}
}

func TestShortestPathFormsValidWalk(t *testing.T) {
	g, at := grid(5, 5)
	nodes, edges, ok := g.ShortestPath(at(0, 0), at(4, 4), nil)
	if !ok {
		t.Fatal("path should exist")
	}
	if len(nodes) != len(edges)+1 {
		t.Fatalf("len(nodes)=%d len(edges)=%d", len(nodes), len(edges))
	}
	if len(edges) != 8 {
		t.Fatalf("shortest path length = %d, want 8", len(edges))
	}
	for i, e := range edges {
		u, v := g.Endpoints(e)
		a, b := nodes[i], nodes[i+1]
		if !(u == a && v == b || u == b && v == a) {
			t.Fatalf("edge %d does not connect consecutive path nodes", e)
		}
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if _, _, ok := g.ShortestPath(0, 3, nil); ok {
		t.Fatal("0 and 3 are in different components; path must not exist")
	}
}

func TestShortestPathTrivial(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1)
	nodes, edges, ok := g.ShortestPath(0, 0, nil)
	if !ok || len(nodes) != 1 || len(edges) != 0 {
		t.Fatalf("src==dst path: nodes=%v edges=%v ok=%v", nodes, edges, ok)
	}
}

func TestWeightedShortestPathPrefersLightEdges(t *testing.T) {
	// Triangle: 0-1 (w=10), 0-2 (w=1), 2-1 (w=1). Shortest 0->1 is via 2.
	g := NewGraph(3)
	e01 := g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(2, 1)
	w := func(e int) float64 {
		if e == e01 {
			return 10
		}
		return 1
	}
	nodes, _, total, ok := g.WeightedShortestPath(0, 1, w)
	if !ok || total != 2 {
		t.Fatalf("total = %v, ok = %v; want 2, true", total, ok)
	}
	if len(nodes) != 3 || nodes[1] != 2 {
		t.Fatalf("path nodes = %v, want [0 2 1]", nodes)
	}
}

func TestWeightedShortestPathForbiddenEdge(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1)
	_, _, _, ok := g.WeightedShortestPath(0, 1, func(int) float64 { return -1 })
	if ok {
		t.Fatal("all edges forbidden: no path should be found")
	}
}

func TestIncidentEdgesSorted(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(1, 0)
	g.AddEdge(2, 0)
	g.AddEdge(0, 3)
	got := g.IncidentEdges(0)
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("IncidentEdges(0) = %v", got)
	}
}

func TestEdgeSubgraphComponents(t *testing.T) {
	g, at := grid(4, 1) // path 0-1-2-3
	// Edges: 0:(0,1) 1:(1,2) 2:(2,3)
	comps := g.EdgeSubgraphComponents([]int{0, 2})
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2 (%v)", len(comps), comps)
	}
	_ = at
}

func TestPathDecompositionSeparatesCycle(t *testing.T) {
	// Path 0-1-2 plus disjoint triangle 3-4-5.
	g := NewGraph(6)
	p0 := g.AddEdge(0, 1)
	p1 := g.AddEdge(1, 2)
	c0 := g.AddEdge(3, 4)
	c1 := g.AddEdge(4, 5)
	c2 := g.AddEdge(5, 3)
	main, extras, ok := g.PathDecomposition(0, 2, []int{p0, p1, c0, c1, c2})
	if !ok {
		t.Fatal("main path should be found")
	}
	if len(main) != 2 || main[0] != p0 || main[1] != p1 {
		t.Fatalf("main = %v, want [%d %d]", main, p0, p1)
	}
	if len(extras) != 1 || len(extras[0]) != 3 {
		t.Fatalf("extras = %v, want one 3-edge cycle", extras)
	}
}

func TestPathDecompositionNoConnection(t *testing.T) {
	g := NewGraph(4)
	e := g.AddEdge(2, 3)
	_, extras, ok := g.PathDecomposition(0, 1, []int{e})
	if ok {
		t.Fatal("no component touches both s and t")
	}
	if len(extras) != 1 {
		t.Fatalf("extras = %v", extras)
	}
}

func TestIsSimplePath(t *testing.T) {
	g := NewGraph(5)
	e0 := g.AddEdge(0, 1)
	e1 := g.AddEdge(1, 2)
	e2 := g.AddEdge(2, 3)
	branch := g.AddEdge(1, 4)
	if !g.IsSimplePath(0, 3, []int{e0, e1, e2}) {
		t.Fatal("0-1-2-3 is a simple path")
	}
	if g.IsSimplePath(0, 3, []int{e0, e1, e2, branch}) {
		t.Fatal("branching edge set is not a simple path")
	}
	if g.IsSimplePath(0, 3, nil) {
		t.Fatal("empty edge set is not a path")
	}
	if g.IsSimplePath(0, 2, []int{e0, e2}) {
		t.Fatal("disconnected edge set is not a path")
	}
}

func TestMaxFlowSimple(t *testing.T) {
	// Two disjoint unit paths s(0) -> t(3).
	f := NewFlowNetwork(4)
	f.AddArc(0, 1, 1, -1)
	f.AddArc(1, 3, 1, -1)
	f.AddArc(0, 2, 1, -1)
	f.AddArc(2, 3, 1, -1)
	if got := f.MaxFlow(0, 3); got != 2 {
		t.Fatalf("MaxFlow = %d, want 2", got)
	}
}

func TestMaxFlowBottleneck(t *testing.T) {
	f := NewFlowNetwork(3)
	f.AddArc(0, 1, 5, -1)
	f.AddArc(1, 2, 2, -1)
	if got := f.MaxFlow(0, 2); got != 2 {
		t.Fatalf("MaxFlow = %d, want 2", got)
	}
}

func TestMinEdgeCutOnGrid(t *testing.T) {
	g, at := grid(3, 3)
	cut, size := MinEdgeCut(g, at(0, 0), at(2, 2), nil)
	if size != 2 {
		t.Fatalf("corner min cut = %d, want 2", size)
	}
	if len(cut) != 2 {
		t.Fatalf("cut edges = %v, want 2 edges", cut)
	}
	// Removing the cut must disconnect.
	inCut := make(map[int]bool)
	for _, e := range cut {
		inCut[e] = true
	}
	if g.Reachable(at(0, 0), at(2, 2), func(e int) bool { return !inCut[e] }) {
		t.Fatal("cut does not disconnect s from t")
	}
}

// Property: on random connected graphs, removing a min cut always
// disconnects s from t, and the cut size equals max-flow.
func TestMinCutDisconnectsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		g := NewGraph(n)
		// Spanning chain for connectivity plus random extras.
		for i := 1; i < n; i++ {
			g.AddEdge(i-1, i)
		}
		for k := 0; k < n; k++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		s, tt := 0, n-1
		cut, size := MinEdgeCut(g, s, tt, nil)
		if len(cut) == 0 && size > 0 {
			return false
		}
		inCut := make(map[int]bool)
		for _, e := range cut {
			inCut[e] = true
		}
		return !g.Reachable(s, tt, func(e int) bool { return !inCut[e] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS distance is symmetric on undirected graphs.
func TestBFSSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		g := NewGraph(n)
		for k := 0; k < 2*n; k++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		a, b := rng.Intn(n), rng.Intn(n)
		return g.BFSFrom(a, nil)[b] == g.BFSFrom(b, nil)[a]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: weighted shortest path total is never below hop count when all
// weights are >= 1.
func TestWeightedAtLeastHopsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		g := NewGraph(n)
		for i := 1; i < n; i++ {
			g.AddEdge(i-1, i)
		}
		for k := 0; k < n; k++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		weights := make([]float64, g.NumEdges())
		for i := range weights {
			weights[i] = 1 + rng.Float64()*4
		}
		_, edges, total, ok := g.WeightedShortestPath(0, n-1, func(e int) float64 { return weights[e] })
		if !ok {
			return false
		}
		return total >= float64(len(edges))-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
