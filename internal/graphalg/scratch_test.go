package graphalg

import (
	"math"
	"math/rand"
	"testing"
)

// randomGraph builds a connected random multigraph: a spanning chain
// plus m random edges (self-loops and parallel edges included).
func randomGraph(rng *rand.Rand, n, m int) *Graph {
	g := NewGraph(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v-1, v)
	}
	for i := 0; i < m; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return g
}

func TestBFSDistScratchMatchesBFSFrom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var scratch Scratch
	var dist []int
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n, n*2)
		blocked := make(map[int]bool)
		for e := 0; e < g.NumEdges(); e++ {
			if rng.Intn(4) == 0 {
				blocked[e] = true
			}
		}
		allow := func(e int) bool { return !blocked[e] }
		for src := 0; src < n; src += 1 + rng.Intn(3) {
			want := g.BFSFrom(src, allow)
			dist = g.BFSDistScratch(&scratch, dist, src, allow)
			if len(dist) != len(want) {
				t.Fatalf("trial %d src %d: length %d vs %d", trial, src, len(dist), len(want))
			}
			for v := range want {
				if dist[v] != want[v] {
					t.Fatalf("trial %d src %d node %d: scratch %d, alloc %d",
						trial, src, v, dist[v], want[v])
				}
			}
		}
	}
}

// TestWeightedShortestPathScratchMatches: the table-driven scratch search,
// unbounded, returns WeightedShortestPath's path edge for edge at the same
// cost, and fails exactly when it does.
func TestWeightedShortestPathScratchMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var scratch PathScratch
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n, n*2)
		w := randomWeights(rng, g.NumEdges())
		weight := func(e int) float64 { return w[e] }
		for pair := 0; pair < 12; pair++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			_, wantEdges, wantCost, wantOK := g.WeightedShortestPath(src, dst, weight)
			gotEdges, gotCost, gotOK := g.BoundedPathScratch(&scratch, src, dst, w, 0, math.Inf(1))
			if wantOK != gotOK {
				t.Fatalf("trial %d %d->%d: ok %v vs %v", trial, src, dst, gotOK, wantOK)
			}
			if !wantOK {
				continue
			}
			if gotCost != wantCost {
				t.Fatalf("trial %d %d->%d: cost %v vs %v", trial, src, dst, gotCost, wantCost)
			}
			if len(gotEdges) != len(wantEdges) {
				t.Fatalf("trial %d %d->%d: path length %d vs %d", trial, src, dst, len(gotEdges), len(wantEdges))
			}
			for i := range wantEdges {
				if gotEdges[i] != wantEdges[i] {
					t.Fatalf("trial %d %d->%d: edge %d: %d vs %d — tie-breaks diverge",
						trial, src, dst, i, gotEdges[i], wantEdges[i])
				}
			}
		}
	}
}

// TestPathScratchReuseIsClean: a scratch carrying state from a previous
// query on a different graph size must not leak into the next result.
func TestPathScratchReuseIsClean(t *testing.T) {
	var scratch PathScratch
	var bfsScratch Scratch
	var dist []int
	big := randomGraph(rand.New(rand.NewSource(3)), 50, 100)
	unit := make([]float64, big.NumEdges())
	for e := range unit {
		unit[e] = 1
	}
	all := func(int) bool { return true }
	big.BoundedPathScratch(&scratch, 0, 49, unit, 0, math.Inf(1))
	dist = big.BFSDistScratch(&bfsScratch, dist, 0, all)

	small := NewGraph(3)
	e0 := small.AddEdge(0, 1)
	e1 := small.AddEdge(1, 2)
	edges, cost, ok := small.BoundedPathScratch(&scratch, 0, 2, unit[:small.NumEdges()], 0, math.Inf(1))
	if !ok || cost != 2 || len(edges) != 2 || edges[0] != e0 || edges[1] != e1 {
		t.Fatalf("stale scratch state: edges=%v cost=%v ok=%v", edges, cost, ok)
	}
	dist = small.BFSDistScratch(&bfsScratch, dist, 2, all)
	if len(dist) != 3 || dist[0] != 2 || dist[1] != 1 || dist[2] != 0 {
		t.Fatalf("stale BFS scratch state: %v", dist)
	}
}

func TestShortestPathScratchMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// Two scratches alternate, as the cut search's two legs do, so a
	// query must not disturb the other scratch's returned path.
	var scratches [2]Scratch
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n, n*2)
		allowed := make([]bool, g.NumEdges())
		for e := range allowed {
			allowed[e] = rng.Intn(4) != 0
		}
		allow := func(e int) bool { return allowed[e] }
		if trial%5 == 0 {
			allowed, allow = nil, nil
		}
		for pair := 0; pair < 12; pair++ {
			src, dst := rng.Intn(n), rng.Intn(n)
			wantNodes, wantEdges, wantOK := g.ShortestPath(src, dst, allow)
			gotNodes, gotEdges, gotOK := g.ShortestPathScratch(&scratches[pair%2], src, dst, allowed)
			if gotOK != wantOK {
				t.Fatalf("trial %d %d->%d: ok %v vs %v", trial, src, dst, gotOK, wantOK)
			}
			if !equalInts(gotNodes, wantNodes) || !equalInts(gotEdges, wantEdges) {
				t.Fatalf("trial %d %d->%d: scratch path %v/%v, ShortestPath %v/%v",
					trial, src, dst, gotNodes, gotEdges, wantNodes, wantEdges)
			}
		}
	}
}

// TestFlowNetworkResetMatchesFresh: a network rebuilt through Reset —
// across graphs of different sizes, so its buffers shrink and regrow —
// must give the max flow and min cut a fresh network gives.
func TestFlowNetworkResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var reused FlowNetwork
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(45)
		g := randomGraph(rng, n, n*2)
		capOf := make([]int, g.NumEdges())
		for e := range capOf {
			// Unit edges plus a few "protected" ones, as the cut search
			// builds them.
			capOf[e] = 1
			if rng.Intn(6) == 0 {
				capOf[e] = 1 << 20
			}
		}
		fresh := NewFlowNetwork(n)
		reused.Reset(n)
		for _, f := range []*FlowNetwork{fresh, &reused} {
			for e := 0; e < g.NumEdges(); e++ {
				x, y := g.Endpoints(e)
				f.AddArc(x, y, capOf[e], e)
				f.AddArc(y, x, capOf[e], e)
			}
		}
		s, tt := rng.Intn(n), rng.Intn(n)
		if s == tt {
			continue
		}
		want, got := fresh.MaxFlow(s, tt), reused.MaxFlow(s, tt)
		if got != want {
			t.Fatalf("trial %d: max flow %d after Reset, %d fresh", trial, got, want)
		}
		wantCut := append([]int(nil), fresh.MinCutArcs(s)...)
		if gotCut := reused.MinCutArcs(s); !equalInts(gotCut, wantCut) {
			t.Fatalf("trial %d: min cut %v after Reset, %v fresh", trial, gotCut, wantCut)
		}
	}
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
