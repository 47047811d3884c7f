package grid

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDimensions(t *testing.T) {
	g := New(5, 3)
	if g.NumNodes() != 15 {
		t.Fatalf("nodes = %d, want 15", g.NumNodes())
	}
	// Edges: horizontal 4*3 + vertical 5*2 = 22.
	if g.NumEdges() != 22 {
		t.Fatalf("edges = %d, want 22", g.NumEdges())
	}
}

func TestNewRejectsTiny(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("1x5 grid must panic")
		}
	}()
	New(1, 5)
}

func TestNodeCoordRoundTrip(t *testing.T) {
	g := New(7, 4)
	for y := 0; y < 4; y++ {
		for x := 0; x < 7; x++ {
			c := Coord{X: x, Y: y}
			if got := g.CoordOf(g.NodeAt(c)); got != c {
				t.Fatalf("roundtrip %v -> %v", c, got)
			}
		}
	}
}

func TestNodeAtPanicsOutside(t *testing.T) {
	g := New(4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds NodeAt must panic")
		}
	}()
	g.NodeAt(Coord{X: 4, Y: 0})
}

func TestCoordOfPanicsOutside(t *testing.T) {
	g := New(4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range CoordOf must panic")
		}
	}()
	g.CoordOf(16)
}

func TestOnBoundary(t *testing.T) {
	g := New(4, 4)
	cases := map[Coord]bool{
		{X: 0, Y: 0}: true, {X: 3, Y: 0}: true, {X: 0, Y: 3}: true,
		{X: 2, Y: 0}: true, {X: 0, Y: 2}: true, {X: 3, Y: 1}: true,
		{X: 1, Y: 1}: false, {X: 2, Y: 2}: false,
	}
	for c, want := range cases {
		if got := g.OnBoundary(c); got != want {
			t.Fatalf("OnBoundary(%v) = %v, want %v", c, got, want)
		}
	}
}

func TestEdgeBetween(t *testing.T) {
	g := New(4, 4)
	a, b := g.NodeAt(Coord{X: 1, Y: 1}), g.NodeAt(Coord{X: 2, Y: 1})
	e1, ok1 := g.EdgeBetween(a, b)
	e2, ok2 := g.EdgeBetween(b, a)
	if !ok1 || !ok2 || e1 != e2 {
		t.Fatalf("edge lookup not symmetric: (%d,%v) vs (%d,%v)", e1, ok1, e2, ok2)
	}
	if _, ok := g.EdgeBetween(a, g.NodeAt(Coord{X: 3, Y: 3})); ok {
		t.Fatal("distant nodes must have no edge")
	}
}

// TestEdgeBetweenMatchesEndpoints checks the dense edge index on square
// and skewed grids: every edge is found from its endpoints in both
// argument orders, and every other node pair, the row-wrap pair from
// (W-1, y) to (0, y+1) included, has no edge.
func TestEdgeBetweenMatchesEndpoints(t *testing.T) {
	for _, wh := range [][2]int{{2, 2}, {2, 5}, {5, 2}, {7, 4}} {
		g := New(wh[0], wh[1])
		edgeOf := map[[2]int]int{}
		for e := 0; e < g.NumEdges(); e++ {
			u, v := g.Graph().Endpoints(e)
			edgeOf[[2]int{u, v}], edgeOf[[2]int{v, u}] = e, e
		}
		for u := 0; u < g.NumNodes(); u++ {
			for v := 0; v < g.NumNodes(); v++ {
				want, adjacent := edgeOf[[2]int{u, v}]
				got, ok := g.EdgeBetween(u, v)
				if ok != adjacent || (ok && got != want) {
					t.Fatalf("%dx%d: EdgeBetween(%v, %v) = (%d, %v), want (%d, %v)",
						g.W, g.H, g.CoordOf(u), g.CoordOf(v), got, ok, want, adjacent)
				}
			}
		}
		for y := 0; y+1 < g.H; y++ {
			if _, ok := g.EdgeBetween(g.NodeAt(Coord{X: g.W - 1, Y: y}), g.NodeAt(Coord{X: 0, Y: y + 1})); ok {
				t.Fatalf("%dx%d: row-wrap pair at y=%d has an edge", g.W, g.H, y)
			}
		}
		if _, ok := g.EdgeBetween(-1, 0); ok {
			t.Fatalf("%dx%d: off-grid node has an edge", g.W, g.H)
		}
	}
}

func TestEdgeEndpoints(t *testing.T) {
	g := New(3, 3)
	e, _ := g.EdgeBetweenCoords(Coord{X: 0, Y: 0}, Coord{X: 1, Y: 0})
	a, b := g.EdgeEndpoints(e)
	want1, want2 := (Coord{X: 0, Y: 0}), (Coord{X: 1, Y: 0})
	if !(a == want1 && b == want2 || a == want2 && b == want1) {
		t.Fatalf("endpoints = %v,%v", a, b)
	}
}

func TestPathEdgesValidWalk(t *testing.T) {
	g := New(5, 5)
	edges, err := g.PathEdges([]Coord{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 1, Y: 1}, {X: 1, Y: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 3 {
		t.Fatalf("edges = %v", edges)
	}
}

func TestPathEdgesRejectsJumps(t *testing.T) {
	g := New(5, 5)
	if _, err := g.PathEdges([]Coord{{X: 0, Y: 0}, {X: 2, Y: 0}}); err == nil {
		t.Fatal("non-unit step must fail")
	}
	if _, err := g.PathEdges([]Coord{{X: 0, Y: 0}, {X: 1, Y: 1}}); err == nil {
		t.Fatal("diagonal step must fail")
	}
	if _, err := g.PathEdges([]Coord{{X: 0, Y: 0}}); err == nil {
		t.Fatal("single coordinate must fail")
	}
}

func TestIncidentEdgesCorner(t *testing.T) {
	g := New(4, 4)
	if got := len(g.IncidentEdges(g.NodeAt(Coord{X: 0, Y: 0}))); got != 2 {
		t.Fatalf("corner degree = %d, want 2", got)
	}
	if got := len(g.IncidentEdges(g.NodeAt(Coord{X: 1, Y: 1}))); got != 4 {
		t.Fatalf("interior degree = %d, want 4", got)
	}
	if got := len(g.IncidentEdges(g.NodeAt(Coord{X: 2, Y: 0}))); got != 3 {
		t.Fatalf("boundary degree = %d, want 3", got)
	}
}

func TestManhattan(t *testing.T) {
	if Manhattan(Coord{X: 1, Y: 2}, Coord{X: 4, Y: 0}) != 5 {
		t.Fatal("Manhattan distance wrong")
	}
	if Manhattan(Coord{X: 3, Y: 3}, Coord{X: 3, Y: 3}) != 0 {
		t.Fatal("zero distance wrong")
	}
}

func TestCoordString(t *testing.T) {
	if (Coord{X: 2, Y: 5}).String() != "(2,5)" {
		t.Fatal("Coord.String format")
	}
}

// Property: BFS hop distance between any two grid nodes equals their
// Manhattan distance (grids have no obstacles).
func TestGridDistanceIsManhattanProperty(t *testing.T) {
	g := New(8, 6)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Coord{X: rng.Intn(8), Y: rng.Intn(6)}
		b := Coord{X: rng.Intn(8), Y: rng.Intn(6)}
		dist := g.Graph().BFSFrom(g.NodeAt(a), nil)
		return dist[g.NodeAt(b)] == Manhattan(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: every edge's endpoints are grid-adjacent.
func TestEdgesAreUnitProperty(t *testing.T) {
	g := New(6, 7)
	for e := 0; e < g.NumEdges(); e++ {
		a, b := g.EdgeEndpoints(e)
		if Manhattan(a, b) != 1 {
			t.Fatalf("edge %d connects %v and %v", e, a, b)
		}
	}
}
