package chip

import (
	"testing"

	"repro/internal/grid"
)

func TestGenerateFPVAShape(t *testing.T) {
	c, err := GenerateFPVA(FPVAParams{W: 8, H: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c.Grid.W != 8 || c.Grid.H != 10 {
		t.Fatalf("grid %dx%d", c.Grid.W, c.Grid.H)
	}
	// Every lattice edge is a valved channel.
	if c.NumValves() != c.Grid.NumEdges() {
		t.Fatalf("valves %d != edges %d", c.NumValves(), c.Grid.NumEdges())
	}
	for _, p := range c.Ports {
		if !c.Grid.OnBoundary(c.Grid.CoordOf(p.Node)) {
			t.Fatalf("port %s not on boundary", p.Name)
		}
	}
	for _, d := range c.Devices {
		co := c.Grid.CoordOf(d.Node)
		if c.Grid.OnBoundary(co) {
			t.Fatalf("device %s on boundary at %v", d.Name, co)
		}
	}
	if c.Stats().Detectors == 0 {
		t.Fatal("no detector")
	}
}

func TestGenerateFPVAPortCounts(t *testing.T) {
	for _, tc := range []struct{ ports, want int }{
		{0, perimeter(8, 8) / 4}, // default spacing
		{2, 2},
		{5, 5},
		{1000, perimeter(8, 8)}, // clamped to the perimeter
	} {
		c, err := GenerateFPVA(FPVAParams{W: 8, H: 8, Seed: 1, Ports: tc.ports})
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Ports) != tc.want {
			t.Fatalf("Ports=%d: got %d ports, want %d", tc.ports, len(c.Ports), tc.want)
		}
		seen := map[int]bool{}
		for _, p := range c.Ports {
			if seen[p.Node] {
				t.Fatalf("Ports=%d: duplicate port node %d", tc.ports, p.Node)
			}
			seen[p.Node] = true
		}
	}
}

func TestGenerateFPVARejectsTinyGrids(t *testing.T) {
	for _, p := range []FPVAParams{{W: 3, H: 8}, {W: 8, H: 3}, {W: 0, H: 0}, {W: -4, H: 4}} {
		if _, err := GenerateFPVA(p); err == nil {
			t.Fatalf("params %+v: expected error", p)
		}
	}
}

func TestBoundaryWalkCoversBoundaryOnce(t *testing.T) {
	g := grid.New(6, 5)
	walk := boundaryWalk(6, 5)
	if len(walk) != perimeter(6, 5) {
		t.Fatalf("walk length %d, want %d", len(walk), perimeter(6, 5))
	}
	seen := map[grid.Coord]bool{}
	for _, c := range walk {
		if !g.OnBoundary(c) {
			t.Fatalf("%v not on boundary", c)
		}
		if seen[c] {
			t.Fatalf("%v visited twice", c)
		}
		seen[c] = true
	}
}
