package chip

import (
	"math/rand"
	"testing"
)

func TestFPVAStructure(t *testing.T) {
	c := FPVA(5, 5)
	// Every lattice edge is a channel: 4*5*2 = 40 valves.
	if got := c.NumValves(); got != 40 {
		t.Fatalf("FPVA 5x5 valves = %d, want 40", got)
	}
	if len(c.Ports) != 4 {
		t.Fatalf("ports = %d, want 4", len(c.Ports))
	}
	if st := c.Stats(); st.Mixers != 2 || st.Detectors != 1 {
		t.Fatalf("devices: %d mixers, %d detectors", st.Mixers, st.Detectors)
	}
	if c.Stats().FreeEdges != 0 {
		t.Fatalf("FPVA must have no free edges, got %d", c.Stats().FreeEdges)
	}
}

func TestFPVARejectsTiny(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FPVA(3,3) must panic")
		}
	}()
	FPVA(3, 3)
}

func TestFPVAFullyConnected(t *testing.T) {
	c := FPVA(6, 6)
	open := make([]bool, c.NumValves())
	for i := range open {
		open[i] = true
	}
	for i := 1; i < len(c.Ports); i++ {
		if !c.PressureReachable(c.Ports[0].Node, c.Ports[i].Node, open) {
			t.Fatalf("port %d unreachable", i)
		}
	}
}

func TestRandomChipsAreValid(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := Random(rng) // MustBuild panics on invalid chips
		if len(c.Ports) < 2 {
			t.Fatalf("seed %d: %d ports", seed, len(c.Ports))
		}
		st := c.Stats()
		if st.Detectors < 1 {
			t.Fatalf("seed %d: no detector", seed)
		}
		if st.Mixers < 1 {
			t.Fatalf("seed %d: no mixer", seed)
		}
		// Channel network connected (already enforced by Build, but assert
		// pressure-level connectivity between all ports too).
		open := make([]bool, c.NumValves())
		for i := range open {
			open[i] = true
		}
		for i := 1; i < len(c.Ports); i++ {
			if !c.PressureReachable(c.Ports[0].Node, c.Ports[i].Node, open) {
				t.Fatalf("seed %d: port %d unreachable", seed, i)
			}
		}
	}
}

func TestRandomChipsDeterministic(t *testing.T) {
	a := Random(rand.New(rand.NewSource(7)))
	b := Random(rand.New(rand.NewSource(7)))
	if a.NumValves() != b.NumValves() || a.Name != b.Name || len(a.Ports) != len(b.Ports) {
		t.Fatal("same seed must give the same chip")
	}
}
