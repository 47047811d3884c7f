package core

import (
	"testing"

	"repro/internal/assay"
	"repro/internal/chip"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/pso"
)

// tinyChip reproduces the structure where no full sharing scheme validates:
// one mixer, one detector, a single trunk channel and a dead-end port
// pocket whose DFT bypass valves sit in series.
func tinyChip(t *testing.T) *chip.Chip {
	t.Helper()
	b := chip.NewBuilder("tiny_pocket", 6, 4)
	b.AddDevice(chip.Mixer, "M1", grid.Coord{X: 1, Y: 1})
	b.AddDevice(chip.Detector, "D1", grid.Coord{X: 4, Y: 1})
	b.AddPort("P0", grid.Coord{X: 0, Y: 1})
	b.AddPort("P1", grid.Coord{X: 5, Y: 1})
	b.AddPort("P2", grid.Coord{X: 1, Y: 3})
	b.AddChannel(grid.Coord{X: 0, Y: 1}, grid.Coord{X: 1, Y: 1})
	b.AddChannel(grid.Coord{X: 1, Y: 1}, grid.Coord{X: 2, Y: 1}, grid.Coord{X: 3, Y: 1}, grid.Coord{X: 4, Y: 1})
	b.AddChannel(grid.Coord{X: 4, Y: 1}, grid.Coord{X: 5, Y: 1})
	b.AddChannel(grid.Coord{X: 1, Y: 1}, grid.Coord{X: 1, Y: 2}, grid.Coord{X: 1, Y: 3})
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func tinyAssay() *assay.Graph {
	g := assay.New("tiny")
	m := g.AddOp(assay.Mix, "m", 40)
	d := g.AddOp(assay.Detect, "d", 20)
	g.AddDep(m, d)
	return g
}

func TestPartialSharingFallback(t *testing.T) {
	res, err := RunDFTFlow(tinyChip(t), tinyAssay(), Options{
		Outer: pso.Config{Particles: 3, Iterations: 4},
		Inner: pso.Config{Particles: 3, Iterations: 4},
		Seed:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// On this chip full sharing may or may not exist depending on the
	// augmentation; what MUST hold: the flow succeeds, the result is
	// internally consistent, and coverage is complete under the returned
	// control assignment.
	if res.NumShared > res.NumDFTValves {
		t.Fatalf("shared %d of %d", res.NumShared, res.NumDFTValves)
	}
	unshared := 0
	for _, p := range res.Partners {
		if p == -1 {
			unshared++
		}
	}
	if res.NumDFTValves-res.NumShared != unshared {
		t.Fatalf("NumShared %d inconsistent with partners %v", res.NumShared, res.Partners)
	}
	if res.Control.NumLines() != res.Aug.Chip.NumOriginalValves()+unshared {
		t.Fatalf("lines %d for %d unshared", res.Control.NumLines(), unshared)
	}
	sim := fault.MustSimulator(res.Aug.Chip, res.Control)
	cov := sim.EvaluateCoverage(append(res.PathVectors, res.CutVectors...), fault.AllFaults(res.Aug.Chip))
	if !cov.Full() {
		t.Fatalf("coverage %v", cov)
	}
}

func TestBenchmarksStayFullyShared(t *testing.T) {
	// The partial-sharing fallback must never fire on the paper's
	// benchmarks (full sharing exists and dominates).
	res, err := RunDFTFlow(chip.IVD(), assay.IVD(), smallOpts(21))
	if err != nil {
		t.Fatal(err)
	}
	if res.NumShared != res.NumDFTValves {
		t.Fatalf("benchmark lost full sharing: %d/%d", res.NumShared, res.NumDFTValves)
	}
	for _, p := range res.Partners {
		if p < 0 {
			t.Fatal("own-line partner on a benchmark")
		}
	}
}

func TestSharedControlOwnLine(t *testing.T) {
	c := chip.IVD()
	for e, n := 0, 0; e < c.Grid.NumEdges() && n < 2; e++ {
		if _, occ := c.ValveOnEdge(e); !occ {
			if _, err := c.AddDFTChannel(e); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	ctrl, err := chip.SharedControl(c, []int{4, -1})
	if err != nil {
		t.Fatal(err)
	}
	if ctrl.NumLines() != 13 { // 12 original + 1 own
		t.Fatalf("lines = %d, want 13", ctrl.NumLines())
	}
	if ctrl.NumShared() != 1 {
		t.Fatalf("NumShared = %d, want 1", ctrl.NumShared())
	}
	for v := 0; v < 13; v++ {
		if ctrl.LineOf(v) == ctrl.LineOf(13) {
			t.Fatalf("own-line valve 13 shares line %d with valve %d", ctrl.LineOf(13), v)
		}
	}
}
