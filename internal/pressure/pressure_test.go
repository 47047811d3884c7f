package pressure

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/chip"
	"repro/internal/grid"
)

func allOpen(c *chip.Chip) []bool {
	open := make([]bool, c.NumValves())
	for i := range open {
		open[i] = true
	}
	return open
}

// newEngine builds the sparse engine of the rig (c, src, mtr).
func newEngine(t *testing.T, c *chip.Chip, src, mtr int) *Engine {
	t.Helper()
	eng, err := NewEngine(c, src, mtr, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestAllOpenFlowPositive(t *testing.T) {
	c := chip.IVD()
	src, mtr := c.Ports[0].Node, c.Ports[2].Node
	cond := Conductances(c, allOpen(c), Params{}, nil)
	res, err := newEngine(t, c, src, mtr).Solve(cond)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeterFlow <= 0 {
		t.Fatalf("meter flow %v, want positive", res.MeterFlow)
	}
	if !res.Reads(Params{}) {
		t.Fatal("meter must register")
	}
	if res.NodePressure[src] != 1 || res.NodePressure[mtr] != 0 {
		t.Fatalf("terminal pressures %v %v", res.NodePressure[src], res.NodePressure[mtr])
	}
}

func TestAllClosedNoFlow(t *testing.T) {
	c := chip.IVD()
	cond := Conductances(c, make([]bool, c.NumValves()), Params{}, nil)
	res, err := newEngine(t, c, c.Ports[0].Node, c.Ports[2].Node).Solve(cond)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeterFlow != 0 {
		t.Fatalf("flow through closed chip: %v", res.MeterFlow)
	}
	if res.Reads(Params{}) {
		t.Fatal("meter must stay silent")
	}
}

func TestPressuresWithinBounds(t *testing.T) {
	c := chip.RA30()
	cond := Conductances(c, allOpen(c), Params{}, nil)
	res, err := newEngine(t, c, c.Ports[0].Node, c.Ports[1].Node).Solve(cond)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.NodePressure {
		if p < -1e-9 || p > 1+1e-9 {
			t.Fatalf("node %d pressure %v outside [0,1]", i, p)
		}
	}
}

func TestSeriesResistanceHalvesFlow(t *testing.T) {
	// Line chip: P0 -v0- M -v1- (…) -..- P1. Doubling the path length at
	// unit conductance must reduce flow (series resistance adds).
	b := chip.NewBuilder("line2", 7, 3)
	b.AddDevice(chip.Mixer, "M", xy(1, 1))
	b.AddPort("P0", xy(0, 1))
	b.AddPort("P1", xy(6, 1))
	b.AddChannel(xy(0, 1), xy(1, 1), xy(2, 1), xy(3, 1), xy(4, 1), xy(5, 1), xy(6, 1))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cond := Conductances(c, allOpen(c), Params{}, nil)
	res, err := newEngine(t, c, c.Ports[0].Node, c.Ports[1].Node).Solve(cond)
	if err != nil {
		t.Fatal(err)
	}
	// 6 unit conductances in series: flow = 1/6.
	if math.Abs(res.MeterFlow-1.0/6) > 1e-9 {
		t.Fatalf("series flow %v, want 1/6", res.MeterFlow)
	}
}

func TestStuckClosedBlocksFlow(t *testing.T) {
	c := chip.IVD()
	open := allOpen(c)
	src, mtr := c.Ports[0].Node, c.Ports[1].Node
	eng := newEngine(t, c, src, mtr)
	base, _ := eng.Solve(Conductances(c, open, Params{}, nil))
	// Stick every valve closed one at a time; flow never increases.
	for v := 0; v < c.NumValves(); v++ {
		res, err := eng.Solve(Conductances(c, open, Params{}, map[int]Defect{v: StuckClosed}))
		if err != nil {
			t.Fatal(err)
		}
		if res.MeterFlow > base.MeterFlow+1e-9 {
			t.Fatalf("closing valve %d increased flow", v)
		}
	}
}

func TestLeakyValveGivesWeakSignal(t *testing.T) {
	// All valves closed except a leaky one on the source port's edge: the
	// meter sees a small flow only if the rest of a path is open.
	c := chip.IVD()
	src, mtr := c.Ports[0].Node, c.Ports[1].Node
	// Open a path except one closed-but-leaky valve: use all-open minus
	// valve 0 (P0's edge) marked leaky and intended closed.
	open := allOpen(c)
	open[0] = false
	eng := newEngine(t, c, src, mtr)
	healthy, err := eng.Solve(Conductances(c, open, Params{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if healthy.MeterFlow != 0 {
		t.Fatalf("healthy closed valve leaks: %v", healthy.MeterFlow)
	}
	leaky, err := eng.Solve(Conductances(c, open, Params{}, map[int]Defect{0: Leaky}))
	if err != nil {
		t.Fatal(err)
	}
	if leaky.MeterFlow <= 0 {
		t.Fatal("leaky valve must pass some flow")
	}
	full, err := eng.Solve(Conductances(c, allOpen(c), Params{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if leaky.MeterFlow >= full.MeterFlow {
		t.Fatalf("leak flow %v not weaker than open flow %v", leaky.MeterFlow, full.MeterFlow)
	}
	// A coarse meter misses the leak; a sensitive one catches it.
	if leaky.Reads(Params{MeterThreshold: full.MeterFlow}) {
		t.Fatal("coarse meter should miss the leak")
	}
	if !leaky.Reads(Params{MeterThreshold: leaky.MeterFlow / 2}) {
		t.Fatal("sensitive meter should catch the leak")
	}
}

// Cross-model property: quantitative flow > 0 exactly when the boolean
// model reports reachability, for random valve states on all benchmarks.
func TestQuantMatchesBooleanProperty(t *testing.T) {
	for _, c := range chip.Benchmarks() {
		src, mtr := c.Ports[0].Node, c.Ports[len(c.Ports)-1].Node
		eng := newEngine(t, c, src, mtr)
		rng := rand.New(rand.NewSource(9))
		for trial := 0; trial < 40; trial++ {
			open := make([]bool, c.NumValves())
			for i := range open {
				open[i] = rng.Intn(2) == 0
			}
			res, err := eng.Solve(Conductances(c, open, Params{}, nil))
			if err != nil {
				t.Fatal(err)
			}
			boolReach := c.PressureReachable(src, mtr, open)
			quantReach := res.MeterFlow > 1e-9
			if boolReach != quantReach {
				t.Fatalf("%s trial %d: boolean %v vs quantitative %v (flow %v)",
					c.Name, trial, boolReach, quantReach, res.MeterFlow)
			}
		}
	}
}

func TestBadInputs(t *testing.T) {
	c := chip.IVD()
	cond := Conductances(c, allOpen(c), Params{}, nil)
	if _, err := SolveBaseline(c, make([]float64, 3), 0, 1); err == nil {
		t.Fatal("wrong conductance length must fail")
	}
	if _, err := SolveBaseline(c, cond, 5, 5); err == nil {
		t.Fatal("coincident terminals must fail")
	}
}

// solvers enumerates both solvers of the rig (c, src, mtr) so legacy
// regressions cover the engine and the preserved dense baseline alike.
func solvers(t *testing.T, c *chip.Chip, src, mtr int) map[string]func([]float64) (Result, error) {
	return map[string]func([]float64) (Result, error){
		"engine": newEngine(t, c, src, mtr).Solve,
		"baseline": func(cond []float64) (Result, error) {
			return SolveBaseline(c, cond, src, mtr)
		},
	}
}

func xy(x, y int) grid.Coord { return grid.Coord{X: x, Y: y} }

// Regression for the gauss singularity check: the pivot tolerance is
// scaled by the matrix magnitude, so physically tiny conductances (a
// uniformly low-permeability chip) must solve exactly like unit ones —
// same pressure field, flow scaled linearly — instead of failing as
// "singular".
func TestGaussTinyConductancesSolve(t *testing.T) {
	c := chip.IVD()
	src, mtr := c.Ports[0].Node, c.Ports[2].Node
	unit := Conductances(c, allOpen(c), Params{}, nil)
	for name, solve := range solvers(t, c, src, mtr) {
		ref, err := solve(unit)
		if err != nil {
			t.Fatal(err)
		}
		for _, scale := range []float64{1e-13, 1e-9, 1e9} {
			cond := make([]float64, len(unit))
			for i, g := range unit {
				cond[i] = g * scale
			}
			res, err := solve(cond)
			if err != nil {
				t.Fatalf("%s scale %g: %v", name, scale, err)
			}
			// Pressures depend only on conductance ratios.
			for n, p := range ref.NodePressure {
				q := res.NodePressure[n]
				if math.IsNaN(p) != math.IsNaN(q) {
					t.Fatalf("%s scale %g node %d: NaN mismatch (%v vs %v)", name, scale, n, p, q)
				}
				if !math.IsNaN(p) && math.Abs(p-q) > 1e-6 {
					t.Fatalf("%s scale %g node %d: pressure %v, want %v", name, scale, n, q, p)
				}
			}
			// Flow scales linearly with conductance.
			if rel := math.Abs(res.MeterFlow-ref.MeterFlow*scale) / (ref.MeterFlow * scale); rel > 1e-6 {
				t.Fatalf("%s scale %g: meter flow %v, want %v", name, scale, res.MeterFlow, ref.MeterFlow*scale)
			}
		}
	}
}
