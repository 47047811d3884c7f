package pressure

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/chip"
	"repro/internal/loader"
)

// testChips returns every bundled benchmark chip plus the example design
// from designs/, so the dense-vs-sparse properties cover every chip that
// ships with the repo.
func testChips(t *testing.T) []*chip.Chip {
	t.Helper()
	chips := chip.Benchmarks()
	f, err := os.Open("../../designs/example_chip.json")
	if err != nil {
		t.Fatalf("open example design: %v", err)
	}
	defer f.Close()
	c, err := loader.ReadChip(f)
	if err != nil {
		t.Fatalf("load example design: %v", err)
	}
	return append(chips, c)
}

// randomCond draws a conductance vector with each valve open (1), closed
// (0) or leaky-closed (0.05).
func randomCond(rng *rand.Rand, nv int) []float64 {
	cond := make([]float64, nv)
	for i := range cond {
		switch rng.Intn(3) {
		case 0:
			cond[i] = 1
		case 1:
			cond[i] = 0.05
		}
	}
	return cond
}

// flipSome returns a copy of cond with 1..3 random valves moved to a
// different conductance level — the campaign-shaped workload the warm
// path is built for.
func flipSome(rng *rand.Rand, cond []float64) []float64 {
	out := append([]float64(nil), cond...)
	levels := [3]float64{0, 0.05, 1}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		v := rng.Intn(len(out))
		lv := levels[rng.Intn(3)]
		for lv == out[v] {
			lv = levels[rng.Intn(3)]
		}
		out[v] = lv
	}
	return out
}

func sameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if math.Abs(got.MeterFlow-want.MeterFlow) > 1e-9 {
		t.Fatalf("%s: meter flow %v, baseline %v", label, got.MeterFlow, want.MeterFlow)
	}
	for n := range want.NodePressure {
		if math.Abs(got.NodePressure[n]-want.NodePressure[n]) > 1e-9 {
			t.Fatalf("%s: node %d pressure %v, baseline %v",
				label, n, got.NodePressure[n], want.NodePressure[n])
		}
	}
	if got.Reads(Params{}) != want.Reads(Params{}) {
		t.Fatalf("%s: threshold decision diverged (flow %v vs %v)",
			label, got.MeterFlow, want.MeterFlow)
	}
}

// TestEngineMatchesBaselineProperty drives warm-chained and cold sparse
// solves along randomized flip sequences on every bundled chip and checks
// both against the dense baseline to 1e-9, pressures included.
func TestEngineMatchesBaselineProperty(t *testing.T) {
	for _, c := range testChips(t) {
		rigs := [][2]int{
			{c.Ports[0].Node, c.Ports[len(c.Ports)-1].Node},
			{c.Ports[0].Node, c.Ports[1].Node},
		}
		for _, rig := range rigs {
			src, mtr := rig[0], rig[1]
			warmEng, err := NewEngine(c, src, mtr, EngineOptions{})
			if err != nil {
				t.Fatal(err)
			}
			coldEng, err := NewEngine(c, src, mtr, EngineOptions{RankBudget: -1})
			if err != nil {
				t.Fatal(err)
			}
			warm := warmEng.NewSolver()
			rng := rand.New(rand.NewSource(int64(17 + src + mtr)))
			cond := randomCond(rng, c.NumValves())
			for step := 0; step < 60; step++ {
				want, err := SolveBaseline(c, cond, src, mtr)
				if err != nil {
					t.Fatalf("%s baseline: %v", c.Name, err)
				}
				got, err := warm.Solve(cond)
				if err != nil {
					t.Fatalf("%s warm: %v", c.Name, err)
				}
				sameResult(t, c.Name+"/warm", got, want)
				got, err = coldEng.Solve(cond)
				if err != nil {
					t.Fatalf("%s cold: %v", c.Name, err)
				}
				sameResult(t, c.Name+"/cold", got, want)
				cond = flipSome(rng, cond)
			}
			if st := warmEng.Stats(); st.Warm == 0 {
				t.Fatalf("%s: flip chain never took the warm path: %+v", c.Name, st)
			} else if st.Solves != st.Warm+st.Cold {
				t.Fatalf("%s: stats don't add up: %+v", c.Name, st)
			}
			if st := coldEng.Stats(); st.Warm != 0 {
				t.Fatalf("%s: rank budget -1 must disable warm solves: %+v", c.Name, st)
			}
		}
	}
}

// TestEvaluateAllMatchesBaseline checks the batch API against the dense
// baseline: flows to 1e-9 and meter-threshold decisions bit-equal.
func TestEvaluateAllMatchesBaseline(t *testing.T) {
	p := Params{}.WithDefaults()
	for _, c := range testChips(t) {
		src, mtr := c.Ports[0].Node, c.Ports[len(c.Ports)-1].Node
		rng := rand.New(rand.NewSource(23))
		vectors := make([][]float64, 0, 64)
		cond := randomCond(rng, c.NumValves())
		for i := 0; i < 64; i++ {
			vectors = append(vectors, cond)
			cond = flipSome(rng, cond)
		}
		eng, err := NewEngine(c, src, mtr, EngineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		flows, err := eng.EvaluateAll(context.Background(), vectors)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		for i, v := range vectors {
			want, err := SolveBaseline(c, v, src, mtr)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(flows[i]-want.MeterFlow) > 1e-9 {
				t.Fatalf("%s vector %d: flow %v, baseline %v", c.Name, i, flows[i], want.MeterFlow)
			}
			if (flows[i] > p.MeterThreshold) != (want.MeterFlow > p.MeterThreshold) {
				t.Fatalf("%s vector %d: decision diverged", c.Name, i)
			}
		}
	}
}

func TestEvaluateAllCancel(t *testing.T) {
	c := chip.IVD()
	eng, err := NewEngine(c, c.Ports[0].Node, c.Ports[2].Node, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	vectors := [][]float64{Conductances(c, allOpen(c), Params{}, nil)}
	if _, err := eng.EvaluateAll(ctx, vectors); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch returned %v", err)
	}
}

func TestEvaluateAllBadVector(t *testing.T) {
	c := chip.IVD()
	eng, err := NewEngine(c, c.Ports[0].Node, c.Ports[2].Node, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	good := Conductances(c, allOpen(c), Params{}, nil)
	vectors := [][]float64{good, good, {1, 2, 3}, good}
	if _, err := eng.EvaluateAll(context.Background(), vectors); err == nil {
		t.Fatal("short vector must fail the batch")
	}
}

// TestRankBudgetFallback forces more simultaneous flips than the budget
// allows and checks the solver refactorizes (and still agrees with the
// baseline).
func TestRankBudgetFallback(t *testing.T) {
	c := chip.RA30()
	src, mtr := c.Ports[0].Node, c.Ports[1].Node
	eng, err := NewEngine(c, src, mtr, EngineOptions{RankBudget: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := eng.NewSolver()
	cond := Conductances(c, allOpen(c), Params{}, nil)
	if _, err := s.Solve(cond); err != nil {
		t.Fatal(err)
	}
	over := append([]float64(nil), cond...)
	over[0], over[1], over[2], over[3] = 0.05, 0.05, 0.05, 0.05
	got, err := s.Solve(over)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SolveBaseline(c, over, src, mtr)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "over-budget", got, want)
	st := eng.Stats()
	if st.FallbackRank == 0 || st.Cold != 2 || st.Warm != 0 {
		t.Fatalf("expected a rank-budget fallback: %+v", st)
	}
}

// TestReachChangeFallback isolates an interior node (closing both its
// valves) so the identity-row mask changes; the solver must refactorize
// rather than warm-update, and match the baseline.
func TestReachChangeFallback(t *testing.T) {
	b := chip.NewBuilder("line", 7, 3)
	b.AddDevice(chip.Mixer, "M", xy(3, 1))
	b.AddPort("P0", xy(0, 1))
	b.AddPort("P1", xy(6, 1))
	b.AddChannel(xy(0, 1), xy(1, 1), xy(2, 1), xy(3, 1), xy(4, 1), xy(5, 1), xy(6, 1))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	src, mtr := c.Ports[0].Node, c.Ports[1].Node
	eng, err := NewEngine(c, src, mtr, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := eng.NewSolver()
	cond := Conductances(c, allOpen(c), Params{}, nil)
	if _, err := s.Solve(cond); err != nil {
		t.Fatal(err)
	}
	cut := append([]float64(nil), cond...)
	cut[1], cut[2] = 0, 0 // node between valves 1 and 2 floats
	got, err := s.Solve(cut)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SolveBaseline(c, cut, src, mtr)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "floating-island", got, want)
	if st := eng.Stats(); st.FallbackReach == 0 {
		t.Fatalf("expected a reachability fallback: %+v", st)
	}
}

// TestIsolatedMeter: a meter whose every incident valve is closed is the
// case that would make a naive whole-grid Laplacian singular. Both
// solvers must instead report zero flow without error — the baseline by
// excluding unreachable nodes, the engine via identity rows.
func TestIsolatedMeter(t *testing.T) {
	c := chip.IVD()
	src, mtr := c.Ports[0].Node, c.Ports[2].Node
	cond := Conductances(c, allOpen(c), Params{}, nil)
	g := c.Grid.Graph()
	for _, e := range g.IncidentEdges(mtr) {
		if v, ok := c.ValveOnEdge(e); ok {
			cond[v] = 0
		}
	}
	want, err := SolveBaseline(c, cond, src, mtr)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	got, err := newEngine(t, c, src, mtr).Solve(cond)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	if want.MeterFlow != 0 || got.MeterFlow != 0 {
		t.Fatalf("isolated meter flows: baseline %v, engine %v", want.MeterFlow, got.MeterFlow)
	}
	sameResult(t, "isolated-meter", got, want)
}

// TestErrSingularTyped locks in the typed sentinel on both elimination
// kernels: errors.Is must see ErrSingular through the dense path's wrap,
// and the sparse numeric kernel must flag the offending pivot column.
func TestErrSingularTyped(t *testing.T) {
	a := [][]float64{{1, 1, 0}, {1, 1, 0}}
	if _, err := gauss(a, 2); !errors.Is(err, ErrSingular) {
		t.Fatalf("dense gauss on singular system returned %v", err)
	}

	// 2x2 all-ones matrix in the engine's upper-triangular CSC layout.
	Ap := []int32{0, 1, 3}
	Ai := []int32{0, 0, 1}
	Ax := []float64{1, 1, 1}
	parent, Lp := ldlSymbolic(2, Ap, Ai)
	Li := make([]int32, Lp[2])
	Lx := make([]float64, Lp[2])
	D := make([]float64, 2)
	y := make([]float64, 2)
	ws := [3][]int32{make([]int32, 2), make([]int32, 2), make([]int32, 2)}
	if k := ldlNumeric(2, Ap, Ai, Ax, parent, Lp, Li, Lx, D, y, ws[0], ws[1], ws[2], 1e-12); k != 1 {
		t.Fatalf("ldlNumeric on singular system returned column %d, want 1", k)
	}
}

// TestEngineBadInputs mirrors TestBadInputs for the engine.
func TestEngineBadInputs(t *testing.T) {
	c := chip.IVD()
	if _, err := NewEngine(c, 5, 5, EngineOptions{}); err == nil {
		t.Fatal("coincident terminals must fail")
	}
	if _, err := NewEngine(c, -1, 0, EngineOptions{}); err == nil {
		t.Fatal("out-of-range source must fail")
	}
	if _, err := NewEngine(c, 0, c.Grid.NumNodes(), EngineOptions{}); err == nil {
		t.Fatal("out-of-range meter must fail")
	}
	eng, err := NewEngine(c, c.Ports[0].Node, c.Ports[2].Node, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Solve(make([]float64, 3)); err == nil {
		t.Fatal("wrong conductance length must fail")
	}
}

// TestZeroLeakExpressible is the Params zero-value regression: before
// HasLeakConductance, {LeakConductance: 0} silently became the 0.05
// default, so a genuinely airtight-but-flagged valve was inexpressible.
func TestZeroLeakExpressible(t *testing.T) {
	p := Params{LeakConductance: 0, HasLeakConductance: true}.WithDefaults()
	if p.LeakConductance != 0 {
		t.Fatalf("explicit zero leak became %v", p.LeakConductance)
	}
	if d := (Params{}).WithDefaults(); d.LeakConductance != 0.05 {
		t.Fatalf("default leak is %v, want 0.05", d.LeakConductance)
	}
	if d := (Params{LeakConductance: 0.2}).WithDefaults(); d.LeakConductance != 0.2 {
		t.Fatalf("explicit leak overridden to %v", d.LeakConductance)
	}

	c := chip.IVD()
	open := allOpen(c)
	open[0] = false
	zero := Conductances(c, open, Params{HasLeakConductance: true}, map[int]Defect{0: Leaky})
	if zero[0] != 0 {
		t.Fatalf("airtight leaky valve conducts %v", zero[0])
	}
	dflt := Conductances(c, open, Params{}, map[int]Defect{0: Leaky})
	if dflt[0] != 0.05 {
		t.Fatalf("default leaky valve conducts %v, want 0.05", dflt[0])
	}
}

// warmAllocBudget is the allocation ceiling per warm re-solve. The whole
// point of the solver-owned scratch is zero steady-state allocation, so
// the budget is exactly 0.
const warmAllocBudget = 0.0

func TestWarmSolveAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; budget asserted in non-race CI")
	}
	c := chip.MRNA()
	src, mtr := c.Ports[0].Node, c.Ports[len(c.Ports)-1].Node
	eng, err := NewEngine(c, src, mtr, EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := eng.NewSolver()
	base := Conductances(c, allOpen(c), Params{}, nil)
	leaky := append([]float64(nil), base...)
	leaky[0] = 0.05
	if _, err := s.Solve(base); err != nil { // factorize once
		t.Fatal(err)
	}
	cur := leaky
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.Solve(cur); err != nil {
			t.Fatal(err)
		}
		if &cur[0] == &leaky[0] {
			cur = base
		} else {
			cur = leaky
		}
	})
	st := eng.Stats()
	if st.Warm == 0 || st.Cold != 1 {
		t.Fatalf("alternation was not warm: %+v", st)
	}
	t.Logf("allocs/warm-solve=%v (budget %v)", allocs, warmAllocBudget)
	if allocs > warmAllocBudget {
		t.Fatalf("allocation regression: %v allocs per warm solve, budget %v", allocs, warmAllocBudget)
	}
}

func BenchmarkSolveDense(b *testing.B) {
	c := chip.MRNA()
	src, mtr := c.Ports[0].Node, c.Ports[len(c.Ports)-1].Node
	cond := Conductances(c, allOpen(c), Params{}, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SolveBaseline(c, cond, src, mtr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveWarm(b *testing.B) {
	c := chip.MRNA()
	src, mtr := c.Ports[0].Node, c.Ports[len(c.Ports)-1].Node
	eng, err := NewEngine(c, src, mtr, EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	s := eng.NewSolver()
	base := Conductances(c, allOpen(c), Params{}, nil)
	leaky := append([]float64(nil), base...)
	leaky[0] = 0.05
	if _, err := s.Solve(base); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := base
		if i&1 == 0 {
			v = leaky
		}
		if _, err := s.Solve(v); err != nil {
			b.Fatal(err)
		}
	}
}
